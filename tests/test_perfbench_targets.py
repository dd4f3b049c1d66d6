"""The benchmark's tracer (``perfbench/tracer.py``) wraps each library entry
point it names by reading ``owner.__dict__[attr]``, so an entry point that
is deleted, or a method that is inherited rather than defined on the class
it names, breaks every traced run.  perfbench's own tests are not collected
with these, so this file loads the tracer read-only and checks its targets."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


def test_every_tracer_target_is_defined_on_its_owner():
    targets = _tracer_targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not callable(owner.__dict__.get(attr))]
    assert not missing
    named = {(owner.__name__, attr) for owner, attr, *_ in targets}
    assert {("_OperatorBase", "apply"), ("randla.sketching", "sample_saso"),
            ("randla.rng", "uniform_stream")} <= named
