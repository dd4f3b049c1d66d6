"""Tests of the benchmark itself (reduced sizes).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import randla  # noqa: E402
import run  # noqa: E402
from measure import END_TO_END, PER_LAYER, measure, run_pass  # noqa: E402
from randla.rng import RngKey  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("rng.counters", "detkernels.lsqr_iters", "detkernels.matvecs",
          "lowrank.qb_blocks", "detkernels.pcg_iters",
          "detkernels.lanczos_steps", "errorest.replicates", "trace.matvecs")


def _arrays(inputs):
    return {k: np.asarray(v) for k, v in inputs.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    wl = WORKLOADS[name]
    size = wl.sizes["smoke"]
    first, again, other = (_arrays(wl.make_inputs(seed, size)[0])
                           for seed in (5, 5, 6))
    for key, value in first.items():
        assert value.tobytes() == again[key].tobytes(), key
    assert first["A"].tobytes() != other["A"].tobytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(name, tmp_path):
    runs = [measure(name, 3, 0.0, True, True, 1, tmp_path) for _ in range(2)]
    for run in runs:
        assert run["correct"], run["failures"] or run["bitwise_mismatch"]
    for count in COUNTS:
        assert runs[0]["metrics"][count] == runs[1]["metrics"][count], count
    # every workload exercises its namesake layers
    metrics = runs[0]["metrics"]
    assert metrics["rng.counters"] > 0
    expected = {"tall_skinny": ("detkernels.lsqr_iters", "detkernels.matvecs"),
                "square_lowrank": ("lowrank.qb_blocks", "detkernels.pcg_iters"),
                "many_probes": ("detkernels.lanczos_steps",
                                "errorest.replicates", "trace.matvecs")}[name]
    for count in expected:
        assert metrics[count] > 0, count


def test_tracer_restores_the_library_and_leaves_outputs_unchanged():
    wl = WORKLOADS["tall_skinny"]
    inputs, _ = wl.make_inputs(1, wl.sizes["smoke"])
    original = (randla.rng.uniform_stream, randla.sketching._OperatorBase.apply,
                randla.detkernels.LinearOperator.apply, randla.leastsq.spo1)
    plain = run_pass(wl, inputs, RngKey(9), 0, refs=False)
    tracer = Tracer()
    with tracer:
        assert randla.rng.uniform_stream is not original[0]
        traced = run_pass(wl, inputs, RngKey(9), 0, refs=False, tracer=tracer)
    assert (randla.rng.uniform_stream, randla.sketching._OperatorBase.apply,
            randla.detkernels.LinearOperator.apply,
            randla.leastsq.spo1) == original
    assert plain.digests == traced.digests
    metrics = layer_metrics(tracer.spans)
    assert metrics["sketching.sample_calls"] == len(wl.ops)
    assert all(s[3] >= s[2] for s in tracer.spans)


def _run(args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True,
        text=True, timeout=300, env=env, cwd=cwd)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(name, trace, tmp_path):
    proc = _run(["--workload", name, "--seed", "2", "--seconds", "0.5",
                 "--trace", trace, "--smoke"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in declared[kind]]
    assert names == list(PER_LAYER if trace == "1" else END_TO_END)
    assert list(result["metrics"]) == names
    report = "\n".join(lines[:-1])
    for metric in names:
        assert f" {metric} " in report
    assert (tmp_path / ".perfbench").is_dir()


def test_refuses_a_thread_pin_it_cannot_honour():
    nproc = len(os.sched_getaffinity(0))
    with pytest.raises(SystemExit, match="outside"):
        run.pin_blas_threads(nproc + 1)
    with pytest.raises(SystemExit, match="numpy was imported"):
        run.pin_blas_threads(1)  # numpy is loaded in this process


def test_fails_without_the_library_sources(tmp_path):
    """Run from a copy holding only BENCHMARK.json and perfbench/."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_probes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
