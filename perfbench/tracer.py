"""Span tracing installed from the benchmark's side of the library boundary.

``Tracer`` replaces public entry points of randla's modules (module
attributes, and ``apply`` methods on operator classes) with wrappers that
record one span per call: layer, name, start, end, parent span, the op that
caused it, the exception type if the call raised, and a count where the call
reports one (counters drawn, iterations, Lanczos steps, replicates).  Spans
stay in memory; ``remove()`` restores the original attributes.  Nothing in
``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from randla import (bench, detkernels, errorest, fullrank, leastsq, leverage,
                    lowrank, rng, sketching, trace)

FACTORIZATIONS = ("qr_econ", "qrcp", "chol", "svd", "eigh", "solve_triangular")
ITERATIVE = ("lsqr", "pcg", "lanczos_tridiag", "lanczos_basis")
SAMPLERS = {"sample_saso": "saso", "sample_dense": "dense",
            "sample_srft": "srft", "sample_row_sampler": "row"}
DRIVER_MODULES = (leastsq, fullrank, lowrank, trace, errorest, leverage)


def _stream_length(args, kwargs, out):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _iterations(args, kwargs, out):
    return out[1].iterations


def _lanczos_steps(args, kwargs, out):
    return len(out[0])


def _targets():
    """(owner, attribute, layer, count hook) for every wrapped entry point."""
    targets = [(rng, name, "rng", _stream_length if name == "uniform_stream"
                else None)
               for name in ("uniform_stream", "gaussian_stream",
                            "rademacher_stream", "uniform_grid")]
    targets += [(sketching, name, "sketching", None) for name in SAMPLERS]
    targets.append((sketching._OperatorBase, "apply", "sketching", None))
    targets += [(detkernels, name, "detkernels", None) for name in FACTORIZATIONS]
    targets += [(detkernels, "lsqr", "detkernels", _iterations),
                (detkernels, "pcg", "detkernels", _iterations),
                (detkernels, "lanczos_tridiag", "detkernels", _lanczos_steps),
                (detkernels, "lanczos_basis", "detkernels", _lanczos_steps),
                (detkernels.LinearOperator, "apply", "detkernels", None),
                (detkernels.LinearOperator, "apply_adjoint", "detkernels", None)]
    replicates = {"bootstrap_ls": lambda a, k, out: out.B,
                  "bootstrap_svd": lambda a, k, out: out[0].B}
    for module in DRIVER_MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                targets.append((module, name, layer, replicates.get(name)))
    targets.append((bench, "gen_matrix", "bench", None))
    return targets


# span fields
LAYER, NAME, START, END, PARENT, OP, ERROR, COUNT = range(8)


class Tracer:
    """Records spans while installed.  ``op`` is set by the caller to tag
    the spans of the current driver call."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, layer, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0, 0, stack[-1] if stack else -1, self.op,
                    None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span[ERROR] = type(err).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, count in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, original, count))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def _has_ancestor(spans, i, names) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass's spans.  A ``*_s`` metric named after
    entry points is their inclusive span time; ``<layer>.self_s`` is span
    time minus the time of child spans, summed over the layer."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)    # by layer
    total_s = defaultdict(float)   # inclusive, by "layer.name"
    calls = defaultdict(int)
    counts = defaultdict(int)
    outermost_rng = 0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        key = f"{s[LAYER]}.{s[NAME]}"
        self_s[s[LAYER]] += (dur - child_ns[i]) * 1e-9
        total_s[key] += dur * 1e-9
        calls[key] += 1
        counts[key] += s[COUNT]
        if s[LAYER] == "rng" and (s[PARENT] < 0
                                  or spans[s[PARENT]][LAYER] != "rng"):
            outermost_rng += 1

    def named(names, table, layer):
        return sum(table[f"{layer}.{n}"] for n in names)

    solves = [i for i, s in enumerate(spans) if s[NAME] in ("spo1", "sps2")
              and not _has_ancestor(spans, i, ("spo1", "sps2"))]
    lsqr_runs = defaultdict(int)
    for s in spans:
        if s[NAME] == "lsqr":
            j = s[PARENT]
            while j >= 0 and j not in solves:
                j = spans[j][PARENT]
            lsqr_runs[j] += 1
    restarted = sum(1 for i in solves if lsqr_runs[i] >= 2)

    counters = counts["rng.uniform_stream"]
    lsqr_s = total_s["detkernels.lsqr"]
    lsqr_iters = counts["detkernels.lsqr"]
    return {
        "rng.counters": counters,
        "rng.calls": outermost_rng,
        "rng.self_s": self_s["rng"],
        "rng.ns_per_counter": self_s["rng"] * 1e9 / counters if counters else 0.0,
        "sketching.sample_s": named(SAMPLERS, total_s, "sketching"),
        "sketching.sample_saso_s": total_s["sketching.sample_saso"],
        "sketching.sample_dense_s": total_s["sketching.sample_dense"],
        "sketching.sample_srft_s": total_s["sketching.sample_srft"],
        "sketching.apply_s": total_s["sketching.apply"],
        "sketching.sample_calls": named(SAMPLERS, calls, "sketching"),
        "sketching.apply_calls": calls["sketching.apply"],
        "detkernels.factor_s": named(FACTORIZATIONS, total_s, "detkernels"),
        "detkernels.factor_calls": named(FACTORIZATIONS, calls, "detkernels"),
        "detkernels.iter_s": named(ITERATIVE, total_s, "detkernels"),
        "detkernels.lsqr_s": lsqr_s,
        "detkernels.lsqr_iters": lsqr_iters,
        "detkernels.lsqr_ms_per_iter":
            lsqr_s * 1e3 / lsqr_iters if lsqr_iters else 0.0,
        "detkernels.matvecs":
            calls["detkernels.apply"] + calls["detkernels.apply_adjoint"],
        "detkernels.pcg_s": total_s["detkernels.pcg"],
        "detkernels.pcg_iters": counts["detkernels.pcg"],
        "detkernels.lanczos_s": named(("lanczos_tridiag", "lanczos_basis"),
                                      total_s, "detkernels"),
        "detkernels.lanczos_steps": named(("lanczos_tridiag", "lanczos_basis"),
                                          counts, "detkernels"),
        "leastsq.self_s": self_s["leastsq"],
        "leastsq.fallbacks": sum(1 for s in spans if s[NAME] == "sps2"
                                 and s[PARENT] >= 0
                                 and spans[s[PARENT]][NAME] == "spo1"),
        "leastsq.restart_frac": restarted / len(solves) if solves else 0.0,
        "fullrank.self_s": self_s["fullrank"],
        "fullrank.chol_retries": sum(
            1 for i, s in enumerate(spans) if s[NAME] == "chol"
            and s[ERROR] == "CholeskyError"
            and _has_ancestor(spans, i, ("sap_chol_qrcp",))),
        "lowrank.self_s": self_s["lowrank"],
        "lowrank.qb_blocks": sum(1 for s in spans if s[NAME] == "rf1"
                                 and s[PARENT] >= 0
                                 and spans[s[PARENT]][NAME] == "qb2"),
        "trace.self_s": self_s["trace"],
        "errorest.self_s": self_s["errorest"],
        "errorest.replicates": counts["errorest.bootstrap_ls"]
                               + counts["errorest.bootstrap_svd"],
        "leverage.self_s": self_s["leverage"],
    }
