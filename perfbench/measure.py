"""Closed-loop measurement of one workload: set-up, timed passes, checks,
the optional traced passes, and the metrics they yield.

A pass makes one call to each of the workload's ops back to back in one
process (a closed loop with one client), then times the LAPACK references.
Every op output is checked for accuracy right after its call, outside the
timed region.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from randla.rng import RngKey

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Keys, derive

SETUP_REPS = 3

# Metrics printed as the last line, in BENCHMARK.json order.  Module and
# per-entry-point times that are zero on some workload are printed and saved
# but kept out of the gated line (see README.md).
END_TO_END = {"pass_s": "s", "speedup_vs_lapack": "x", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "rng.counters": "count", "rng.calls": "count", "rng.self_s": "s",
    "rng.ns_per_counter": "ns", "sketching.sample_s": "s",
    "sketching.sample_calls": "count", "sketching.apply_calls": "count",
    "detkernels.factor_s": "s", "detkernels.factor_calls": "count",
    "detkernels.iter_s": "s", "detkernels.lsqr_iters": "count",
    "detkernels.matvecs": "count", "detkernels.pcg_iters": "count",
    "detkernels.lanczos_steps": "count", "leastsq.self_s": "s",
    "leastsq.fallbacks": "count", "leastsq.restart_frac": "fraction",
    "fullrank.chol_retries": "count", "lowrank.qb_blocks": "count",
    "trace.matvecs": "count", "errorest.replicates": "count",
    "bench.gen_matrix_s": "s", "trace_overhead_frac": "fraction",
}
TIME_UNITS = ("s", "ms", "ns")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_ms_per_iter"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def blas_threads_seen() -> dict:
    """Thread count that each OpenBLAS loaded in this process reports."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()})
    seen = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                seen[Path(path).name] = query()
                break
    return seen


def machine_block(seed: int, threads: int) -> dict:
    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_numpy": blas(np.show_config),
            "blas_scipy": blas(scipy.show_config),
            "blas_threads": threads,
            "blas_threads_seen": blas_threads_seen(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(), "seed": seed}


def digest(obj) -> str:
    """Hash of every array and number in a driver output, for bitwise
    comparison of two runs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


@dataclasses.dataclass
class PassResult:
    op_s: dict
    ref_s: dict
    errors: dict      # op -> check value
    failures: list    # (op, exception type or "accuracy")
    digests: dict
    matvecs: int      # products made through the trace ops' counting operators

    @property
    def busy_s(self) -> float:
        return sum(self.op_s.values()) + sum(self.ref_s.values())


def run_pass(workload, inputs, base: RngKey, index: int, refs: bool = True,
             check: bool = True, tracer: Tracer | None = None) -> PassResult:
    keys = Keys(base, index)
    result = PassResult({}, {}, {}, [], {}, 0)
    for op in workload.ops:
        if tracer is not None:
            tracer.op = (index, op.name)
        t0 = time.perf_counter()
        try:
            out = op.call(inputs, keys)
        except Exception as err:  # a failed driver call is counted, not fatal
            result.failures.append((op.name, type(err).__name__))
            continue
        result.op_s[op.name] = time.perf_counter() - t0
        if op.module == "trace":
            result.matvecs += out[1]
        if check:
            err = float(op.check(inputs, out))
            result.errors[op.name] = err
            if not err <= op.tol:
                result.failures.append((op.name, "accuracy"))
            result.digests[op.name] = digest(out)
        del out
    if tracer is not None:
        tracer.op = None
    if refs:
        for ref in workload.refs:
            t0 = time.perf_counter()
            ref.call(inputs)
            result.ref_s[ref.name] = time.perf_counter() - t0
    return result


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def _pass_sums(passes, names):
    sums = [sum(p.op_s[n] for n in names) for p in passes
            if all(n in p.op_s for n in names)]
    return sums


def summarize_timing(values) -> dict:
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "samples": values,
            "tail": None if tail is None else {"percentile": tail[0],
                                                "value": tail[1]}}


def measure(workload_name: str, seed: int, seconds: float, traced: bool,
            smoke: bool, threads: int, out_dir: Path) -> dict:
    wl = WORKLOADS[workload_name]
    size = wl.sizes["smoke" if smoke else "full"]
    base = RngKey(derive(wl.name, seed, "keys"))

    setup_s, gen_s = [], []
    for _ in range(SETUP_REPS):
        inputs = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        inputs, gen = wl.make_inputs(seed, size)
        warm = inputs if smoke else wl.make_inputs(seed, wl.sizes["smoke"])[0]
        run_pass(wl, warm, base, 0, check=False)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(gen)
        del warm

    plain, with_trace, spans = [], [], []

    def untraced_pass(index):
        plain.append(run_pass(wl, inputs, base, index, refs=not traced))

    def traced_pass(index):
        tracer = Tracer()
        with tracer:
            with_trace.append(run_pass(wl, inputs, base, index, refs=False,
                                       tracer=tracer))
        spans.append(tracer.spans)

    index = 0
    while index == 0 or sum(p.busy_s for p in plain + with_trace) < seconds:
        if not traced:
            untraced_pass(index)
        # a traced run alternates which of the pair goes first, so neither
        # side always meets the caches the other one left
        elif index % 2 == 0:
            untraced_pass(index)
            traced_pass(index)
        else:
            traced_pass(index)
            untraced_pass(index)
        index += 1

    all_passes = plain + with_trace
    attempted = len(all_passes) * len(wl.ops)
    failures = [(i % len(plain), op, kind) for i, p in enumerate(all_passes)
                for op, kind in p.failures]
    mismatched = sorted({op for p, q in zip(plain, with_trace)
                         for op in p.digests if p.digests[op] != q.digests.get(op)})

    op_names = [op.name for op in wl.ops]
    timings = {"pass_s": _pass_sums(plain, op_names)}
    for module in dict.fromkeys(op.module for op in wl.ops):
        timings[f"{module}_s"] = _pass_sums(
            plain, [op.name for op in wl.ops if op.module == module])
    for name in op_names:
        timings[f"op.{name}_s"] = [p.op_s[name] for p in plain if name in p.op_s]
    for ref in wl.refs:
        timings[f"ref.{ref.name}_s"] = [p.ref_s[ref.name] for p in plain
                                        if ref.name in p.ref_s]
    timings = {k: summarize_timing(v) for k, v in timings.items() if v}

    metrics = {k: t["median"] for k, t in timings.items()}
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["bench.gen_matrix_s"] = statistics.median(gen_s)
    metrics["failed_frac"] = len(failures) / attempted
    if not traced:
        ref_total = sum(metrics[f"ref.{r.name}_s"] for r in wl.refs)
        op_total = sum(metrics[f"op.{op}_s"] for r in wl.refs
                       for op in r.matches)
        metrics["speedup_vs_lapack"] = ref_total / op_total
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        per_pass = [layer_metrics(s) for s in spans]
        for name in per_pass[0]:
            if unit_of(name) in TIME_UNITS:
                metrics[name] = statistics.median(m[name] for m in per_pass)
            else:  # counts come from the first traced pass: fixed by the seed
                metrics[name] = per_pass[0][name]
        metrics["trace.matvecs"] = with_trace[0].matvecs
        traced_pass = statistics.median(_pass_sums(with_trace, op_names))
        metrics["trace_overhead_frac"] = traced_pass / metrics["pass_s"] - 1.0

    checks = {op.name: {"tol": op.tol,
                        "worst": max((p.errors[op.name] for p in all_passes
                                      if op.name in p.errors), default=None)}
              for op in wl.ops}
    result = {
        "workload": wl.name, "seed": seed, "traced": traced, "smoke": smoke,
        "machine": machine_block(seed, threads), "passes": len(plain),
        "metrics": metrics, "timings": timings, "checks": checks,
        "failures": [{"pass": p, "op": op, "kind": kind}
                     for p, op, kind in failures],
        "bitwise_mismatch": mismatched, "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and not mismatched,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(traced)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if traced:
        fields = ("layer", "name", "start_ns", "end_ns", "parent", "op",
                  "error", "count")
        with open(out_dir / f"{stem}-spans.jsonl", "w") as f:
            for index, pass_spans in enumerate(spans):
                for s in pass_spans:
                    f.write(json.dumps({"pass": index, **dict(zip(fields, s))})
                            + "\n")
    return result


def report_lines(result: dict) -> list:
    """Human-readable report: every metric by name and unit."""
    lines = [f"machine {json.dumps(result['machine'])}",
             f"workload {result['workload']} seed {result['seed']} "
             f"{'traced' if result['traced'] else 'untraced'} "
             f"passes {result['passes']}"]
    for name, value in result["metrics"].items():
        timing = result["timings"].get(name)
        extra = ""
        if timing is not None:
            tail = timing["tail"]
            extra = (f"  median of n={timing['n']}; " + (
                "no percentile has 10 samples beyond it" if tail is None else
                f"p{tail['percentile']:.0f}={tail['value']:.6g}"))
        lines.append(f"  {name:32s} {value:.6g} {unit_of(name)}{extra}")
    for op, c in result["checks"].items():
        lines.append(f"  check {op:24s} worst {c['worst']} tol {c['tol']}")
    for f in result["failures"]:
        lines.append(f"  FAILED pass {f['pass']} {f['op']}: {f['kind']}")
    if result["bitwise_mismatch"]:
        lines.append("  traced outputs differ from untraced: "
                     + ", ".join(result["bitwise_mismatch"]))
    return lines


def final_line(result: dict) -> str:
    names = PER_LAYER if result["traced"] else END_TO_END
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": unit_of(n)}
                    for n in names}})
