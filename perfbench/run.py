"""Benchmark of randla's drivers: one workload per run, one closed loop.

    python3 perfbench/run.py --workload tall_skinny --seed 1 --seconds 20 --trace 0

``--trace 0`` times the driver calls untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced passes with passes traced through
wrappers around the library's public entry points and prints the per-layer
metrics.  ``--smoke`` runs reduced sizes.  The last line of standard output
is one JSON object; a full report goes to ``.perfbench/`` under the current
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def pin_blas_threads(threads: int):
    """Pin every BLAS to ``threads`` threads; numpy must not be loaded yet."""
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= threads <= nproc:
        raise SystemExit(f"BLAS thread pin {threads} is outside [1, nproc={nproc}]")
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tall_skinny", "square_lowrank", "many_probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (for the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(BLAS_THREADS)
    if not (SRC / "randla" / "__init__.py").is_file():
        raise SystemExit(f"randla sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import randla
    if Path(randla.__file__).resolve().parent != SRC / "randla":
        raise SystemExit(f"imported randla from {randla.__file__}, not {SRC}")
    from measure import blas_threads_seen, final_line, measure, report_lines

    seen = blas_threads_seen()
    if any(n != BLAS_THREADS for n in seen.values()):
        raise SystemExit(f"BLAS thread pin {BLAS_THREADS} did not take: {seen}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, BLAS_THREADS, Path.cwd() / ".perfbench")
    for line in report_lines(result):
        print(line)
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
