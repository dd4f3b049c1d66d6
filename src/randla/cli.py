"""Command-line harness.

Subcommands: gen (synthesize a matrix to Matrix Market), run (any driver
from a full config), and the per-family shortcuts leverage, trace, lowrank,
lstsq, qrcp, bootstrap, which default the driver and accept the same config
schema.

Exit codes: 0 on success, 2 on configuration errors, 3 if every trial of an
experiment failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import scipy.io

from . import bench
from .bench import FAMILIES, ConfigError, ExperimentConfig, MatrixSpec


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return count


def _add_common(parser):
    parser.add_argument("--config", required=True,
                        help="path to a JSON config file")
    parser.add_argument("--seed", default=None,
                        help="override the config seed (decimal or 0x-hex)")
    parser.add_argument("--out", default=None,
                        help="output path (base name for run reports)")
    parser.add_argument("--parallel", type=_thread_count, default=1,
                        metavar="T",
                        help="run trials concurrently on T threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randla",
        description="randomized linear algebra benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic matrix")
    _add_common(gen)

    run = sub.add_parser("run", help="run an experiment config")
    _add_common(run)

    for name in FAMILIES:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        _add_common(p)
        p.add_argument("--driver", default=None,
                       help=f"driver within the {name} family")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return raw


def _experiment_from_args(args) -> ExperimentConfig:
    raw = _load_json(args.config)
    if args.command in FAMILIES:
        allowed = tuple(FAMILIES[args.command])
        driver = args.driver or raw.get("driver") or allowed[0]
        if driver not in allowed:
            raise ConfigError(f"driver {driver!r} is not in the "
                              f"{args.command} family {allowed}")
        raw = dict(raw, driver=driver)
    if args.seed is not None:
        raw = dict(raw, seed=args.seed)
    if args.out is not None:
        raw = dict(raw, out=args.out)
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            raw = _load_json(args.config)
            matrix = raw.get("matrix",
                             {k: v for k, v in raw.items() if k != "out"})
            if args.seed is not None:
                matrix = dict(matrix, seed=args.seed)
            spec = MatrixSpec.from_dict(matrix)
            out = args.out or raw.get("out")
            if not out:
                raise ConfigError("gen needs --out (or 'out' in the config)")
            A = bench.gen_matrix(spec)
            scipy.io.mmwrite(out, A)
            print(f"wrote {spec.m}x{spec.n} matrix to {out}")
            return 0

        config = _experiment_from_args(args)
        rows, summary = bench.run_experiment(config, parallel=args.parallel)
        print(json.dumps(summary, indent=2, sort_keys=True))
        if config.trials > 0 and summary["completed"] == 0:
            return 3
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
