"""`pc` command line: batch experiment runner plus small estimation and
tail-table utilities.  Exit codes: 0 success, 1 assertion failure, 2 bad
configuration or input.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .complexity import EstimatorConfig, bernoulli_complexity, gaussian_complexity
from .config import parse_config
from .core import ESTIMATE_CSV_HEADER, pointset_from_csv
from .errors import ConfigError, ToolkitError
from .experiments import run_experiment
from .tails import tail_series, tail_series_capped, u_grid


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("u-grid must look like a:b:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"u-grid values must be numeric ({exc})") from exc
    return [round(u, 12) for u in u_grid(start, stop, step)]


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    return run_experiment(cfg)


def _cmd_tails(args) -> int:
    # every row before the header, so a failing call leaves stdout empty
    rows = [[repr(u), repr(tail_series(u, args.w)), repr(tail_series_capped(u, args.w))]
            for u in _parse_grid(args.u_grid)]
    writer = csv.writer(sys.stdout)
    writer.writerow(["u", "p", "q"])
    writer.writerows(rows)
    return 0


def _cmd_estimate(args) -> int:
    T = pointset_from_csv(args.input, k=args.k)
    mode = "exact" if args.exact else ("monte-carlo" if args.mc is not None else "auto")
    cfg = EstimatorConfig(
        mode=mode,
        mc_samples=args.mc if args.mc is not None else 20000,
        seed=args.seed,
        exact_cutoff_n=args.exact_cutoff,
    )
    if args.quantity == "b":
        est = bernoulli_complexity(T, cfg)
    else:
        est = gaussian_complexity(T, cfg)
    writer = csv.writer(sys.stdout)
    writer.writerow(ESTIMATE_CSV_HEADER)
    writer.writerow(est.csv_row(args.quantity))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pc",
        description="complexity, chaining and tail-bound experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_tails = sub.add_parser("tails", help="print a (u, p, q) tail table as CSV")
    p_tails.add_argument("--w", type=int, default=0, help="series offset (default 0)")
    p_tails.add_argument("--u-grid", default="1.7:4.0:0.1",
                         help="grid a:b:step (default 1.7:4.0:0.1)")
    p_tails.set_defaults(func=_cmd_tails)

    p_est = sub.add_parser("estimate", help="estimate b or g for a point-set CSV")
    p_est.add_argument("--input", required=True, help="point-set CSV path")
    p_est.add_argument("--quantity", required=True, choices=("b", "g"))
    mode = p_est.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="force exact enumeration")
    mode.add_argument("--mc", type=int, metavar="N", help="force Monte Carlo with N samples")
    p_est.add_argument("--seed", type=int, default=42)
    p_est.add_argument("--k", type=int, default=1,
                       help="ambient dimension of the stored elements (default 1)")
    p_est.add_argument("--exact-cutoff", type=int, default=14,
                       help="max sign count for exact enumeration, at most 20 (default 14)")
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
