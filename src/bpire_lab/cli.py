"""Command-line entry point.

Usage: bpire-lab <subcommand> [--config PATH] [--seed N] [--workers K]
[--out DIR]. Exit codes: 0 when every verdict passed, 1 when any test
failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from .conditioned import RejectionExhausted
from .config import ConfigError, RunConfig
from .ladder import LadderNonconvergence
from .runner import SUBCOMMANDS, run

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpire-lab",
        description=(
            "Monte Carlo verification runs for the critical branching "
            "process with immigration in random environment"
        ),
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS,
                        help="which verification suite to run")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the master seed")
    parser.add_argument("--workers", type=int, metavar="K",
                        help="override the worker count")
    parser.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.workers is not None:
            cfg.workers = args.workers
        if args.out is not None:
            cfg.out_dir = args.out
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    started = time.time()
    try:
        report = run(args.subcommand, cfg)
    except (RejectionExhausted, LadderNonconvergence) as exc:
        print(f"sampler failure in {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - started

    for rec in report.records:
        if rec.verdict is None:
            continue
        status = "PASS" if rec.verdict else "FAIL"
        stat = "" if rec.statistic is None else f" statistic={rec.statistic:.5g}"
        thr = "" if rec.threshold is None else f" threshold={rec.threshold:g}"
        print(f"{status} {rec.name}{stat}{thr}")
    print(f"report written to {cfg.out_dir}/report.json ({elapsed:.1f}s)")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
