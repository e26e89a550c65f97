"""Failed verdicts of some checks over a set of seeds.

For each seed s, builds the configuration with master seed
20260809 + s (so seed 0 is the package default, as in
``perfbench/run.py``), dispatches the checks in order on one ``Runner``
and collects the records whose verdict is false. CSVs go to a temporary
directory that is removed afterwards.

Usage (from the root of a checkout):

    python3 tools/verdict_sweep.py [--config CONFIG.json] --checks CHECK ... --seeds S ...
    python3 tools/verdict_sweep.py --workload NAME --seeds S ...

Without ``--config`` the package defaults are used. ``--workload`` reads
the config and the checks of a benchmark workload from
``perfbench/workloads.json``, so ``--workload pareto-2w --seeds 0 1 2 3
4 5 6 7 8 9`` gives the failed verdicts of that workload's BENCH seeds
(``--checks`` overrides its checks). Prints one JSON line
that maps each failed verdict to the seeds at which it failed, e.g.
``{"lemma5/eq-negative": [2]}``; ``{}`` when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bpire_lab.config import RunConfig  # noqa: E402
from bpire_lab.runner import Runner  # noqa: E402

BASE_SEED = 20260809
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def resolve(args) -> tuple:
    """The config dict and the checks that the arguments name."""
    data, checks = {}, args.checks
    if args.workload:
        with open(WORKLOADS, encoding="utf-8") as fh:
            spec = json.load(fh)["workloads"][args.workload]
        data, checks = spec["config"], checks or spec["checks"]
    elif args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    return data, checks


def sweep(data: dict, checks, seeds) -> dict:
    """Failed verdict name -> the seeds at which it failed, in seed order."""
    failed: dict = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            bench = Runner(RunConfig.from_dict(
                {**data, "master_seed": BASE_SEED + seed, "out_dir": out}))
            for check in checks:
                for rec in bench.dispatch(check):
                    if rec.verdict is False:
                        failed.setdefault(rec.name, []).append(seed)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="a RunConfig JSON file (default: package defaults)")
    source.add_argument("--workload", help="a workload of perfbench/workloads.json")
    parser.add_argument("--checks", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    if not (args.checks or args.workload):
        parser.error("--checks is required without --workload")
    data, checks = resolve(args)
    print(json.dumps(sweep(data, checks, args.seeds), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
