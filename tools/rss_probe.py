"""Peak resident memory of a run, stage by stage.

Builds the configuration as ``tools/verdict_sweep.py`` does (master seed
20260809 + N, so seed 0 is the package default), waits for the ladder
tables, then dispatches the checks in order on one ``Runner``. After
each stage it prints ``ru_maxrss`` of this process and of its reaped
children (the pool workers, which a check reaps before it returns), in
MB, and at the end names the stage that set each peak: the last stage
that raised it. CSVs go to a temporary directory that is removed
afterwards.

Usage (from the root of a checkout):

    python3 tools/rss_probe.py --workload NAME [--seed N] [--workers K]
    python3 tools/rss_probe.py [--config CONFIG.json] --checks CHECK ... [--seed N]

``--workload`` reads the config and the checks of a benchmark workload
from ``perfbench/workloads.json``, so ``--workload pareto-2w`` probes
that workload's seed-0 battery in one process. ``--workers K``
overrides the config's worker count, as the CLI's ``--workers`` does.
"""

from __future__ import annotations

import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bpire_lab.config import RunConfig  # noqa: E402
from bpire_lab.runner import Runner  # noqa: E402
from verdict_sweep import BASE_SEED, resolve, source_parser  # noqa: E402


def _maxrss_mb() -> tuple:
    """(this process, its reaped children): peak resident MB so far."""
    return tuple(resource.getrusage(who).ru_maxrss / 1024.0
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def probe(data: dict, checks, seed: int) -> list:
    """(stage, own peak MB, children's peak MB) after the start, the ladder
    tables and each check, in order."""
    rows = [("start", *_maxrss_mb())]
    with tempfile.TemporaryDirectory() as out:
        bench = Runner(RunConfig.from_dict({**data, "master_seed": BASE_SEED + seed,
                                            "out_dir": out}))
        bench.tables
        rows.append(("tables", *_maxrss_mb()))
        for check in checks:
            bench.dispatch(check)
            rows.append((check, *_maxrss_mb()))
    return rows


def peak_stages(rows) -> tuple:
    """The stage that set each peak (own, children): the last one that
    raised it; None for children that never ran."""
    setters = []
    for col in (1, 2):
        setter, best = None, 0.0
        for row in rows:
            if row[col] > best:
                setter, best = row[0], row[col]
        setters.append(setter)
    return tuple(setters)


def main(argv=None) -> int:
    parser = source_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (args.checks or args.workload):
        parser.error("--checks is required without --workload")
    data, checks = resolve(args)
    rows = probe(data, checks, args.seed)
    print(f"{'stage':<18}{'self_mb':>10}{'children_mb':>14}")
    for stage, own, kids in rows:
        print(f"{stage:<18}{own:>10.1f}{kids:>14.1f}")
    own_stage, kids_stage = peak_stages(rows)
    print(f"peak: self {rows[-1][1]:.1f} MB set by {own_stage}; "
          f"children {rows[-1][2]:.1f} MB set by {kids_stage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
