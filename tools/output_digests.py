"""SHA-256 of every output file of some checks over a set of seeds.

For each seed s, builds the configuration with master seed
20260809 + s (as ``verdict_sweep.py`` does), runs each check through
``runner.run`` into its own output directory and prints one line per file
written: ``seed check file digest``, in seed, check and file order. The
directories are temporary and removed afterwards. Two runs of the same
arguments on two checkouts and one ``diff`` of their output show whether a
change moved any report byte.

Usage (from the root of a checkout):

    python3 tools/output_digests.py [--config CONFIG.json] --checks CHECK ... --seeds S ...
    python3 tools/output_digests.py --workload NAME --seeds S ...

The arguments are those of ``verdict_sweep.py``: without ``--config``
the package defaults are used, and ``--workload`` reads the config and
the checks of a benchmark workload from ``perfbench/workloads.json``
(``--checks`` overrides its checks, e.g. ``--checks all``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from verdict_sweep import BASE_SEED, parse_args, resolve  # noqa: E402

from bpire_lab.config import RunConfig  # noqa: E402
from bpire_lab.runner import run  # noqa: E402


def digests(data: dict, checks, seeds) -> list:
    """(seed, check, file name, SHA-256) of every file each check writes."""
    rows = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for check in checks:
                out = os.path.join(tmp, check)
                run(check, RunConfig.from_dict(
                    {**data, "master_seed": BASE_SEED + seed, "out_dir": out}))
                for name in sorted(os.listdir(out)):
                    with open(os.path.join(out, name), "rb") as fh:
                        rows.append((seed, check, name, hashlib.sha256(fh.read()).hexdigest()))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv, __doc__.split("\n\n")[0])
    data, checks = resolve(args)
    for row in digests(data, checks, args.seeds):
        print(*row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
