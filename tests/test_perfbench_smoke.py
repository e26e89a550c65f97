"""The benchmark's own smoke test, run as part of the suite, so that a
rename in the package that breaks the harness under ``perfbench/`` fails
here. It runs every workload once untraced and once traced at tiny
replica counts, and writes only under the git-ignored ``.perfbench_out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/test_smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("ok")
