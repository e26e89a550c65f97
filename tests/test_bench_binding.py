"""Guard that the benchmark harness under ``perfbench/`` still binds to the
package: its battery's imports resolve, and its tracer installs and reads
the arguments of the functions it wraps.

The tracer patches module globals of the package, so the check runs in a
subprocess with ``src/`` and ``perfbench/`` on the path.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import sys

import numpy as np

# the imports of perfbench/battery.py
import bpire_lab
from bpire_lab import runner
from bpire_lab.conditioned import RejectionExhausted
from bpire_lab.bpire import SaturationError
from bpire_lab.ladder import LadderNonconvergence, save_ladder_tables
from bpire_lab.report import Report
from bpire_lab.streams import derive_stream
import tracing

tracer = tracing.install(sys.argv[1])
from bpire_lab import bpire

# the wrapped kernels still take the arguments the tracer reads by position
rng = np.random.default_rng(0)
bpire.simulate_normalized_at(bpire_lab.EnvironmentModel(), 4, (0.5, 1.0), 3, rng)
bpire.branch_generation(np.ones(2), np.zeros(2), np.zeros(2), rng)
attrs = {span[2]: span[5] for span in tracer.spans}
assert attrs["bpire.normalized"] == {"replica_gens": 12}, attrs
assert attrs["bpire.branch"] == {"live": 2, "log": 0}, attrs
print("bound")
"""


def test_benchmark_harness_binds_to_package(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "bound"
