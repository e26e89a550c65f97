"""Guard that the benchmark harness under ``perfbench/`` still binds to the
package: its battery's imports resolve, and its tracer installs and reads
the arguments of the functions it wraps.

The tracer patches module globals of the package, so the check runs in a
subprocess with ``src/`` and ``perfbench/`` on the path.
"""

import json
import os
import subprocess
import sys

from bpire_lab.config import RunConfig

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

# every other wrapper whose attrs read an argument or a result: called
# once each, its span's attrs checked against the call
import os
from bpire_lab import conditioned, ladder, limit, report, stats, walk
from bpire_lab.config import RunConfig


def traced(name, fn, *args, **kwargs):
    # the call's result and the attrs of its outermost span ``name``,
    # which closes after any nested span of the same name
    start = len(tracer.spans)
    result = fn(*args, **kwargs)
    return result, [s[5] for s in tracer.spans[start:] if s[2] == name][-1]


model = bpire_lab.EnvironmentModel()
tables, got = traced("ladder", ladder.estimate_ladder_tables, model, rng, budget=1000)
meta = tables.meta
assert got == {"walkers": meta["walkers"], "epochs": meta["epochs_desc"] + meta["epochs_asc"],
               "capped_frac_desc": meta["capped_frac_desc"],
               "capped_frac_asc": meta["capped_frac_asc"]}, got
assert got["walkers"] > 0 and got["epochs"] >= 1000, got
_, got = traced("conditioned", conditioned.sample_conditioned_batch,
                model, 5, "rejection", 7, rng, "positive")
assert got == {"paths": 7, "horizon": 5}, got
_, got = traced("limit.gamma", limit.sample_gamma_batch, model, 2, 2, reps=3, rng=rng,
                tables=tables)
assert got == {"reps": 3}, got
_, got = traced("limit.level_change", limit.estimate_level_change_prob,
                2.0, 0.5, 0.5, 1.0, 0.25, 6, rng)
assert got == {"steps": 24}, got
_, got = traced("walk.matrix", walk.simulate_walk_matrix, model, 4, 5, rng)
assert got == {"steps": 20}, got
_, got = traced("stats.ks", stats.ks_two_sample, np.zeros(3), np.ones(4))
assert got == {"points": 7}, got
_, got = traced("stats.ks", stats.ks_against_cdf, np.linspace(0.1, 0.9, 5), lambda v: v)
assert got == {"points": 5}, got
path, got = traced("report.csv", report.write_csv, os.path.join(sys.argv[1], "csv"), "t.csv",
                   {"a": [1, 2]}, {"seed": 0})
assert got == {"bytes": os.path.getsize(path)} and got["bytes"] > 0, got
_, got = traced("env.draw_x", model.draw_x, rng, (2, 3))
assert got == {"variates": 6}, got
cfg = RunConfig(out_dir=os.path.join(sys.argv[1], "out"))
_, got = traced("runner.dispatch", runner.Runner(cfg).dispatch, "validate-env")
assert got == {"check": "validate-env"}, got
print("bound")
"""


def test_benchmark_harness_binds_to_package(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "bound"


def test_workload_configs_build():
    # every workload config of the benchmark is a valid RunConfig that
    # keeps each field and replica count it names
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    assert workloads
    for spec in workloads.values():
        named = spec["config"]
        cfg = RunConfig.from_dict(named).to_dict()
        for key, value in named.items():
            if key == "replicas":
                assert {k: cfg[key][k] for k in value} == value
            else:
                assert cfg[key] == value
