"""Smoke test of the benchmark at tiny replica counts.

Runs every workload once untraced and once traced with 200 replicas per
check, and checks that the result line carries exactly the metrics
``BENCHMARK.json`` names, each with its unit, and that the benchmark
refuses to run without the package sources.

    python3 -m pytest -q perfbench/test_smoke.py    # or
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from bpire_lab.config import DEFAULT_REPLICAS  # noqa: E402

OUT = os.path.join(run.ROOT, ".perfbench_out", "smoke")
TINY = {"replicas": {k: 200 for k in DEFAULT_REPLICAS}, "ladder_budget": 1000}


def _load():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    return bench, workloads


def test_every_metric_is_emitted_with_its_unit():
    bench, workloads = _load()
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    for name, spec in workloads.items():
        tiny = dict(spec, config=dict(spec["config"], **TINY))
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            units = {m["name"]: m["unit"] for m in bench[kind]}
            result, detail = run.run_workload(run.ROOT, name, tiny, 0, 0.0, trace, OUT, units)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, trace, detail["reps"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == set(units), (name, kind)
            for key, metric in result["metrics"].items():
                assert metric["unit"] == units[key]
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
            assert all(r.get("deterministic", True) for r in detail["reps"])


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limit-law", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    test_refuses_to_run_without_sources()
    test_every_metric_is_emitted_with_its_unit()
    print("ok")
