import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_sweep.py"
WORKLOADS = TOOL.parent.parent / "perfbench" / "workloads.json"


def _tool():
    spec = importlib.util.spec_from_file_location("verdict_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_sweep_maps_failed_verdicts_to_seeds(tmp_path):
    # a four-step walk cannot match the continuous arcsine law at any seed,
    # while the default model passes validate-env
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path, n_walk=4)))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--config", str(cfg),
         "--checks", "validate-env", "arcsine", "--seeds", "0", "1"],
        capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"arcsine/ks": [0, 1]}
    assert out.stdout.count("\n") == 1
    # the runs write to a temporary directory, not to the config's out_dir
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["pareto-2w", "limit-law"])
def test_verdict_sweep_reads_benchmark_workload(name):
    # --workload takes the workload's config and checks as the benchmark
    # has them, without running a check
    tool = _tool()
    spec = json.loads(WORKLOADS.read_text())["workloads"][name]
    args = tool.argparse.Namespace(workload=name, config=None, checks=None, seeds=[0])
    assert tool.resolve(args) == (spec["config"], spec["checks"])
    args.checks = ["lemma5"]
    assert tool.resolve(args) == (spec["config"], ["lemma5"])


def test_verdict_sweep_needs_checks_or_workload(tmp_path):
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "--checks is required" in out.stderr
    out = subprocess.run([sys.executable, str(TOOL), "--workload", "pareto-2w",
                          "--config", str(tmp_path / "c.json"), "--seeds", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "not allowed with argument" in out.stderr
