import json
import subprocess
import sys
from pathlib import Path

from test_cli import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_sweep.py"


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
