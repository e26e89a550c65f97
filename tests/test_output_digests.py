import hashlib
import json
import subprocess
import sys
from pathlib import Path

from bpire_lab.config import RunConfig
from bpire_lab.runner import run
from test_cli import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
BASE_SEED = 20260809  # the master seed of sweep seed 0, as in verdict_sweep.py


def test_output_digests_lists_every_file_of_each_check(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path)))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--config", str(cfg),
         "--checks", "validate-env", "arcsine", "--seeds", "0", "1"],
        capture_output=True, text=True, check=True)
    rows = [line.split(" ") for line in out.stdout.splitlines()]
    # one output directory per check, so each check's report.json is listed
    assert [row[:3] for row in rows] == [
        [seed, check, name] for seed in ("0", "1")
        for check, name in (("validate-env", "report.json"), ("arcsine", "arcsine_ecdf.csv"),
                            ("arcsine", "report.json"))]
    # each digest is that of the file runner.run writes for the seed
    direct = tmp_path / "direct"
    run("arcsine", RunConfig.from_dict(
        {**tiny_config(tmp_path), "master_seed": BASE_SEED + 1, "out_dir": str(direct)}))
    for row in rows[4:]:
        assert row[3] == hashlib.sha256((direct / row[2]).read_bytes()).hexdigest()
    assert rows[1][3] != rows[4][3]  # the seeds draw different samples
    # the runs write to temporary directories, not to the config's out_dir
    assert not (tmp_path / "out").exists()
