import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_probe.py"


def _tool():
    spec = importlib.util.spec_from_file_location("rss_probe", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rss_probe_prints_each_stage_and_the_peak(tmp_path):
    # two workers, so the checks' pools leave reaped children behind
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path, workers=2)))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--config", str(cfg), "--checks", "arcsine", "lemma5"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["stage", "self_mb", "children_mb"]
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == ["start", "tables", "arcsine", "lemma5"]
    for col in (1, 2):  # high-water marks never fall
        marks = [float(row[col]) for row in rows]
        assert marks == sorted(marks) and marks[-1] > 0.0
    stages = "(start|tables|arcsine|lemma5)"
    assert re.fullmatch(rf"peak: self [\d.]+ MB set by {stages}; "
                        rf"children [\d.]+ MB set by {stages}", lines[-1])
    # the run writes to a temporary directory, not to the config's out_dir
    assert not (tmp_path / "out").exists()


def test_rss_probe_workers_override(tmp_path):
    # --workers 1 runs a two-worker config's blocks in this process, so no
    # stage leaves a reaped child
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(tmp_path, workers=2)))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--config", str(cfg), "--checks", "arcsine", "lemma5",
         "--workers", "1"], capture_output=True, text=True, check=True)
    rows = [line.split() for line in out.stdout.splitlines()[1:-1]]
    assert [row[0] for row in rows] == ["start", "tables", "arcsine", "lemma5"]
    assert all(float(row[2]) == 0.0 for row in rows)
    assert out.stdout.splitlines()[-1].endswith("children 0.0 MB set by None")


def test_peak_stage_is_the_last_that_raised_it():
    tool = _tool()
    rows = [("start", 50.0, 0.0), ("tables", 100.0, 0.0), ("a", 100.0, 40.0),
            ("b", 120.0, 40.0), ("c", 120.0, 60.0)]
    assert tool.peak_stages(rows) == ("b", "c")
    assert tool.peak_stages(rows[:2]) == ("tables", None)
