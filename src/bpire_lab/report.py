"""Report records and figure-ready CSV emission.

Reports are pure functions of the run configuration: keys are sorted,
floats use their shortest round-trip representation, and every record
carries the seed and replica count that produced it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

VERSION = "0.1.0"


def _plain(value):
    # bool before int: a Python bool is an int and would be written as 0/1
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class TestRecord:
    """One verdict line: what was measured, against what, and how."""

    name: str
    statistic: float | None
    threshold: float | None
    verdict: bool | None
    seed: int
    replicas: int
    inputs: dict = field(default_factory=dict)
    detail: str = ""

    def to_dict(self) -> dict:
        return _plain(asdict(self))


@dataclass
class Report:
    subcommand: str
    config: dict
    records: list = field(default_factory=list)

    def extend(self, records) -> None:
        self.records.extend(records)

    @property
    def all_passed(self) -> bool:
        verdicts = [r.verdict for r in self.records if r.verdict is not None]
        return bool(verdicts) and all(verdicts)

    def to_json(self) -> str:
        payload = {
            "version": VERSION,
            "subcommand": self.subcommand,
            "config": _plain(self.config),
            "all_passed": self.all_passed,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        return path


def _cell(value) -> str:
    value = _plain(value)
    return value if isinstance(value, str) else repr(value)


def write_csv(out_dir: str, name: str, columns: dict, provenance: dict) -> str:
    """Write one figure-ready dataset with '#'-prefixed provenance lines."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    keys = list(columns)
    arrays = [np.asarray(columns[k]) for k in keys]
    length = len(arrays[0])
    with open(path, "w", encoding="utf-8") as fh:
        for k in sorted(provenance):
            fh.write(f"# {k} = {_plain(provenance[k])}\n")
        fh.write(",".join(keys) + "\n")
        for row in range(length):
            fh.write(",".join(_cell(a[row]) for a in arrays) + "\n")
    return path
