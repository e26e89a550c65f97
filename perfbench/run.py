"""Time to verdict of the bpire-lab verifier, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each rep is a fresh ``python3 perfbench/battery.py`` process that imports
``bpire_lab`` from ``src/``, builds the workload's ``RunConfig`` with
master seed ``20260809 + N`` (so seed 0 is the package default), waits
for the ladder tables, dispatches the workload's checks in order on one
``Runner`` and writes ``report.json``, the CSVs and the ladder tables as
``runner.run`` does. Reps repeat until ``S`` seconds have been spent
(at least one; a rep is started only if it should end within 10% past
``S``); set-up alone is then repeated until three set-ups have been
timed. Every time is the median over the run's reps: on a shared host
the speed swings by tens of percent within a minute or two, so a run
measures a whole window of reps rather than one battery. With
``--trace 1`` every other rep is traced (``tracing.py``) and the
per-layer metrics of the traced reps are printed instead of the
end-to-end ones; the tracing overhead is the median traced minus the
median untraced verdict time of the run.

Every rep is checked: each expected record is present with a finite
statistic, no check raised, and ``report.json`` is byte-identical to
that of every other rep of the same source tree, workload and seed,
including reps of earlier runs in this checkout. A check that fails any
of this counts as a failed operation. Statistical verdicts are the
program's output, not the benchmark's: their ``fail_share`` (failed
verdicts plus verdicts lost to a sampler exception, over the verdicts
the seed commit returns) is printed with every run and is the per-layer
metric ``runner.fail_share``.

The last line of standard output is the result; the line before it
holds the machine facts and every rep's measurements, which are also
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_SEED = 20260809
SETUPS_PER_RUN = 3
OVERRUN = 1.1  # a rep is started if it should end within 10% past --seconds
HARD_LIMIT_S = 150.0  # no rep starts that could end after this


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_fingerprint(root: str) -> str:
    pkg = os.path.join(root, "src", "bpire_lab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


class RunStore:
    """The report.json digest that earlier runs in this checkout saw, by
    (source tree, workload, config, seed)."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
        self.digests = data.get("digests", {})

    def check(self, key: str, digest: str) -> bool:
        """True when ``digest`` matches what was seen before (or is new)."""
        seen = self.digests.setdefault(key, digest)
        return seen == digest

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"digests": self.digests}, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def run_rep(root, out_base, index, spec, config, mode, traced, deadline) -> dict:
    """One battery process; returns its result plus the spawn-relative times."""
    rep_dir = os.path.join(out_base, f"rep{index}")
    trace_dir = os.path.join(out_base, f"trace{index}") if traced else None
    for d in filter(None, (rep_dir, trace_dir)):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    job = {"root": root, "checks": spec["checks"], "subcommand": spec["subcommand"],
           "mode": mode, "trace_dir": trace_dir,
           "config": dict(config, out_dir=os.path.join(rep_dir, "out"))}
    job_path = os.path.join(rep_dir, "job.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    rep = {"index": index, "mode": mode, "traced": traced}
    with open(os.path.join(rep_dir, "stderr.txt"), "w", encoding="utf-8") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "battery.py"), job_path, result_path],
            stdout=subprocess.DEVNULL, stderr=err, cwd=root)
        try:
            code = proc.wait(timeout=max(5.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    rep["wall_s"] = time.perf_counter() - t_spawn
    if code != 0 or not os.path.exists(result_path):
        rep["error"] = f"battery exit {code}; see {err.name}"
        return rep
    with open(result_path, encoding="utf-8") as fh:
        out = json.load(fh)
    rep.update(out)
    if "setup_error" not in out:
        rep["setup_s"] = out["t_ready"] - t_spawn
    if "t_done" in out:
        rep["verdict_s"] = out["t_done"] - out["t_ready"]
        with open(os.path.join(job["config"]["out_dir"], "report.json"), "rb") as fh:
            rep["report_sha256"] = _sha256(fh.read())
    return rep


def _well_formed(record) -> bool:
    """A finite statistic, or none; an infinite one only on a failed verdict.

    The martingale checks return an infinite sigma distance for a
    degenerate sample off target and fail it; that is a verdict, not a
    malformed record. NaN is always malformed.
    """
    stat = record["statistic"]
    if stat is None or math.isfinite(stat):
        return True
    return math.isinf(stat) and record["verdict"] is False


def judge(rep, spec, store, store_key) -> None:
    """Mark each check of a full rep as passed or failed (in place)."""
    checks = spec["checks"]
    expected = spec["records"]
    if "error" in rep or "setup_error" in rep:
        rep["failed_checks"] = list(checks)
        rep["passed_verdicts"] = 0
        rep["failed_verdicts"] = []
        return
    seen = {r["name"]: r for r in rep["records"]}
    crashed = {e["check"] for e in rep["errors"]}
    failed = []
    for check in checks:
        names = expected[check]
        if (check in crashed or any(n not in seen for n in names)
                or not all(_well_formed(seen[n]) for n in names)):
            failed.append(check)
    rep["deterministic"] = store.check(store_key, rep["report_sha256"])
    if not rep["deterministic"]:
        failed = list(checks)
    rep["failed_checks"] = failed
    rep["passed_verdicts"] = sum(1 for r in rep["records"] if r["verdict"] is True)
    rep["failed_verdicts"] = sorted(r["name"] for r in rep["records"] if r["verdict"] is False)


def run_workload(root, name, spec, seed, seconds, trace, out_root, metric_units) -> tuple:
    """Run one workload; returns (result line, detail record)."""
    t0 = time.perf_counter()
    deadline_hard = t0 + HARD_LIMIT_S
    facts = machine_facts()
    config = dict(spec["config"], master_seed=BASE_SEED + int(seed))
    out_base = os.path.join(out_root, name)
    os.makedirs(out_base, exist_ok=True)
    store = RunStore(os.path.join(out_root, "store.json"))
    store_key = "|".join([source_fingerprint(root), name,
                          _sha256(json.dumps(config, sort_keys=True).encode()), str(seed)])

    reps = []
    # A traced run alternates untraced and traced reps, so that the tracing
    # overhead compares reps from the same stretch of machine time.
    modes = [False, True] if trace else [False]
    while True:
        traced = modes[len(reps) % len(modes)]
        rep = run_rep(root, out_base, len(reps), spec, config, "full", traced,
                      deadline_hard + 25.0)
        judge(rep, spec, store, store_key)
        reps.append(rep)
        if len(reps) < len(modes):
            continue
        now = time.perf_counter()
        typical = statistics.median(r["wall_s"] for r in reps)
        if now + typical > t0 + OVERRUN * seconds or now + 1.5 * typical > deadline_hard:
            break
    setups = [r["setup_s"] for r in reps if not r["traced"] and "setup_s" in r]
    if not trace:
        while len(setups) < SETUPS_PER_RUN:
            est = max(setups, default=5.0) * 1.5
            if time.perf_counter() + est > deadline_hard:
                break
            rep = run_rep(root, out_base, len(reps), spec, config, "setup", False,
                          deadline_hard + 25.0)
            reps.append(rep)
            if "setup_s" not in rep:
                break
            setups.append(rep["setup_s"])
    store.save()

    full = [r for r in reps if r["mode"] == "full"]
    plain = [r for r in full if not r["traced"] and "verdict_s" in r]
    traced_reps = [r for r in full if r["traced"] and "layers" in r]
    attempted = len(full) * len(spec["checks"])
    failed = sum(len(r["failed_checks"]) for r in full)
    failed += sum(1 for r in reps if r["mode"] == "setup" and ("error" in r or "setup_error" in r))
    verdicts = spec["seed_commit"]["verdicts"]
    done = traced_reps if trace else plain
    correct = failed == 0 and bool(done)

    def med(values):
        return statistics.median(values) if values else 0.0

    # failed verdicts, and verdicts lost to a check that raised, over the
    # verdicts the seed commit returns
    fail_share = med([1.0 - r["passed_verdicts"] / verdicts for r in done])
    if trace:
        values = {"trace.overhead_s": (med([r["verdict_s"] for r in traced_reps])
                                       - med([r["verdict_s"] for r in plain])),
                  "runner.fail_share": fail_share}
        for key in metric_units:
            if key not in values:
                values[key] = med([r["layers"][key] for r in traced_reps])
    else:
        values = {
            "setup_s": med(setups),
            "verdict_s": med([r["verdict_s"] for r in plain]),
            "cpu_s": med([r["cpu_s"] for r in plain]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
        }
    metrics = {k: {"value": values[k], "unit": metric_units[k]} for k in metric_units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    bitgen = sorted({r["bit_generator"] for r in reps if "bit_generator" in r})
    detail = {
        "workload": name, "seed": int(seed), "master_seed": config["master_seed"],
        "seconds": seconds, "trace": int(trace),
        "machine": dict(facts, bit_generator=bitgen),
        "setups_s": setups,
        "fail_share": fail_share,
        "failed_verdicts": done[0]["failed_verdicts"] if done else None,
        "reps": [{k: v for k, v in r.items() if k not in ("records", "t_ready", "t_done")}
                 for r in reps],
    }
    with open(os.path.join(out_base, f"result-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bpire_lab", "runner.py")):
        _fail(f"no bpire_lab sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    result, detail = run_workload(ROOT, args.workload, workloads[args.workload], args.seed,
                                  args.seconds, bool(args.trace),
                                  os.path.join(ROOT, ".perfbench_out"), units)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
