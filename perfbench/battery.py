"""One benchmark rep in a fresh process: set up, run the checks, write.

Usage: ``python3 perfbench/battery.py JOB.json RESULT.json``

``JOB.json`` holds ``root`` (checkout root), ``config`` (a ``RunConfig``
dict), ``checks`` (subcommands, dispatched in order on one ``Runner``),
``mode`` (``full`` or ``setup``: stop once the ladder tables are ready)
and ``trace_dir`` (null, or a directory for spans). The result file gets
the clock readings at tables-ready and at report-written, every record's
name, statistic and verdict, the check exceptions, and the process's
CPU time and peak RSS with those of its children.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _rusage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import bpire_lab  # imports every module the tracer patches
    from bpire_lab import runner
    from bpire_lab.conditioned import RejectionExhausted
    from bpire_lab.bpire import SaturationError
    from bpire_lab.ladder import LadderNonconvergence, save_ladder_tables
    from bpire_lab.report import Report
    from bpire_lab.streams import derive_stream

    sampler_errors = (RejectionExhausted, LadderNonconvergence, SaturationError)
    out = {"pid": os.getpid(),
           "bit_generator": type(derive_stream(0, 0, "probe").bit_generator).__name__,
           "records": [], "errors": []}
    tracer = None
    if job["trace_dir"]:
        import tracing
        tracer = tracing.install(job["trace_dir"])

    cfg = bpire_lab.RunConfig.from_dict(job["config"])
    bench = runner.Runner(cfg)
    try:
        bench.tables
    except sampler_errors as exc:
        out["setup_error"] = f"{type(exc).__name__}: {exc}"
    out["t_ready"] = time.perf_counter()

    if job["mode"] == "full" and "setup_error" not in out:
        # the echo omits execution-only fields, as runner.run does
        echo = {k: v for k, v in cfg.to_dict().items() if k not in ("workers", "out_dir")}
        report = Report(subcommand=job["subcommand"], config=echo)
        for check in job["checks"]:
            try:
                records = bench.dispatch(check)
            except sampler_errors as exc:
                out["errors"].append({"check": check, "sampler": True,
                                      "error": f"{type(exc).__name__}: {exc}"})
            except Exception:  # a crashed check is counted, not fatal
                out["errors"].append({"check": check, "sampler": False,
                                      "error": traceback.format_exc()})
            else:
                report.extend(records)
                out["records"] += [
                    {"check": check, "name": r.name, "verdict": r.verdict,
                     "statistic": r.statistic}
                    for r in records
                ]
        os.makedirs(cfg.out_dir, exist_ok=True)
        save_ladder_tables(bench.tables, os.path.join(cfg.out_dir, "ladder_tables.txt"))
        report.write(cfg.out_dir)
        out["t_done"] = time.perf_counter()

    if tracer is not None:
        spans = tracer.collect()
        with open(os.path.join(job["trace_dir"], "spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        out["layers"] = tracing.layer_metrics(spans, runner.SUBCOMMANDS[:-1],
                                              tracer.overflow_warnings)
    out.update(_rusage())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
