"""Span tracing of bpire_lab from outside the package.

``install`` replaces public functions of the package with wrappers that
record one span (name, start, end, parent, attributes) per call. The
package imports several of these functions by name (``runner`` and
``limit`` bind ``branch_generation``, the samplers and the stream
derivation at import time), so every ``bpire_lab`` module namespace that
holds the original object gets the wrapper, not only the defining one.

Spans are kept in memory. Block work that a process pool runs in forked
children is traced there too: the wrapped ``runner._run_block`` appends
the child's spans to a file in the trace directory after each block, and
``collect`` merges them with the parent's spans. Span ids carry the pid,
and times come from ``time.perf_counter`` (a system-wide monotonic clock
on Linux), so spans of all processes share one timeline.

``layer_metrics`` turns a span list into the per-layer metrics named in
``BENCHMARK.json``. A span's self time is its duration minus the part of
it covered by its children (the union of their intervals, so concurrent
children in pool workers are not counted twice), minus the time the
tracer spent computing that child's attributes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import warnings

import numpy as np

_PACKAGE = "bpire_lab"


class Tracer:
    """In-memory span recorder shared by all installed wrappers."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.overhead: dict = {}
        self.overflow_warnings = 0
        self._next = 0
        self._owner = self.pid
        self._showwarning = warnings.showwarning

    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}.{self._next}"

    def wrap(self, name, fn, attrs=None):
        """Wrapper of ``fn`` recording span ``name``.

        ``attrs(args, kwargs, result)`` returns counts for the span; it
        runs after the span closes and its cost is charged to the tracer,
        not to the enclosing layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   {"error": type(exc).__name__}))
                raise
            end = time.perf_counter()
            self.stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            if parent is not None:
                self.overhead[parent] = (self.overhead.get(parent, 0.0)
                                         + time.perf_counter() - end)
            self.spans.append((sid, parent, name, start, end, extra))
            return result

        return traced

    def count_warning(self, message, category, *rest, **kwargs):
        if issubclass(category, RuntimeWarning) and "overflow" in str(message):
            self.overflow_warnings += 1
        else:
            self._showwarning(message, category, *rest, **kwargs)

    def enter_process(self) -> None:
        """Forget spans a forked worker inherited; keep the open-span stack
        so the worker's spans hang under the span that forked it."""
        if os.getpid() != self._owner:
            self._owner = os.getpid()
            self.spans = []
            self.overhead = {}
            self.overflow_warnings = 0

    def flush_child(self) -> None:
        """Append a forked worker's spans to its own file, then forget them."""
        path = os.path.join(self.trace_dir, f"child-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(_span_dict(span, self.overhead)) + "\n")
            fh.write(json.dumps({"overflow_warnings": self.overflow_warnings}) + "\n")
        self.spans = []
        self.overhead = {}
        self.overflow_warnings = 0

    def collect(self) -> list:
        """Parent spans plus every span flushed by forked workers."""
        out = [_span_dict(s, self.overhead) for s in self.spans]
        for fname in sorted(os.listdir(self.trace_dir)):
            if not fname.startswith("child-"):
                continue
            with open(os.path.join(self.trace_dir, fname), encoding="utf-8") as fh:
                for line in fh:
                    item = json.loads(line)
                    if "overflow_warnings" in item:
                        self.overflow_warnings += item["overflow_warnings"]
                    else:
                        out.append(item)
        return out


def _span_dict(span, overhead) -> dict:
    sid, parent, name, start, end, attrs = span
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "attrs": attrs, "overhead": overhead.get(sid, 0.0)}


# ---------------------------------------------------------------------------
# attribute functions: counts taken from a call's inputs and result


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _branch_attrs(bpire):
    cap = bpire.EXACT_CAP
    margin = bpire._NB_DRAW_MARGIN

    def attrs(args, kwargs, result):
        c_lin = np.asarray(_arg(args, kwargs, 0, "c_lin"), dtype=float)
        c_log = np.asarray(_arg(args, kwargs, 1, "c_log"), dtype=float)
        x = np.asarray(_arg(args, kwargs, 2, "x"), dtype=float)
        live = c_lin > 0.0
        exact = (c_lin <= cap) & (c_log + x <= margin)
        return {"live": int(live.sum()), "log": int((live & ~exact).sum())}

    return attrs


def _normalized_attrs(args, kwargs, result):
    n = int(_arg(args, kwargs, 1, "n"))
    ts = np.asarray(_arg(args, kwargs, 2, "ts"), dtype=float)
    reps = int(_arg(args, kwargs, 3, "reps"))
    return {"replica_gens": reps * int(np.floor(n * ts).max())}


def _conditioned_attrs(args, kwargs, result):
    return {"paths": int(_arg(args, kwargs, 3, "reps")),
            "horizon": int(_arg(args, kwargs, 1, "n"))}


def _gamma_attrs(args, kwargs, result):
    return {"reps": int(_arg(args, kwargs, 4, "reps"))}


def _level_change_attrs(args, kwargs, result):
    t2 = float(_arg(args, kwargs, 3, "t2"))
    delta = float(_arg(args, kwargs, 4, "delta"))
    reps = int(_arg(args, kwargs, 5, "reps"))
    return {"steps": reps * int(np.ceil(t2 / delta))}


def _draw_x_attrs(args, kwargs, result):
    return {"variates": int(np.size(result))}


def _walk_matrix_attrs(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 1, "n")) * int(_arg(args, kwargs, 2, "reps"))}


def _ks_attrs(args, kwargs, result):
    return {"points": int(result.n_a) + int(result.n_b)}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _ladder_attrs(args, kwargs, result):
    meta = result.meta
    return {"walkers": int(meta["walkers"]),
            "epochs": int(meta["epochs_desc"]) + int(meta["epochs_asc"]),
            "capped_frac_desc": float(meta["capped_frac_desc"]),
            "capped_frac_asc": float(meta["capped_frac_asc"])}


def _dispatch_attrs(args, kwargs, result):
    return {"check": _arg(args, kwargs, 1, "subcommand")}


# ---------------------------------------------------------------------------
# installation


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))]


def _patch_function(tracer, module, attr, span, attrs=None):
    original = getattr(module, attr)
    wrapper = tracer.wrap(span, original, attrs)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer, cls, attr, span, attrs=None):
    setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), attrs))


def install(trace_dir: str) -> Tracer:
    """Wrap the package's public layer functions; returns the tracer."""
    from bpire_lab import bpire, conditioned, env, ladder, limit, report, runner, stats, streams, walk

    tracer = Tracer(trace_dir)
    _patch_method(tracer, runner.Runner, "dispatch", "runner.dispatch", _dispatch_attrs)
    _patch_function(tracer, ladder, "estimate_ladder_tables", "ladder", _ladder_attrs)
    _patch_function(tracer, bpire, "branch_generation", "bpire.branch", _branch_attrs(bpire))
    _patch_function(tracer, bpire, "simulate_normalized_at", "bpire.normalized",
                    _normalized_attrs)
    _patch_function(tracer, conditioned, "sample_conditioned_batch", "conditioned",
                    _conditioned_attrs)
    _patch_function(tracer, limit, "sample_gamma_batch", "limit.gamma", _gamma_attrs)
    _patch_function(tracer, limit, "sample_two_sided_batch", "limit.two_sided")
    _patch_function(tracer, limit, "estimate_level_change_prob", "limit.level_change",
                    _level_change_attrs)
    _patch_method(tracer, env.EnvironmentModel, "draw_x", "env.draw_x", _draw_x_attrs)
    _patch_function(tracer, walk, "simulate_walk_matrix", "walk.matrix", _walk_matrix_attrs)
    _patch_function(tracer, stats, "ks_two_sample", "stats.ks", _ks_attrs)
    _patch_function(tracer, stats, "ks_against_cdf", "stats.ks", _ks_attrs)
    _patch_function(tracer, stats, "joint_two_time_test", "stats.joint")
    _patch_function(tracer, streams, "derive_stream", "streams.derive")
    _patch_function(tracer, report, "write_csv", "report.csv", _csv_attrs)
    _patch_method(tracer, report.Report, "write", "report.write")

    # Pool workers are forked from this process, so they inherit the
    # wrappers; the block wrapper hands their spans back through files.
    # functools.wraps keeps the qualified name, so the pool still pickles
    # the block function by reference.
    block = tracer.wrap("runner.block", runner._run_block)

    @functools.wraps(block)
    def run_block(task):
        tracer.enter_process()
        try:
            return block(task)
        finally:
            if os.getpid() != tracer.pid:
                tracer.flush_child()

    runner._run_block = run_block

    warnings.filterwarnings("always", message="overflow encountered", category=RuntimeWarning)
    warnings.showwarning = tracer.count_warning
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus child coverage and tracer overhead."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        kids = [(max(lo, c["start"]), min(hi, c["end"])) for c in children.get(s["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = max(0.0, hi - lo - _covered(kids) - s["overhead"])
    return out


def _subtree_sums(spans, value) -> dict:
    """Span id -> sum of ``value(span)`` over the span and its descendants."""
    by_id = {s["id"]: s for s in spans}
    sums: dict = {}
    for s in spans:
        v = value(s)
        if not v:
            continue
        sid = s["id"]
        while sid is not None and sid in by_id:
            sums[sid] = sums.get(sid, 0) + v
            sid = by_id[sid]["parent"]
    return sums


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, checks_all, overflow_warnings: int) -> dict:
    """Per-layer metric values (without units) from one traced rep."""
    selfs = self_times(spans)
    tracer_cost = _subtree_sums(spans, lambda s: s["overhead"])
    named: dict = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def net(s):
        return s["end"] - s["start"] - tracer_cost.get(s["id"], 0.0)

    def wall(name):
        return sum(net(s) for s in named.get(name, ()))

    def self_sum(name):
        return sum(selfs[s["id"]] for s in named.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named.get(name, ()))

    m = {}
    for check in checks_all:
        m[f"runner.{check}.wall_s"] = sum(
            net(s) for s in named.get("runner.dispatch", ())
            if s["attrs"].get("check") == check)

    ladders = named.get("ladder", [])
    m["ladder.wall_s"] = wall("ladder")
    for key in ("walkers", "epochs"):
        m[f"ladder.{key}"] = attr_sum("ladder", key)
    for key in ("capped_frac_desc", "capped_frac_asc"):
        m[f"ladder.{key}"] = max((s["attrs"].get(key, 0.0) for s in ladders), default=0.0)

    live = attr_sum("bpire.branch", "live")
    m["bpire.branch.calls"] = len(named.get("bpire.branch", ()))
    m["bpire.branch.self_s"] = self_sum("bpire.branch")
    m["bpire.branch.live_gens"] = live
    m["bpire.branch.ns_per_live_gen"] = _ratio(m["bpire.branch.self_s"], live, 1e9)
    m["bpire.branch.log_share"] = _ratio(attr_sum("bpire.branch", "log"), live)
    m["bpire.normalized.wall_s"] = wall("bpire.normalized")
    m["bpire.normalized.ns_per_replica_gen"] = _ratio(
        m["bpire.normalized.wall_s"], attr_sum("bpire.normalized", "replica_gens"), 1e9)

    cond = named.get("conditioned", [])
    variates = _subtree_sums(spans, lambda s: s["attrs"].get("variates", 0))
    paths = attr_sum("conditioned", "paths")
    m["conditioned.self_s"] = self_sum("conditioned")
    m["conditioned.paths"] = paths
    m["conditioned.us_per_path"] = _ratio(wall("conditioned"), paths, 1e6)
    m["conditioned.draw_waste"] = _ratio(
        sum(variates.get(s["id"], 0) for s in cond),
        sum(s["attrs"].get("paths", 0) * s["attrs"].get("horizon", 0) for s in cond))

    m["limit.gamma.wall_s"] = wall("limit.gamma")
    m["limit.gamma.us_per_replica"] = _ratio(
        m["limit.gamma.wall_s"], attr_sum("limit.gamma", "reps"), 1e6)
    m["limit.two_sided.wall_s"] = wall("limit.two_sided")
    m["limit.level_change.wall_s"] = wall("limit.level_change")
    m["limit.level_change.ns_per_step"] = _ratio(
        m["limit.level_change.wall_s"], attr_sum("limit.level_change", "steps"), 1e9)

    m["env.draw_x.variates"] = attr_sum("env.draw_x", "variates")
    m["env.draw_x.self_s"] = self_sum("env.draw_x")
    m["env.draw_x.ns_per_variate"] = _ratio(
        m["env.draw_x.self_s"], m["env.draw_x.variates"], 1e9)

    m["walk.matrix.wall_s"] = wall("walk.matrix")
    m["walk.matrix.steps"] = attr_sum("walk.matrix", "steps")

    m["stats.ks.self_s"] = self_sum("stats.ks")
    m["stats.ks.points"] = attr_sum("stats.ks", "points")
    m["stats.joint.wall_s"] = wall("stats.joint")

    m["streams.derive.calls"] = len(named.get("streams.derive", ()))
    m["streams.derive.self_s"] = self_sum("streams.derive")

    m["report.csv.files"] = len(named.get("report.csv", ()))
    m["report.csv.bytes"] = attr_sum("report.csv", "bytes")
    m["report.wall_s"] = wall("report.csv") + wall("report.write")

    m["numpy.overflow_warnings"] = overflow_warnings
    return m
