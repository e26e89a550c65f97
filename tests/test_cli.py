import dataclasses
import json
import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from bpire_lab import ladder, runner
from bpire_lab.cli import main
from bpire_lab.config import ConfigError, RunConfig
from bpire_lab.env import validate_model
from bpire_lab.report import TestRecord as Record
from bpire_lab.runner import run
from bpire_lab.stats import ks_two_sample
from bpire_lab.walk import arcsine_cdf


def tiny_config(tmp_path, **overrides):
    data = {
        "replicas": {key: 200 for key in (
            "walk_stats", "measure_change", "lemma5", "lemma7", "martingale",
            "gamma", "onedim", "twodim", "level_change", "band")},
        "horizons": [20, 40],
        "n_walk": 64,
        "trunc_i": 4,
        "trunc_j": 4,
        "series_trunc": 8,
        "ladder_budget": 4000,
        "out_dir": str(tmp_path / "out"),
        "master_seed": 7,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config(tmp_path, **overrides)))
    return str(path)


def test_config_defaults_and_roundtrip():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert cfg.replicas["walk_stats"] == 20_000
    assert len(cfg.replicas) == 10
    assert cfg.delta() == pytest.approx(2e-3)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_dict({"not_a_field": 1})


def test_config_field_level_messages():
    with pytest.raises(ConfigError, match="alpha"):
        RunConfig(alpha=3.0)
    with pytest.raises(ConfigError, match="t_values"):
        RunConfig(t_values=[2.0, 1.0])
    # theorem1-twodim reads two times, and a third would widen the Lévy grid
    with pytest.raises(ConfigError, match="t_values: need exactly two"):
        RunConfig(t_values=[1.0, 2.0, 10.0])
    # generation floor(20 * 0.01) = 0 holds Y = 0 on every path
    with pytest.raises(ConfigError, match=r"t_values: need floor\(horizons\[-1\] \* t1\) >= 1"):
        RunConfig(horizons=[20], t_values=[0.01, 2.0])
    # the band walk of floor(4 * 0.02) = 0 steps would end theorem1-twodim in a traceback
    with pytest.raises(ConfigError, match=r"t_values: need floor\(n_walk \* t1\) >= 1"):
        RunConfig(n_walk=4, t_values=[0.01, 0.02])
    # k1 = k2 = 1 would compare a minimum with the single point S_k1
    with pytest.raises(ConfigError,
                       match=r"t_values: need floor\(n_walk \* t1\) < floor\(n_walk \* t2\)"):
        RunConfig(n_walk=4, t_values=[0.3, 0.4])
    # floor(40 * 1.0) = floor(40 * 1.01) = 40 would read Y at one generation twice
    with pytest.raises(ConfigError, match=r"t_values: need floor\(horizons\[-1\] \* t1\) < "
                                          r"floor\(horizons\[-1\] \* t2\)"):
        RunConfig(horizons=[20, 40], t_values=[1.0, 1.01])
    # generations 3200 and 3201 and band indices 2000 and 2001 differ, but
    # both times end in Lévy grid cell 1000, where the level cannot drop
    with pytest.raises(ConfigError, match="t_values: need t1 and t2 in different Lévy grid cells"):
        RunConfig(t_values=[1.0, 1.0005])
    with pytest.raises(ConfigError, match="replicas.walk_stats"):
        RunConfig(replicas={"walk_stats": 1})
    with pytest.raises(ConfigError, match="workers"):
        RunConfig(workers=0)
    with pytest.raises(ConfigError, match="horizons: must be increasing"):
        RunConfig(horizons=[40, 40])
    with pytest.raises(ConfigError, match="band_eps"):
        RunConfig(band_eps=[])
    with pytest.raises(ConfigError, match="band_eps"):
        RunConfig(band_eps=[0.1, 0.0])
    # the gated last fraction must belong to the smallest eps
    with pytest.raises(ConfigError, match="band_eps: need strictly decreasing"):
        RunConfig(band_eps=[0.05, 0.1, 0.2])
    with pytest.raises(ConfigError, match="band_eps: need strictly decreasing"):
        RunConfig(band_eps=[0.1, 0.1])
    # each offset writes one record
    with pytest.raises(ConfigError, match="lemma_offsets: need one or more distinct"):
        RunConfig(lemma_offsets=[1, 1])
    # lemma1 with no offset would write a report with no record
    with pytest.raises(ConfigError, match="lemma_offsets: need one or more"):
        RunConfig(lemma_offsets=[])
    with pytest.raises(ConfigError, match="out_dir: need a nonempty path"):
        RunConfig(out_dir="")
    # S_{tau+i} of a walk of n_walk steps exists only for |i| <= n_walk
    with pytest.raises(ConfigError, match=r"lemma_offsets: .* \|i\| <= n_walk = 4"):
        RunConfig(n_walk=4, trunc_i=8, lemma_offsets=[-6, 6])
    with pytest.raises(ConfigError, match="rate_params"):
        RunConfig(rate_params=[])
    with pytest.raises(ConfigError, match="rate_params"):
        RunConfig(rate_params=[0.0])
    with pytest.raises(ConfigError, match="rate_params"):
        RunConfig(rate_family="lognormal", rate_params=[0.0])
    with pytest.raises(ConfigError, match="rate_params"):
        RunConfig(rate_params=[1.0, -2.0, 3.0])


def test_config_stable_spec_scale(tmp_path, capsys):
    # the scale of C_n comes from the family, sigma/sqrt(2) for normal steps;
    # no config field overrides it, the Lévy grid width, or the model's rho
    # and eps
    model = RunConfig().model()
    assert model.stable_scale() == pytest.approx(1.0 / 2.0 ** 0.5)
    assert model.normalizer(400) == pytest.approx(20.0 / 2.0 ** 0.5)
    for name in ("stable_scale", "grid_delta", "rho", "eps"):
        argv = ["validate-env", "--config", write_config(tmp_path, **{name: 0.7})]
        assert main(argv) == 2
        assert f"config error: unknown config fields: {name}" in capsys.readouterr().err
    # arcsine and lemma1 read the walk-stats walks and have no count of their own
    for key in ("arcsine", "lemma1"):
        argv = ["validate-env", "--config", write_config(tmp_path, replicas={key: 200})]
        assert main(argv) == 2
        assert f"config error: replicas.{key}: unknown test name" in capsys.readouterr().err


def test_reports_are_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg_a = RunConfig.from_json(cfg_path)
    run("walk-stats", cfg_a)
    text_a = open(os.path.join(cfg_a.out_dir, "report.json")).read()

    cfg_b = RunConfig.from_json(cfg_path)
    run("walk-stats", cfg_b)
    text_b = open(os.path.join(cfg_b.out_dir, "report.json")).read()

    assert text_a == text_b  # byte-identical report for identical config


def test_free_walks_are_drawn_once(tmp_path, monkeypatch):
    # walk-stats, arcsine and lemma1 read one sample of the free walk
    drawn = []
    draw = runner.simulate_walk_matrix

    def counting(model, n, reps, rng):
        drawn.append(reps)
        return draw(model, n, reps, rng)

    monkeypatch.setattr(runner, "simulate_walk_matrix", counting)
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    bench = runner.Runner(cfg)
    for name in ("walk-stats", "arcsine", "lemma1"):
        bench.dispatch(name)
    assert sum(drawn) == cfg.replicas["walk_stats"]


def test_theorem1_sample_drawn_once(tmp_path, monkeypatch):
    # theorem1-onedim and theorem1-twodim read one pass of Y, at the horizons
    # and at floor(N t) for the two times, N the last horizon
    passes = []
    simulate = runner.simulate_normalized_at

    def counting(model, n, ts, reps, rng):
        passes.append((n, tuple(ts), reps))
        return simulate(model, n, ts, reps, rng)

    monkeypatch.setattr(runner, "simulate_normalized_at", counting)
    cfg = RunConfig.from_dict(tiny_config(tmp_path, horizons=[15, 22]))
    bench = runner.Runner(cfg)
    for name in ("theorem1-onedim", "theorem1-twodim"):
        bench.dispatch(name)
    assert sum(reps for _, _, reps in passes) == cfg.replicas["twodim"]
    # n = 1 asks for each generation exactly; a time h/N could floor below h
    t1, t2 = cfg.t_values
    assert [(n, set(ts)) for n, ts, _ in passes] == [
        (1, {15, 22, math.floor(22 * t1), math.floor(22 * t2)})]


def test_series_sample_drawn_once(tmp_path, monkeypatch):
    # lemma5 and lemma7 read one draw of the two-sided limit environment at
    # series_trunc, sized by replicas.lemma5; unequal counts need two draws.
    # A draw is its positive side followed by its negative side.
    draws, sides = [], []
    sample = runner.sample_side

    def counting(model, n, reps, rng, tables, side):
        sides.append(side)
        if side == "positive":
            draws.append((n, reps))
        return sample(model, n, reps, rng, tables, side)

    monkeypatch.setattr(runner, "sample_side", counting)
    replicas = tiny_config(tmp_path)["replicas"]
    for lemma7, expect in ((200, [(8, 200)]), (300, [(8, 200), (8, 300)])):
        draws.clear()
        sides.clear()
        cfg = RunConfig.from_dict(tiny_config(
            tmp_path, replicas={**replicas, "lemma7": lemma7}))
        bench = runner.Runner(cfg)
        for name in ("lemma5", "lemma7"):
            bench.dispatch(name)
        assert draws == expect
        assert sides == ["positive", "negative"] * len(expect)


@pytest.mark.parametrize("offsets, depth", [([-2, -1, 1, 2], 2), ([-3, 1], 3)])
def test_lemma1_limit_drawn_to_largest_offset(tmp_path, monkeypatch, offsets, depth):
    # lemma1 reads S*_i for i in lemma_offsets only, so both sides of its
    # limit environment are drawn to max |i|, not to trunc_i = 4
    draws = []
    sample = runner.sample_side

    def recording(model, n, reps, rng, tables, side):
        draws.append((side, n))
        return sample(model, n, reps, rng, tables, side)

    monkeypatch.setattr(runner, "sample_side", recording)
    cfg = RunConfig.from_dict(tiny_config(tmp_path, lemma_offsets=offsets))
    records = runner.Runner(cfg).dispatch("lemma1")
    assert draws == [("positive", depth), ("negative", depth)]
    assert all(r.inputs["depth"] == depth for r in records)


def test_joint_mixture_reads_closed_form_level_change_prob(tmp_path):
    # the joint law is predicted from the analytic 1 - F(t1/t2); the Monte
    # Carlo level is checked against it on its own record
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    recs = {r.name: r for r in runner.Runner(cfg).dispatch("theorem1-twodim")}
    t1, t2 = cfg.t_values
    p_exact = 1.0 - arcsine_cdf(0.5, t1 / t2)
    assert recs["theorem1-twodim/joint-mixture"].inputs["level_change_prob"] == p_exact
    level = recs["theorem1-twodim/level-change-prob"]
    assert level.inputs["analytic"] == p_exact and level.inputs["estimate"] != p_exact


@pytest.mark.parametrize("workers", [1, 2])
def test_ladder_table_drawn_once(tmp_path, monkeypatch, workers):
    # the table is one shared draw of the run: read outside a check and
    # then by every check that conditions a walk, it is estimated once
    calls = []
    estimate = runner.estimate_ladder_tables

    def counting(*args, **kwargs):
        calls.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(runner, "estimate_ladder_tables", counting)
    bench = runner.Runner(RunConfig.from_dict(tiny_config(tmp_path, workers=workers)))
    tables = bench.tables
    for name in ("lemma1", "gamma-dist", "measure-change"):
        bench.dispatch(name)
    assert len(calls) == 1
    assert bench.tables is tables


def test_run_writes_ladder_tables_when_drawn(tmp_path):
    # runner.run writes the table only for a check that drew it
    for name, drawn in (("lemma1", True), ("walk-stats", False), ("arcsine", False),
                        ("martingale", False), ("validate-env", False)):
        cfg = RunConfig.from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / name)))
        run(name, cfg)
        assert os.path.isfile(os.path.join(cfg.out_dir, "ladder_tables.txt")) == drawn, name


def test_worker_count_invariance(tmp_path):
    base = tiny_config(tmp_path)
    base.pop("out_dir")
    cfg1 = RunConfig.from_dict({**base, "workers": 1, "out_dir": str(tmp_path / "w1")})
    cfg2 = RunConfig.from_dict({**base, "workers": 2, "out_dir": str(tmp_path / "w2")})
    run("arcsine", cfg1)
    run("arcsine", cfg2)
    text1 = open(os.path.join(cfg1.out_dir, "report.json")).read()
    text2 = open(os.path.join(cfg2.out_dir, "report.json")).read()
    assert text1 == text2  # byte-identical regardless of worker count


@pytest.mark.parametrize("overrides", [
    {},
    # Pareto 1.5 steps at 3,000 ladder walkers: the table's second block
    # goes to the pool of the first check that reads the table
    {"x_family": "pareto", "x_param": 1.5, "alpha": 1.5, "ladder_budget": 30_000},
], ids=["normal", "pareto-two-block-ladder"])
def test_worker_count_invariance_all(tmp_path, overrides):
    # every check, and every file it writes, is the same on one worker and
    # on a pool of two
    base = tiny_config(tmp_path, **overrides)
    base.pop("out_dir")
    outs = []
    for workers in (1, 2):
        cfg = RunConfig.from_dict({**base, "workers": workers,
                                   "out_dir": str(tmp_path / f"w{workers}")})
        run("all", cfg)
        outs.append(cfg.out_dir)
    names = sorted(os.listdir(outs[0]))
    assert "report.json" in names and sum(n.endswith(".csv") for n in names) >= 10
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as a, \
                open(os.path.join(outs[1], name), "rb") as b:
            assert a.read() == b.read(), name


def test_dispatch_leaves_no_workers(tmp_path, monkeypatch):
    # martingale submits its six block calls to one pool, which is shut
    # down before dispatch returns
    made = []

    class Counting(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Counting)
    # the pool size is capped at the usable CPUs; four keep it at ``workers``
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    bench = runner.Runner(RunConfig.from_dict(tiny_config(tmp_path, workers=2)))
    assert len(bench.dispatch("martingale")) == 18
    assert made == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []
    bench.dispatch("validate-env")  # no block work: no pool
    assert len(made) == 1


def _count_pools(monkeypatch):
    """The keyword arguments of each pool the runner opens, recorded; four
    usable CPUs keep a pool at ``workers``."""
    made = []

    class Counting(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return made


def test_tables_outside_a_check_leave_no_pool(tmp_path, monkeypatch):
    # 3,000 ladder walkers are two blocks: the second goes to a pool that
    # the tables open outside any check, and shut down before returning
    made = _count_pools(monkeypatch)
    bench = runner.Runner(RunConfig.from_dict(tiny_config(
        tmp_path, workers=2, ladder_budget=30_000)))
    assert bench.tables.meta["walkers"] == 3000
    assert made == [{"max_workers": 2}]
    assert bench._pool is None
    assert multiprocessing.active_children() == []


def test_check_building_the_tables_opens_one_pool(tmp_path, monkeypatch):
    # gamma-dist builds the tables (a block on the pool) and then submits its
    # own blocks: the tables borrow the check's pool, so one pool is opened
    made = _count_pools(monkeypatch)
    bench = runner.Runner(RunConfig.from_dict(tiny_config(
        tmp_path, workers=2, ladder_budget=30_000)))
    assert len(bench.dispatch("gamma-dist")) == 2
    assert bench._samples["tables"].meta["walkers"] == 3000
    assert made == [{"max_workers": 2}]
    assert multiprocessing.active_children() == []


def test_ladder_nonconvergence_in_worker_blocks(tmp_path, monkeypatch, capsys):
    # with an 8-step cap most walkers are capped, in this process and in
    # the pool's block of 500: the summed capped count (more than block 0's
    # 2,500 walkers) fails the run with exit 1 as on one worker, and no
    # worker is left
    monkeypatch.setattr(ladder, "_STEP_CAP", 8)
    errors = []
    for workers in (1, 2):
        path = write_config(tmp_path, workers=workers, ladder_budget=30_000)
        assert main(["measure-change", "--config", path]) == 1
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    capped = re.fullmatch(r"sampler failure in measure-change: (\d+)/3000 walkers "
                          r"exceeded the step cap 8\n", errors[1])
    assert capped and int(capped[1]) > 2500


@pytest.mark.parametrize("affinity", [True, False])
def test_pool_is_capped_at_usable_cpus(tmp_path, monkeypatch, affinity):
    # a pool forks all of its workers at the first submit, so a large
    # ``workers`` asks for no more than the CPUs this process may run on:
    # sched_getaffinity where there is one, cpu_count otherwise. The stub
    # pool records its size and refuses, so no worker is started.
    asked = []

    class Refusing:
        def __init__(self, max_workers):
            asked.append(max_workers)
            raise RuntimeError("no pool here")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Refusing)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers, want in ((100_000, 3), (2, 2)):
        bench = runner.Runner(RunConfig.from_dict(tiny_config(tmp_path, workers=workers)))
        with pytest.raises(RuntimeError, match="no pool here"):
            bench.dispatch("martingale")
        assert asked.pop() == want and asked == []
    assert multiprocessing.active_children() == []


def _raising_walks(model, n, reps, rng):
    raise RuntimeError("block failed")


def test_raising_block_leaves_no_workers(tmp_path, monkeypatch):
    # a block that raises in a worker fails its check, and the pool is still
    # shut down; the unjoined sample is drawn again when next asked for
    monkeypatch.setattr(runner, "simulate_walk_matrix", _raising_walks)
    bench = runner.Runner(RunConfig.from_dict(tiny_config(tmp_path, workers=2)))
    with pytest.raises(RuntimeError, match="block failed"):
        bench.dispatch("walk-stats")
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert len(bench.dispatch("arcsine")) == 1
    assert multiprocessing.active_children() == []


def test_lemma1_offset_without_rows_fails(tmp_path, capsys):
    # offset +64 needs the argmin of a 64-step walk at 0; none of the ten
    # walks at seed 1 has it, so the offset fails without a KS or a CSV
    fields = {"n_walk": 64, "trunc_i": 64, "lemma_offsets": [64, 1],
              "replicas": {"walk_stats": 10}}
    path = write_config(tmp_path, **fields)
    assert main(["lemma1", "--config", path, "--seed", "1"]) == 1
    out = tmp_path / "out"
    records = json.loads((out / "report.json").read_text())["records"]
    empty, kept = records
    assert empty["name"] == "lemma1/offset+64" and empty["verdict"] is False
    assert empty["statistic"] is None and empty["inputs"]["kept"] == 0
    assert kept["name"] == "lemma1/offset+1" and kept["inputs"]["kept"] > 0
    assert not (out / "lemma1_offset+64.csv").exists()
    assert (out / "lemma1_offset+1.csv").exists()
    assert "FAIL lemma1/offset+64 threshold=0.06" in capsys.readouterr().out


def test_csv_provenance_headers(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    run("arcsine", cfg)
    path = os.path.join(cfg.out_dir, "arcsine_ecdf.csv")
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#")
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("seed" in ln for ln in header)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "x,empirical,model"


def test_report_writes_bools_as_json_booleans():
    # a bool is an int in Python; the report must still say true/false
    rec = Record(name="x", statistic=np.float64(0.5), threshold=None, verdict=True,
                     seed=1, replicas=10,
                     inputs={"decreasing": True, "flags": [np.bool_(False), 2], "k": np.int64(3)})
    inputs = json.loads(json.dumps(rec.to_dict()))["inputs"]
    assert inputs == {"decreasing": True, "flags": [False, 2], "k": 3}
    assert inputs["decreasing"] is True and inputs["flags"][0] is False
    assert type(inputs["flags"][1]) is int and type(inputs["k"]) is int


def test_record_gate(tmp_path):
    # the runner holds every gate: a statistic equal to its gate passes,
    # one above it fails, and with no gate it is only reported
    bench = runner.Runner(RunConfig.from_dict(tiny_config(tmp_path)))
    half = ks_two_sample([1, 2], [1, 3]).statistic
    assert half == 0.5
    records = []
    for gate in (0.5, 0.6):
        rec = bench._record("x", half, gate, 2, n=4)
        assert rec.verdict is True and rec.threshold == gate and rec.statistic == 0.5
        records.append(rec)
    rec = bench._record("x", ks_two_sample([0, 1], [2, 3]).statistic, 0.6, 2)
    assert rec.verdict is False and rec.statistic == 1.0
    records.append(rec)
    rec = bench._record("x", half, None, 2, n=4)
    assert rec.verdict is None and rec.threshold is None and rec.inputs == {"n": 4}
    records.append(rec)
    # a gated record also fails when its other condition fails (band-fraction
    # with rising fractions) or when it has no statistic (lemma1's empty sample)
    rec = bench._record("x", np.float64(0.01), 0.05, 2, False, decreasing=False)
    assert rec.verdict is False and rec.inputs == {"decreasing": False}
    records.append(rec)
    rec = bench._record("x", None, 0.06, 2, kept=0)
    assert rec.verdict is False and rec.statistic is None and rec.threshold == 0.06
    records.append(rec)
    # with no gate the verdict is the one given, and the detail is kept
    for passed in (True, False):
        rec = bench._record("x", None, None, 0, passed, "why")
        assert rec.verdict is passed and rec.detail == "why" and rec.threshold is None
        records.append(rec)
    records.append(bench._record("x", np.float64(0.01), np.float64(0.05), 2))
    assert records[-1].verdict is True
    assert all(r.verdict is None or type(r.verdict) is bool for r in records)
    assert all(r.statistic is None or type(r.statistic) is float for r in records)


def test_cli_unknown_subcommand(tmp_path, capsys):
    code = main(["frobnicate", "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_bad_config_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": 9.0}))
    code = main(["walk-stats", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "alpha" in captured.err


def test_cli_bad_rate_params_exit_code(tmp_path, capsys):
    # a malformed rate is a configuration error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rate_params": []}))
    code = main(["validate-env", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: rate_params" in capsys.readouterr().err


@pytest.mark.parametrize("fields, err", [
    pytest.param({"alpha": 1.5}, "model: alpha matches family",
                 id="fields0-alpha matches family"),
    # the model owns rho, 1/2 for the symmetric families: a config that
    # declares another rho names an unknown field
    pytest.param({"x_family": "pareto", "x_param": 1.5, "alpha": 1.5, "rho": 0.6},
                 "unknown config fields: rho", id="fields1-rho matches symmetric family"),
])
def test_cli_model_mismatch_exit_code(tmp_path, capsys, fields, err):
    # an (alpha, rho) that the step family contradicts is a configuration error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fields))
    code = main(["validate-env", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {err}" in capsys.readouterr().err


def test_validate_env_records_what_the_config_gate_checked(tmp_path):
    # RunConfig.model() validates strictly, so a failing check is a config
    # error (above) and in a run every validate-env record passes
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    records = runner.Runner(cfg).dispatch("validate-env")
    assert [r.name for r in records] == [
        f"validate-env/{c.name}" for c in validate_model(cfg.model())]
    assert all(r.verdict is True for r in records)


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_negative_seed_exit_code(tmp_path, capsys, how):
    # a negative master seed cannot key a stream: rejected before any draw
    if how == "flag":
        argv = ["arcsine", "--config", write_config(tmp_path), "--seed", "-1"]
    else:
        argv = ["arcsine", "--config", write_config(tmp_path, master_seed=-1)]
    assert main(argv) == 2
    assert "config error: master_seed" in capsys.readouterr().err


def test_cli_coinciding_twodim_generations_exit_code(tmp_path, capsys):
    # theorem1-twodim reads Y at floor(N t1) and floor(N t2), N = horizons[-1]:
    # one generation read twice is a configuration error (n_walk = 200 keeps
    # the band indices 200 and 202 apart)
    argv = ["theorem1-twodim", "--config",
            write_config(tmp_path, horizons=[20, 40], t_values=[1.0, 1.01], n_walk=200)]
    assert main(argv) == 2
    assert "config error: t_values: need floor(horizons[-1] * t1) <" in capsys.readouterr().err


def test_cli_twodim_times_in_one_grid_cell_exit_code(tmp_path, capsys):
    # t1 and t2 read two generations and two band indices but share a cell
    # of the Lévy grid, where level-change-prob would be 0 by construction
    argv = ["theorem1-twodim", "--config", write_config(
        tmp_path, horizons=[20, 3200], n_walk=2000, t_values=[1.0, 1.0005])]
    assert main(argv) == 2
    assert "config error: t_values: need t1 and t2 in different" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("offsets", [[-65], [1, 65], [0], [1.5], [True], 2])
def test_cli_lemma_offsets_out_of_range_exit_code(tmp_path, capsys, offsets):
    # lemma1 reads S_{tau+i} of a walk of n_walk = 64 steps, so only
    # 1 <= |i| <= 64: any other offset, or one that is not an integer, is a
    # configuration error, not a traceback or a silently truncated offset
    argv = ["lemma1", "--config", write_config(tmp_path, lemma_offsets=offsets)]
    assert main(argv) == 2
    assert "config error: lemma_offsets" in capsys.readouterr().err


def test_cli_empty_lemma_offsets_exit_code(tmp_path, capsys):
    # with no offset lemma1 would write no record and no verdict, and
    # still exit as a failed test
    argv = ["lemma1", "--config", write_config(tmp_path, lemma_offsets=[])]
    assert main(argv) == 2
    assert "config error: lemma_offsets" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_empty_out_dir_exit_code(tmp_path, capsys):
    # an empty output directory is a configuration error, not a traceback
    # from creating the directory ""
    assert main(["validate-env", "--config", write_config(tmp_path), "--out", ""]) == 2
    assert "config error: out_dir" in capsys.readouterr().err


@pytest.mark.parametrize("fields, name", [
    ({"t_values": [1, "x"]}, "t_values"),
    ({"band_eps": ["a"]}, "band_eps"),
    ({"trunc_i": 2.5}, "trunc_i"),
    ({"n_walk": 64.5}, "n_walk"),
    ({"horizons": [20, 40.5]}, "horizons"),
])
def test_cli_mistyped_numeric_field_exit_code(tmp_path, capsys, fields, name):
    # a number field of the wrong type is a configuration error: not a
    # TypeError traceback, and not a float accepted where an integer is due
    argv = ["validate-env", "--config", write_config(tmp_path, **fields)]
    assert main(argv) == 2
    assert f"config error: {name}: need " in capsys.readouterr().err


@pytest.mark.parametrize("fields, name", [
    ({"x_param": "a"}, "x_param"),
    ({"alpha": "x"}, "alpha"),
    ({"alpha": None}, "alpha"),
    ({"x_param": math.inf}, "x_param"),
    ({"alpha": math.inf}, "alpha"),
    ({"replicas": [1, 2]}, "replicas"),
    ({"replicas": "abc"}, "replicas"),
    ({"out_dir": 5}, "out_dir"),
    ({"rate_params": [True]}, "rate_params"),
    ({"replicas": {"lemma5": 2.5}}, "replicas.lemma5"),
])
def test_cli_malformed_scalar_field_exit_code(tmp_path, capsys, fields, name):
    # a model number that is not a finite real, a name that is not a string,
    # replicas that are not an object and a bool rate are configuration
    # errors: not a traceback, and not a run on an infinite or bool value
    argv = ["validate-env", "--config", write_config(tmp_path, **fields)]
    assert main(argv) == 2
    assert f"config error: {name}: need " in capsys.readouterr().err


@pytest.mark.parametrize("wrong", [None, True])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_config_field_is_type_checked(name, wrong):
    # None and a bool are of the wrong kind for every field: each one, and
    # any field added later, is a configuration error naming the field
    with pytest.raises(ConfigError, match=rf"(^|; ){re.escape(name)}: need "):
        RunConfig(**{name: wrong})


def test_config_accepts_lemma_offsets_at_trunc_i():
    RunConfig(trunc_i=4, lemma_offsets=[-4, -1, 1, 4])


def test_cli_missing_config_file(tmp_path):
    assert main(["walk-stats", "--config", str(tmp_path / "none.json")]) == 2


def test_cli_pass_and_fail_exit_codes(tmp_path, capsys):
    # validate-env on the default model passes
    code = main(["validate-env", "--out", str(tmp_path / "ok"), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "report written" in out

    # an absurdly short walk cannot match the continuous arcsine law
    cfg = write_config(tmp_path, name="fail.json", n_walk=4)
    code = main(["arcsine", "--config", cfg])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_seed_override_changes_statistics(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["arcsine", "--config", cfg_path, "--seed", "1",
                 "--out", str(tmp_path / "s1")]) in (0, 1)
    assert main(["arcsine", "--config", cfg_path, "--seed", "2",
                 "--out", str(tmp_path / "s2")]) in (0, 1)
    r1 = json.loads(open(tmp_path / "s1" / "report.json").read())
    r2 = json.loads(open(tmp_path / "s2" / "report.json").read())
    assert r1["records"][0]["statistic"] != r2["records"][0]["statistic"]
    assert r1["records"][0]["seed"] == 1


def test_run_rejects_unknown_subcommand(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    with pytest.raises(ValueError):
        run("nonsense", cfg)
