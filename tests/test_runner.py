import concurrent.futures
import json
import math
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fttpde import integrators, snapshots
from fttpde.cli import main as cli_main, preset_names, preset_path
from fttpde.integrators import PHASES, AdaptiveState, IntegratorConfig, adaptive_step
from fttpde.operators import eval_rhs
from fttpde.problems import CharacteristicsReference, fp4d
from fttpde.runner import ConfigError, RunConfig, parse_config, run_experiment


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_ADVECTION = """
problem = advection2d
dt = 1e-3
t_final = 0.02
eps_inc = 1e-2
eps_dec = 1e-12
dec_period = 10
bdf_points = 2
reference = on
snapshot_every = 10
n = 21
"""


# ---------------------------------------------------------------------------
# parse_config

def test_parse_round_trip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_ADVECTION))
    assert cfg.problem == "advection2d"
    assert cfg.dt == 1e-3
    assert cfg.eps_inc == 1e-2
    assert cfg.n == 21


def test_parse_unknown_key(tmp_path):
    path = write_cfg(tmp_path, SMALL_ADVECTION + "\nwizardry = 3\n")
    with pytest.raises(ConfigError, match="wizardry"):
        parse_config(path)


def test_parse_bad_value_names_key(tmp_path):
    path = write_cfg(tmp_path, "problem = advection2d\ndt = fast\nt_final = 1\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config(path)


def test_parse_line_without_equals(tmp_path):
    path = write_cfg(tmp_path, "problem = advection2d\ndt 1e-3\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config(path)


def test_parse_empty_file_lists_required(tmp_path):
    path = write_cfg(tmp_path, "# nothing here\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    for key in ("problem", "dt", "t_final"):
        assert key in str(err.value)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_parse_duplicate_key(tmp_path):
    path = write_cfg(tmp_path, SMALL_ADVECTION + "\ndt = 1e-4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_max_ranks(tmp_path):
    path = write_cfg(tmp_path, "problem = fp4d\ndt = 1e-3\nt_final = 0.01\nmax_ranks = 1,2,3,2,1\n")
    assert parse_config(path).max_ranks == (1, 2, 3, 2, 1)


def test_parse_inf_threshold(tmp_path):
    path = write_cfg(tmp_path, "problem = advection2d\ndt = 1e-3\nt_final = 0.01\neps_inc = inf\n")
    assert math.isinf(parse_config(path).eps_inc)


def test_run_config_defaults_match_integrator_config():
    # runner and integrators each state these defaults: a CLI run and a
    # library run of the same settings agree only while they are equal
    shared = ("eps_inc", "eps_dec", "dec_period", "bdf_points")
    run = {f.name: f.default for f in fields(RunConfig)}
    lib = {f.name: f.default for f in fields(IntegratorConfig)}
    assert [run[k] for k in shared] == [lib[k] for k in shared]


# ---------------------------------------------------------------------------
# presets

def test_preset_listing_covers_benchmarks():
    names = preset_names()
    for expected in (
        "advection2d_fixed",
        "advection2d_inc1e-1",
        "advection2d_inc1e-2",
        "kse2d_rank2",
        "kse2d_inc10",
        "kse2d_inc1e-1",
        "kse2d_inc1e-2",
        "fp4d_fixed",
        "fp4d_inc1e-2",
        "fp4d_inc1e-3",
    ):
        assert expected in names


def test_advection_preset_values():
    cfg = parse_config(preset_path("advection2d_inc1e-2"))
    assert cfg.dt == 1e-4
    assert cfg.eps_inc == 1e-2
    assert cfg.t_final == 1.0


def test_kse_preset_values():
    thresholds = {
        name: parse_config(preset_path(name)).eps_inc
        for name in ("kse2d_inc10", "kse2d_inc1e-1", "kse2d_inc1e-2")
    }
    assert set(thresholds.values()) == {10.0, 1e-1, 1e-2}
    assert all(parse_config(preset_path(n)).dt == 1e-5 for n in thresholds)


def test_all_presets_parse():
    for name in preset_names():
        cfg = parse_config(preset_path(name))
        assert cfg.dt > 0 and cfg.t_final > 0


# ---------------------------------------------------------------------------
# run_experiment

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    cfg_path = out / "run.cfg"
    cfg_path.write_text(SMALL_ADVECTION)
    config = parse_config(cfg_path)
    summary = run_experiment(config, output_dir=out / "results")
    return config, out / "results", summary


def test_run_outputs_exist(small_run):
    _, outdir, summary = small_run
    assert summary["status"] == "ok"
    for fname in ("timeseries.csv", "singular_values.csv", "summary.json", "run.log"):
        assert (outdir / fname).exists()
    assert (outdir / "snapshot_00000000.fttsnap").exists()


def test_timeseries_header_and_spacing(small_run):
    _, outdir, _ = small_run
    lines = (outdir / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,l2_error,normal_norm,r0,r1,r2,event"
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(times) == 21  # initial row + 20 steps
    diffs = np.diff(times)
    assert np.all(diffs > 0)
    assert np.allclose(diffs, 1e-3)


def test_step_k_is_labelled_k_dt(tmp_path, monkeypatch):
    # a running sum of dt would drift: 50 steps of 1e-3 add up to 0.05000000000000004
    requested = []
    solution = CharacteristicsReference.solution

    def spy(self, t):
        requested.append(t)
        return solution(self, t)

    monkeypatch.setattr(CharacteristicsReference, "solution", spy)
    text = SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.05")
    summary = run_experiment(parse_config(write_cfg(tmp_path, text)), tmp_path / "out")
    dt = 1e-3
    rows = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [repr(k * dt) for k in range(51)]
    sv_rows = (tmp_path / "out" / "singular_values.csv").read_text().splitlines()[1:]
    snapshot_times = [k * dt for k in range(0, 51, 10)]
    assert sorted({float(row.split(",")[0]) for row in sv_rows}) == snapshot_times
    assert summary["steps_completed"] == 50
    assert summary["final_t"] == summary["steps_completed"] * dt
    assert requested == snapshot_times


def test_summary_contents(small_run):
    _, outdir, summary = small_run
    stored = json.loads((outdir / "summary.json").read_text())
    assert stored["final_ranks"] == summary["final_ranks"]
    assert stored["steps_completed"] == 20
    assert stored["final_error"] is not None
    assert stored["final_error"] < 1e-2


def test_summary_reports_reference_time(small_run, tmp_path):
    _, outdir, summary = small_run
    stored = json.loads((outdir / "summary.json").read_text())
    assert stored["reference_s"] == summary["reference_s"] > 0
    assert stored["reference_s"] < stored["wall_time_s"]
    off = SMALL_ADVECTION.replace("reference = on", "reference = off")
    summary_off = run_experiment(parse_config(write_cfg(tmp_path, off)), output_dir=tmp_path / "off")
    assert summary_off["final_error"] is None
    assert summary_off["reference_s"] == 0.0


SMALL_FP4D = """
problem = fp4d
dt = 1e-3
t_final = 0.006
eps_inc = 1e-3
eps_dec = 1e-8
dec_period = 25
reference = off
n = 9
"""


def test_summary_counts_rhs_evaluations_and_g_rank(tmp_path, monkeypatch):
    summary = run_experiment(parse_config(write_cfg(tmp_path, SMALL_FP4D)), tmp_path / "ad")
    assert summary["inc_events"] > 0
    assert summary["rhs_evals"] == summary["steps_completed"] + summary["inc_events"]
    prob = fp4d(n=9)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25)
    state = AdaptiveState.initial(prob.initial)
    evals = []

    def spy(*args):
        evals.append(1)
        return eval_rhs(*args)

    monkeypatch.setattr(integrators, "eval_rhs", spy)
    g_rank_max = 0
    for _ in range(6):
        state = adaptive_step(state, prob.rhs, cfg)
        g_rank_max = max(g_rank_max, *state.g_ranks[1:-1])
    assert summary["g_rank_max"] == g_rank_max
    assert len(evals) == summary["rhs_evals"]
    # the fixed-rank recipe: no eps_inc and dec_period = 0
    fixed = SMALL_FP4D.replace("eps_inc = 1e-3\n", "").replace("dec_period = 25", "dec_period = 0")
    summary = run_experiment(parse_config(write_cfg(tmp_path, fixed)), tmp_path / "fixed")
    assert summary["rhs_evals"] == summary["steps_completed"] == 6
    header = (tmp_path / "fixed" / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,l2_error,normal_norm,r0,r1,r2,r3,r4,event"


@pytest.fixture(scope="module")
def small_fp4d_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_fp4d_run")
    summary = run_experiment(parse_config(write_cfg(out, SMALL_FP4D)), out / "results")
    return out / "results", summary


def test_inc_labels_count_the_kept_modes(small_fp4d_run):
    # from step 4 the outer interfaces sit at the grid cap 9, so each
    # addition pads them by one mode that the sweep drops
    outdir, summary = small_fp4d_run
    rows = [line.split(",") for line in (outdir / "timeseries.csv").read_text().splitlines()[1:]]
    assert [int(row[4]) for row in rows[4:]] == [9] * 3
    interior = [sum(int(r) for r in row[4:-2]) for row in rows]
    labels = [(row[-1], growth) for row, growth in zip(rows[1:], np.diff(interior))]
    inc = [int(event[4:]) for event, _ in labels if event.startswith("inc:")]
    assert all(int(event[4:]) == growth for event, growth in labels if event.startswith("inc:"))
    assert len(inc) == summary["inc_events"] > 0
    assert sum(inc) == summary["modes_added"]


def test_summary_counts_modes_added_and_removed_again(small_fp4d_run, tmp_path):
    # fp4d adds modes on every step from step 2, and each sweep removes
    # fewer than its window added; advection2d adds none, so nothing the
    # sweeps remove was added
    sweep_every_3 = SMALL_FP4D.replace("dec_period = 25", "dec_period = 3")
    fp = run_experiment(parse_config(write_cfg(tmp_path, sweep_every_3)), tmp_path / "fp")
    assert fp["modes_added"] > fp["modes_removed"] == fp["spurious_modes"] == 30
    coarse = SMALL_DEC + "eps_dec = 1e-2\n"
    dec = run_experiment(parse_config(write_cfg(tmp_path, coarse)), tmp_path / "dec")
    assert dec["modes_removed"] > 0 and dec["modes_added"] == dec["spurious_modes"] == 0
    # additions with no removal sweep after them count none
    no_sweep = small_fp4d_run[1]
    assert no_sweep["modes_added"] > 0 and no_sweep["spurious_modes"] == 0


def test_summary_reports_the_smallest_threshold_margin(small_fp4d_run, tmp_path):
    outdir, summary = small_fp4d_run
    rows = [line.split(",") for line in (outdir / "timeseries.csv").read_text().splitlines()[1:]]
    margins = [(abs(float(row[2]) - 1e-3) / 1e-3, step) for step, row in enumerate(rows) if row[2]]
    assert len(margins) == summary["steps_completed"] - 1  # no normal on step 1
    stored = json.loads((outdir / "summary.json").read_text())
    expected = min(margins)
    assert [stored["min_threshold_margin"], stored["min_threshold_margin_step"]] == list(expected)
    assert summary["min_threshold_margin"] == expected[0]
    # with eps_inc = inf no threshold is ever decided
    never_add = SMALL_FP4D.replace("eps_inc = 1e-3\n", "")
    off = run_experiment(parse_config(write_cfg(tmp_path, never_add)), tmp_path / "never_add")
    assert off["min_threshold_margin"] is None and off["min_threshold_margin_step"] is None


def test_summary_reports_time_per_phase(small_run, small_fp4d_run, tmp_path):
    never_add = SMALL_ADVECTION.replace("eps_inc = 1e-2", "eps_inc = inf")
    summaries = [
        small_run[2],
        small_fp4d_run[1],
        run_experiment(parse_config(write_cfg(tmp_path, never_add)), tmp_path / "never_add"),
    ]
    assert [s["inc_events"] > 0 for s in summaries] == [True, True, False]
    for summary in summaries:
        phases = summary["phase_s"]
        assert sorted(phases) == sorted(PHASES)
        assert min(phases.values()) >= 0 and summary["snapshot_s"] > 0
        assert (phases["pad"] > 0) == (summary["inc_events"] > 0)
        spent = sum(phases.values()) + summary["reference_s"] + summary["snapshot_s"]
        assert spent <= summary["wall_time_s"]


def test_snapshot_round_trip_from_run(small_run):
    _, outdir, summary = small_run
    u = snapshots.load(outdir / "snapshot_00000020.fttsnap")
    assert list(u.ranks) == summary["final_ranks"]


def test_run_log_echoes_parameters(small_run):
    _, outdir, _ = small_run
    text = (outdir / "run.log").read_text()
    assert "eps_inc = 0.01" in text
    assert "grid = 21x21" in text
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    for f in fields(RunConfig):
        assert keys.count(f.name) == 1, f.name


def test_run_log_records_numeric_environment(small_run):
    _, outdir, _ = small_run
    lines = (outdir / "run.log").read_text().splitlines()
    assert f"numpy = {np.__version__}" in lines
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert f"blas_threads = {threads}" in lines
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["blas_threads"] == threads


def test_rerun_is_byte_identical(small_run, tmp_path):
    config, outdir, _ = small_run
    run_experiment(config, output_dir=tmp_path / "again")
    a = (outdir / "timeseries.csv").read_bytes()
    b = (tmp_path / "again" / "timeseries.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "problem, dt, max_ranks, n",
    [
        ("advection2d", 1e-3, "1,15,1", 21),
        ("kse2d", 1e-5, "1,2,1", 9),
        ("fp4d", 1e-3, "1,1,1,1,1", 9),
    ],
    ids=["advection2d", "kse2d", "fp4d"],
)
def test_fixed_rank_advection_keeps_rank(tmp_path, problem, dt, max_ranks, n):
    # the fixed-rank recipe: eps_inc unset (never add) and dec_period = 0
    # (never remove); the normal component is still estimated and reported
    cfg_path = write_cfg(
        tmp_path,
        f"problem = {problem}\ndt = {dt}\nt_final = {10 * dt}\n"
        f"max_ranks = {max_ranks}\ndec_period = 0\nreference = off\nn = {n}\n",
    )
    summary = run_experiment(parse_config(cfg_path), output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert summary["status"] == "ok"
    assert summary["steps_completed"] == len(rows) - 1 == 10
    assert {",".join(row[3:-1]) for row in rows} == {max_ranks}
    assert all(row[2] for row in rows[2:])
    assert {row[-1] for row in rows} == {"none"}
    assert summary["inc_events"] == summary["dec_events"] == 0


def test_singular_values_file_schema(small_run):
    _, outdir, _ = small_run
    lines = (outdir / "singular_values.csv").read_text().splitlines()
    assert lines[0] == "t,interface,index,sigma"
    first = lines[1].split(",")
    assert first[1] == "1" and first[2] == "0"
    assert float(first[3]) > 0


# ---------------------------------------------------------------------------
# CLI

def test_cli_presets_list(capsys):
    assert cli_main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "advection2d_inc1e-2" in out


def test_cli_run_and_snapshot_info(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.005"))
    rc = cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out.strip())["status"] == "ok"
    rc = cli_main(["snapshot", "info", str(tmp_path / "out" / "snapshot_00000000.fttsnap")])
    info = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert info["d"] == 2


@pytest.mark.parametrize("data", [b"FTTSNAP1\x02\x00", None], ids=["malformed", "missing"])
def test_cli_snapshot_info_reports_bad_file(tmp_path, capsys, data):
    path = tmp_path / "bad.fttsnap"
    if data is not None:
        path.write_bytes(data)
    assert cli_main(["snapshot", "info", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = advection2d\n")
    assert cli_main(["run", str(cfg)]) == 1
    assert "missing required keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("problem = fp4d\ndt = 1e-3\nt_final = 0.01\n"
         "max_ranks = 1,2,1\nn = 7\n", "max_ranks"),
        ("problem = advection2d\ndt = 1e-3\nt_final = 0.01\nn = 2\n",
         "grid points"),
        # the config format has no scheme key: an old fixed-rank config
        # with eps_inc set must not run as an adaptive run
        ("problem = advection2d\nscheme = fixed_rank\ndt = 1e-3\nt_final = 0.01\n"
         "eps_inc = 1e-2\nn = 21\n", "line 2: unknown key 'scheme'"),
        ("problem = advection2d\ndt = 1e-3\nt_final = 0.0026\nn = 21\n",
         "whole number of steps"),
        ("problem = advection2d\ndt = 1e-3\nt_final = 0.01\n"
         "n = 10000000\n", "grid too large"),
    ],
    ids=["max_ranks_length", "too_few_points", "unknown_scheme", "fractional_steps",
         "oversize_grid"],
)
def test_cli_rejects_invalid_config_before_writing(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem", ["advection2d", "kse2d", "fp4d"])
def test_run_experiment_rejects_an_oversize_grid(tmp_path, problem):
    # the first n x n array would take 800 TB: the grid is refused before
    # any array of its size is formed
    text = f"problem = {problem}\ndt = 1e-3\nt_final = 0.01\nn = 10000000\n"
    with pytest.raises(ConfigError, match="grid too large"):
        run_experiment(parse_config(write_cfg(tmp_path, text)), output_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# non-finite or negative run settings; with eps_dec = nan every decrement
# sweep used to truncate to rank 1 and the run still ended "ok"
SMALL_DEC = """
problem = advection2d
dt = 1e-3
t_final = 0.005
dec_period = 2
reference = off
n = 17
"""

BAD_SETTINGS = pytest.mark.parametrize(
    "line, key",
    [
        ("eps_dec = nan", "eps_dec"),
        ("eps_inc = nan", "eps_inc"),
        ("dt = inf", "dt"),
        ("dec_period = -1", "dec_period"),
        ("snapshot_every = -1", "snapshot_every"),
        ("reference_dt = inf", "reference_dt"),
    ],
    ids=[
        "eps_dec_nan", "eps_inc_nan", "dt_inf", "dec_period_negative", "snapshot_every_negative",
        "reference_dt_inf",
    ],
)


def bad_settings_config(tmp_path, line):
    key = line.split(" = ")[0]
    kept = [row for row in SMALL_DEC.splitlines() if not row.startswith(key + " =")]
    return write_cfg(tmp_path, "\n".join(kept + [line]) + "\n")


@BAD_SETTINGS
def test_run_experiment_rejects_non_finite_and_negative_settings(tmp_path, line, key):
    config = parse_config(bad_settings_config(tmp_path, line))
    with pytest.raises(ConfigError, match=key):
        run_experiment(config, output_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@BAD_SETTINGS
def test_cli_rejects_non_finite_and_negative_settings(tmp_path, capsys, line, key):
    cfg = bad_settings_config(tmp_path, line)
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: ")
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_failed_job_does_not_stop_others(tmp_path, capsys, jobs):
    bad = write_cfg(tmp_path, "problem = advection2d\n", name="bad.cfg")
    good = write_cfg(
        tmp_path, SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.005"), name="good.cfg"
    )
    out = str(tmp_path / "out")
    rc = cli_main(["run", str(bad), str(good), "--output-dir", out, "--jobs", jobs])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {bad}: " in captured.err and "missing required keys" in captured.err
    summaries = [json.loads(line) for line in captured.out.splitlines()]
    assert [s["status"] for s in summaries] == ["ok"]
    assert (tmp_path / "out" / "good" / "summary.json").exists()


def test_cli_pool_has_no_more_workers_than_runs(tmp_path, capsys, monkeypatch):
    # the stdlib pool forks every worker up front, so --jobs beyond the
    # number of configs must not reach it; an inline stand-in records it
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    small = SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.005")
    cfgs = [str(write_cfg(tmp_path, small, name=f"{name}.cfg")) for name in ("a", "b")]
    rc = cli_main(["run", *cfgs, "--output-dir", str(tmp_path / "out"), "--jobs", "64"])
    capsys.readouterr()
    assert rc == 0
    assert workers == [2]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_cfg(tmp_path, SMALL_ADVECTION)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", str(cfg), "--output-dir", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--jobs must be at least 1, got {jobs}" in captured.err
    assert not out.exists()


SMALL_KSE = """
problem = kse2d
dt = 1e-5
t_final = 3e-5
eps_inc = 10.0
dec_period = 10
reference = off
n = 9
"""


def test_cli_runs_without_output_dir_do_not_overwrite(tmp_path, capsys, monkeypatch):
    adv = write_cfg(
        tmp_path, SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.002"), name="adv.cfg"
    )
    kse = write_cfg(tmp_path, SMALL_KSE, name="kse.cfg")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli_main(["run", str(adv), str(kse)]) == 0
    assert json.loads((work / "adv" / "summary.json").read_text())["problem"] == "advection2d"
    assert json.loads((work / "kse" / "summary.json").read_text())["problem"] == "kse2d"
    assert sorted(p.name for p in work.iterdir()) == ["adv", "kse"]


def test_cli_run_accepts_preset_names(tmp_path, capsys, monkeypatch):
    # the preset runs are long, so only the resolution and the output layout
    # are checked, with run_experiment replaced by a recorder
    calls = []

    def fake_run(config, output_dir=None):
        calls.append((config.problem, output_dir))
        return {"status": "ok"}

    monkeypatch.setattr("fttpde.cli.run_experiment", fake_run)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "fp4d_fixed", "kse2d_inc10", "--output-dir", str(out)]) == 0
    assert calls == [("fp4d", str(out / "fp4d_fixed")), ("kse2d", str(out / "kse2d_inc10"))]
    assert cli_main(["run", "no_such_preset"]) == 1
    assert "error: no_such_preset: no config file or preset named" in capsys.readouterr().err


def test_cli_rejects_configs_with_the_same_stem(tmp_path, capsys):
    text = SMALL_ADVECTION.replace("t_final = 0.02", "t_final = 0.002")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_cfg(tmp_path / "a", text, name="x.cfg")
    second = write_cfg(tmp_path / "b", text, name="x.cfg")
    out = tmp_path / "out"
    assert cli_main(["run", str(first), str(second), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_blowup_aborts_with_lastgood_snapshot(tmp_path, capsys):
    # wildly unstable explicit step: the run must stop at the numerical
    # failure, keep the last finite state, and exit nonzero
    cfg = write_cfg(
        tmp_path,
        "problem = kse2d\ndt = 1.0\nt_final = 100.0\n"
        "max_ranks = 1,2,1\ndec_period = 0\nreference = off\n",
    )
    with np.errstate(all="ignore"):
        rc = cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    summary = json.loads(capsys.readouterr().out.strip())
    assert rc == 2
    assert summary["status"] == "nan"
    assert summary["steps_completed"] < 100
    assert (tmp_path / "out" / "snapshot_lastgood.fttsnap").exists()
    u = snapshots.load(tmp_path / "out" / "snapshot_lastgood.fttsnap")
    assert all(np.all(np.isfinite(c)) for c in u.cores)
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    assert len(lines) - 2 == summary["steps_completed"]


# ---------------------------------------------------------------------------
# README


def test_readme_library_names_resolve():
    # every F.<name> and F.<module>.<name> in README's python blocks, after
    # `import fttpde as F`
    import fttpde as F

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    names = set(re.findall(r"\bF\.(\w+(?:\.\w+)*)", "".join(blocks)))
    assert {"ftt.sketch_truncate", "AdaptiveState.initial"} <= names
    for name in sorted(names):
        obj = F
        for part in name.split("."):
            assert hasattr(obj, part), f"F.{name}"
            obj = getattr(obj, part)
