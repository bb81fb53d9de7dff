import json
import math

import numpy as np
import pytest

from fttpde import snapshots
from fttpde.cli import main as cli_main, preset_names, preset_path
from fttpde.runner import ConfigError, RunConfig, parse_config, run_experiment


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_ADVECTION = """
problem = advection2d
scheme = lie_trotter
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
    path = write_cfg(tmp_path, "problem = advection2d\nscheme = lie_trotter\ndt = fast\nt_final = 1\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config(path)


def test_parse_empty_file_lists_required(tmp_path):
    path = write_cfg(tmp_path, "# nothing here\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    for key in ("problem", "scheme", "dt", "t_final"):
        assert key in str(err.value)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_parse_duplicate_key(tmp_path):
    path = write_cfg(tmp_path, SMALL_ADVECTION + "\ndt = 1e-4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_max_ranks(tmp_path):
    path = write_cfg(tmp_path, "problem = fp4d\nscheme = fixed_rank\ndt = 1e-3\nt_final = 0.01\nmax_ranks = 1,2,3,2,1\n")
    assert parse_config(path).max_ranks == (1, 2, 3, 2, 1)


def test_parse_inf_threshold(tmp_path):
    path = write_cfg(tmp_path, "problem = advection2d\nscheme = lie_trotter\ndt = 1e-3\nt_final = 0.01\neps_inc = inf\n")
    assert math.isinf(parse_config(path).eps_inc)


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


def test_summary_contents(small_run):
    _, outdir, summary = small_run
    stored = json.loads((outdir / "summary.json").read_text())
    assert stored["final_ranks"] == summary["final_ranks"]
    assert stored["steps_completed"] == 20
    assert stored["final_error"] is not None
    assert stored["final_error"] < 1e-2


def test_snapshot_round_trip_from_run(small_run):
    _, outdir, summary = small_run
    u = snapshots.load(outdir / "snapshot_00000020.fttsnap")
    assert list(u.ranks) == summary["final_ranks"]


def test_run_log_echoes_parameters(small_run):
    _, outdir, _ = small_run
    text = (outdir / "run.log").read_text()
    assert "eps_inc = 0.01" in text
    assert "grid = 21x21" in text


def test_rerun_is_byte_identical(small_run, tmp_path):
    config, outdir, _ = small_run
    run_experiment(config, output_dir=tmp_path / "again")
    a = (outdir / "timeseries.csv").read_bytes()
    b = (tmp_path / "again" / "timeseries.csv").read_bytes()
    assert a == b


def test_fixed_rank_advection_keeps_rank(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "problem = advection2d\nscheme = fixed_rank\ndt = 1e-3\nt_final = 0.01\n"
        "max_ranks = 1,15,1\nreference = off\nn = 21\n",
    )
    summary = run_experiment(parse_config(cfg_path), output_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()[1:]
    r1 = {line.split(",")[4] for line in lines}
    assert summary["status"] == "ok"
    assert r1 == {"15"} or r1 == {str(min(15, 21))}


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


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = advection2d\n")
    assert cli_main(["run", str(cfg)]) == 1
    assert "missing required keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("problem = fp4d\nscheme = fixed_rank\ndt = 1e-3\nt_final = 0.01\n"
         "max_ranks = 1,2,1\nn = 7\n", "max_ranks"),
        ("problem = advection2d\nscheme = lie_trotter\ndt = 1e-3\nt_final = 0.01\nn = 2\n",
         "grid points"),
        ("problem = advection2d\nscheme = bogus\ndt = 1e-3\nt_final = 0.01\nn = 21\n", "scheme"),
        ("problem = advection2d\nscheme = lie_trotter\ndt = 1e-3\nt_final = 0.0026\nn = 21\n",
         "whole number of steps"),
    ],
    ids=["max_ranks_length", "too_few_points", "unknown_scheme", "fractional_steps"],
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


def test_blowup_aborts_with_lastgood_snapshot(tmp_path, capsys):
    # wildly unstable explicit step: the run must stop at the numerical
    # failure, keep the last finite state, and exit nonzero
    cfg = write_cfg(
        tmp_path,
        "problem = kse2d\nscheme = step_truncation\ndt = 1.0\nt_final = 100.0\n"
        "max_ranks = 1,2,1\neps_dec = 1e-10\nreference = off\n",
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
