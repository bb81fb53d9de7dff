"""The benchmark under perfbench/ reaches into the package by name; these
tests fail here, in the unit suite, when a name it binds goes away."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fttpde import problems, runner
from fttpde.cli import preset_path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    tracing = load_perfbench("tracing")
    assert set(tracing.TRACED) <= set(tracing.MODULES)
    for home, names in tracing.TRACED.items():
        module = importlib.import_module(f"fttpde.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fttpde.{home}.{name}"


def test_the_names_tracer_install_patches_exist():
    for cls in (problems.DenseRk4Reference, problems.CharacteristicsReference):
        assert callable(getattr(cls, "solution", None)), f"{cls.__name__}.solution"
    assert callable(getattr(problems, "rk4_dense_step", None))
    # the reference looks the step up as a module global, so the patch counts it
    assert "rk4_dense_step" in problems.DenseRk4Reference.solution.__code__.co_names


def test_the_runner_names_child_binds_exist():
    for name in ("adaptive_step", "parse_config", "run_experiment"):
        assert callable(getattr(runner, name, None)), f"fttpde.runner.{name}"
    # run_experiment looks the step up as a module global, so child.py's timer runs
    assert "adaptive_step" in runner.run_experiment.__code__.co_names


def test_every_workload_config_shortens_and_reports_its_scheme():
    # child.py replaces t_final of the parsed preset, as a workload's horizon
    # and as --steps * dt, and reads the scheme that run.py gates on
    for wl in load_perfbench("workloads").WORKLOADS.values():
        config = runner.parse_config(preset_path(wl.preset))
        assert config.scheme == "lie_trotter"
        for t_final in (wl.t_final, 6 * config.dt):
            if t_final is None:
                continue
            short = dataclasses.replace(config, t_final=t_final)
            assert short.t_final == t_final
            assert short.scheme == config.scheme
            assert dataclasses.replace(short, t_final=config.t_final) == config


class _FirstStep(Exception):
    pass


def test_set_up_ends_after_the_step_0_error_and_snapshot(tmp_path, monkeypatch):
    # child.py ends setup_s at the first call of the rebound
    # runner.adaptive_step: by then step 0's error and snapshot are done
    requested = []
    solution = problems.CharacteristicsReference.solution

    def spy(self, t):
        requested.append(t)
        return solution(self, t)

    seen = []

    def first_step(state, rhs, cfg):
        seen.append(((tmp_path / "snapshot_00000000.fttsnap").is_file(), list(requested)))
        raise _FirstStep

    monkeypatch.setattr(problems.CharacteristicsReference, "solution", spy)
    monkeypatch.setattr(runner, "adaptive_step", first_step)
    config = runner.RunConfig(problem="advection2d", dt=1e-3, t_final=2e-3, n=21)
    with pytest.raises(_FirstStep):
        runner.run_experiment(config, output_dir=tmp_path)
    assert seen == [(True, [0.0])]
