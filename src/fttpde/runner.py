"""Configuration-driven experiment execution and file outputs."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .ftt import to_full, truncate
from .integrators import AdaptiveState, IntegratorConfig, StepRecord, adaptive_step
from .problems import build_problem, l2_error
from . import snapshots


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True, kw_only=True)
class RunConfig(IntegratorConfig):
    """A run's settings: IntegratorConfig's, then the run's own keys."""
    problem: str
    # not a config key: perfbench/child.py and perfbench/run.py read config.scheme
    scheme: ClassVar[str] = "lie_trotter"
    t_final: float
    max_ranks: tuple[int, ...] | None = None
    reference: bool = True
    output_dir: str | None = None
    snapshot_every: int = 0
    n: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be nonnegative, got {self.snapshot_every}")
        ratio = self.t_final / self.dt
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
            raise ValueError(f"t_final / dt = {ratio!r} is not a nonnegative whole number of steps")


_REQUIRED_KEYS = [f.name for f in fields(RunConfig) if f.default is MISSING]

# each key is parsed by the type of its field; a key typed "X | None" takes an X
_TYPE_PARSERS = {
    "str": str,
    "float": float,
    "int": int,
    "bool": lambda s: {"on": True, "off": False, "true": True, "false": False}[s.lower()],
    "tuple[int, ...]": lambda s: tuple(int(x) for x in s.split(",")),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    """Strict parse of a flat ``key = value`` document.

    Blank lines and lines starting with '#' are ignored; unknown keys and
    unparsable values are errors naming the offending key.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for key {key!r}: {val!r}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _validated_setup(config: RunConfig):
    """Build the problem and check max_ranks against it, raising ConfigError
    for any invalid value before a run writes anything."""
    try:
        # unknown problem, or too few or too many grid points
        problem = build_problem(config.problem, n=config.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d = problem.domain.ndim
    mr = config.max_ranks
    if mr is not None and (len(mr) != d + 1 or mr[0] != 1 or mr[-1] != 1 or min(mr) < 1):
        raise ConfigError(
            f"max_ranks must be {d + 1} positive ranks starting and ending with 1, got {mr}"
        )
    return problem


def _tensor_is_finite(u) -> bool:
    return all(np.all(np.isfinite(c)) for c in u.cores)


def run_experiment(config: RunConfig, output_dir=None) -> dict:
    """Execute one run and write timeseries.csv, singular_values.csv,
    snapshots, run.log and summary.json into the output directory.

    Returns the summary dict; summary["status"] is "ok" on completion and
    "nan" if the solution left the finite range (the last finite state is
    preserved as snapshot_lastgood.fttsnap).  A file that cannot be written
    raises ConfigError naming its path; the files written before it stay."""
    t_start = time.perf_counter()
    problem = _validated_setup(config)
    n_steps = round(config.t_final / config.dt)
    out = Path(output_dir or config.output_dir or ".")
    dom = problem.domain

    u0 = problem.initial
    if config.max_ranks is not None:
        u0, _ = truncate(u0, 0.0, max_ranks=config.max_ranks)

    reference = problem.reference if config.reference else None
    # step 0 is a snapshot step; a zero-step run must not take a modulo by 0
    snap_every = config.snapshot_every or max(n_steps, 1)
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")

    header = ["t", "l2_error", "normal_norm", *(f"r{k}" for k in range(dom.ndim + 1)), "event"]
    state = AdaptiveState.initial(u0)
    status = "ok"
    g_rank_max = 0
    reference_s = snapshot_s = 0.0

    def measure_error(u, t):
        nonlocal reference_s
        if reference is None:
            return None
        t_ref = time.perf_counter()
        exact = reference.solution(t)
        reference_s += time.perf_counter() - t_ref
        return l2_error(to_full(u), exact, dom)

    def record_snapshot(u, t, step, sv_fh):
        nonlocal snapshot_s
        t_snap = time.perf_counter()
        snapshots.save(u, out / f"snapshot_{step:08d}.fttsnap")
        _, schmidt = truncate(u, 0.0)
        for iface, svec in enumerate(schmidt, start=1):
            for idx, sigma in enumerate(svec):
                sv_fh.write(f"{_fmt(t)},{iface},{idx},{_fmt(sigma)}\n")
        snapshot_s += time.perf_counter() - t_snap

    # every file the run writes is under this one guard
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "run.log", "w") as fh:
            for f in fields(config):
                fh.write(f"{f.name} = {getattr(config, f.name)}\n")
            for key, val in problem.params.items():
                fh.write(f"param:{key} = {val}\n")
            fh.write(f"grid = {'x'.join(str(n) for n in dom.shape)}\n")
            fh.write(f"reference_dt = {problem.reference.dt_ref}\n")
            fh.write(f"n_steps = {n_steps}\n")
            fh.write(f"numpy = {np.__version__}\n")
            fh.write(f"blas_threads = {blas_threads}\n")

        with (
            open(out / "timeseries.csv", "w", newline="") as csv_fh,
            open(out / "singular_values.csv", "w") as sv_fh,
        ):
            csv_fh.write(",".join(header) + "\n")
            sv_fh.write("t,interface,index,sigma\n")
            u, rec = u0, StepRecord(u0.ranks, None, "none")
            for step in range(n_steps + 1):
                if step > 0:
                    try:
                        state = adaptive_step(state, problem.rhs, config)
                        blown_up = not _tensor_is_finite(state.u)
                    except np.linalg.LinAlgError:
                        # overflow can surface as a non-converging SVD before
                        # the finiteness check sees the state
                        blown_up = True
                    if blown_up:
                        del state.logs[step - 1 :]  # the failed step may have logged a record
                        snapshots.save(u, out / "snapshot_lastgood.fttsnap")
                        status = "nan"
                        break
                    u, rec = state.u, state.logs[-1]
                    g_rank_max = max(g_rank_max, *state.g_ranks[1:-1])
                t = step * config.dt
                err = None
                if step % snap_every == 0 or step == n_steps:
                    err = last_error = measure_error(u, t)
                    record_snapshot(u, t, step, sv_fh)
                row = [_fmt(t), _fmt(err), _fmt(rec.normal_norm), *map(str, rec.ranks), rec.event]
                csv_fh.write(",".join(row) + "\n")

        steps_done = len(state.logs)
        incs = [rec.added for rec in state.logs if rec.event.startswith("inc:")]
        decs = [rec.removed for rec in state.logs if rec.removed > 0]
        # modes added and then removed again: per removal window, the smaller of
        # the modes added in it and the modes its sweep removed
        spurious = window = 0
        for step, rec in enumerate(state.logs, start=1):
            window += rec.added
            if config.dec_period > 0 and step % config.dec_period == 0:
                spurious += min(window, rec.removed)
                window = 0

        # the decision closest to its threshold: the smallest relative margin
        # |normal_norm - eps_inc| / eps_inc over the steps that computed a normal
        margins = [
            (abs(rec.normal_norm - config.eps_inc) / config.eps_inc, step)
            for step, rec in enumerate(state.logs, start=1)
            if rec.normal_norm is not None and 0 < config.eps_inc < math.inf
        ]
        margin, margin_step = min(margins, default=(None, None))

        summary = {
            "problem": config.problem,
            "dt": config.dt,
            "t_final": config.t_final,
            "eps_inc": config.eps_inc if math.isfinite(config.eps_inc) else "inf",
            "eps_dec": config.eps_dec,
            "status": status,
            "steps_completed": steps_done,
            "final_t": steps_done * config.dt,
            "final_ranks": list(u.ranks),
            "final_error": last_error,
            "inc_events": len(incs),
            "dec_events": len(decs),
            "modes_added": sum(incs),
            "modes_removed": sum(decs),
            "spurious_modes": spurious,
            # one evaluation per step and a second on each addition step
            "rhs_evals": steps_done + len(incs),
            "g_rank_max": g_rank_max,
            "min_threshold_margin": margin,
            "min_threshold_margin_step": margin_step,
            "wall_time_s": time.perf_counter() - t_start,
            "reference_s": reference_s,
            "snapshot_s": snapshot_s,
            "phase_s": state.phase_s,
            "blas_threads": blas_threads,
        }
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(exc.filename or out)!r}: {exc.strerror}") from exc
    return summary
