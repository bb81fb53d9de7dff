"""Configuration-driven experiment execution and file outputs."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .ftt import to_full, truncate
from .integrators import AdaptiveState, IntegratorConfig, adaptive_step
from .problems import build_problem, l2_error
from . import snapshots


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    problem: str
    scheme: str
    dt: float
    t_final: float
    eps_inc: float = math.inf
    eps_dec: float = 1e-12
    dec_period: int = 100
    bdf_points: int = 2
    max_ranks: tuple[int, ...] | None = None
    reference: bool = True
    reference_dt: float | None = None
    output_dir: str | None = None
    snapshot_every: int = 0
    seed: int | None = None
    n: int | None = None


_REQUIRED_KEYS = ("problem", "scheme", "dt", "t_final")

_PARSERS = {
    "problem": str,
    "scheme": str,
    "dt": float,
    "t_final": float,
    "eps_inc": float,
    "eps_dec": float,
    "dec_period": int,
    "bdf_points": int,
    "max_ranks": lambda s: tuple(int(x) for x in s.split(",")),
    "reference": lambda s: {"on": True, "off": False, "true": True, "false": False}[s.lower()],
    "reference_dt": float,
    "output_dir": str,
    "snapshot_every": int,
    "seed": int,
    "n": int,
}


def parse_config(path) -> RunConfig:
    """Strict parse of a flat ``key = value`` document.

    Blank lines and lines starting with '#' are ignored; unknown keys and
    unparsable values are errors naming the offending key.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError("config file not found")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
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
    return RunConfig(**values)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _validated_setup(config: RunConfig):
    """Build the problem, the integrator settings and the step count, raising
    ConfigError for any invalid value before a run writes anything."""
    if config.reference_dt is not None and not config.reference_dt > 0:
        raise ConfigError(f"reference_dt must be positive, got {config.reference_dt}")
    try:
        # unknown problem, too few grid points, or a value IntegratorConfig rejects
        problem = build_problem(config.problem, n=config.n, reference_dt=config.reference_dt)
        integ = IntegratorConfig(
            dt=config.dt,
            eps_inc=config.eps_inc,
            eps_dec=config.eps_dec,
            dec_period=config.dec_period,
            bdf_points=config.bdf_points,
            scheme=config.scheme,
            max_ranks=config.max_ranks,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d = problem.domain.ndim
    mr = config.max_ranks
    if mr is not None and (len(mr) != d + 1 or mr[0] != 1 or mr[-1] != 1 or min(mr) < 1):
        raise ConfigError(
            f"max_ranks must be {d + 1} positive ranks starting and ending with 1, got {mr}"
        )
    ratio = config.t_final / config.dt
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
        raise ConfigError(f"t_final / dt = {ratio!r} is not a nonnegative whole number of steps")
    return problem, integ, round(ratio)


def _tensor_is_finite(u) -> bool:
    return all(np.all(np.isfinite(c)) for c in u.cores)


def run_experiment(config: RunConfig, output_dir=None) -> dict:
    """Execute one run and write timeseries.csv, singular_values.csv,
    snapshots, run.log and summary.json into the output directory.

    Returns the summary dict; summary["status"] is "ok" on completion and
    "nan" if the solution left the finite range (the last finite state is
    preserved as snapshot_lastgood.fttsnap)."""
    t_start = time.perf_counter()
    problem, integ, n_steps = _validated_setup(config)
    out = Path(output_dir or config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    dom = problem.domain
    d = dom.ndim

    u0 = problem.initial
    if config.max_ranks is not None:
        u0, _ = truncate(u0, 0.0, max_ranks=config.max_ranks)

    reference = problem.reference if config.reference else None
    snap_every = config.snapshot_every if config.snapshot_every > 0 else n_steps

    with open(out / "run.log", "w") as fh:
        fh.write(f"problem = {config.problem}\n")
        for f in fields(config):
            fh.write(f"{f.name} = {getattr(config, f.name)}\n")
        for key, val in problem.params.items():
            fh.write(f"param:{key} = {val}\n")
        fh.write(f"grid = {'x'.join(str(n) for n in dom.shape)}\n")
        fh.write(f"n_steps = {n_steps}\n")

    header = ["t", "l2_error", "normal_norm"] + [f"r{k}" for k in range(d + 1)] + ["event"]
    sv_rows = ["t,interface,index,sigma"]
    state = AdaptiveState.initial(u0)
    last_error = None
    status = "ok"
    inc_events = dec_events = modes_added = modes_removed = 0

    def measure_error(u, t):
        if reference is None:
            return None
        return l2_error(to_full(u), reference.solution(t), dom)

    def record_snapshot(u, t, step):
        snapshots.save(u, out / f"snapshot_{step:08d}.fttsnap")
        _, schmidt = truncate(u, 0.0)
        for iface, svec in enumerate(schmidt, start=1):
            for idx, sigma in enumerate(svec):
                sv_rows.append(f"{_fmt(t)},{iface},{idx},{_fmt(sigma)}")

    with open(out / "timeseries.csv", "w", newline="") as csv_fh:
        csv_fh.write(",".join(header) + "\n")
        err0 = measure_error(u0, 0.0)
        last_error = err0
        row = [_fmt(0.0), _fmt(err0), ""] + [str(r) for r in u0.ranks] + ["none"]
        csv_fh.write(",".join(row) + "\n")
        record_snapshot(u0, 0.0, 0)

        final_u, final_t, steps_done = u0, 0.0, 0
        for step in range(1, n_steps + 1):
            u_prev, t_prev = state.u, state.t
            try:
                state = adaptive_step(state, problem.rhs, integ)
                blown_up = not _tensor_is_finite(state.u)
            except np.linalg.LinAlgError:
                # overflow can surface as a non-converging SVD before the
                # finiteness check sees the state
                blown_up = True
            if blown_up:
                snapshots.save(u_prev, out / "snapshot_lastgood.fttsnap")
                status = "nan"
                final_u, final_t, steps_done = u_prev, t_prev, step - 1
                break
            final_u, final_t, steps_done = state.u, state.t, step
            rec = state.logs[-1]
            if rec.added > 0:
                inc_events += 1
                modes_added += rec.added
            if rec.removed > 0:
                dec_events += 1
                modes_removed += rec.removed
            err = None
            if step % snap_every == 0 or step == n_steps:
                err = measure_error(state.u, rec.t)
                last_error = err
                record_snapshot(state.u, rec.t, step)
            row = (
                [_fmt(rec.t), _fmt(err), _fmt(rec.normal_norm)]
                + [str(r) for r in rec.ranks]
                + [rec.event]
            )
            csv_fh.write(",".join(row) + "\n")

    (out / "singular_values.csv").write_text("\n".join(sv_rows) + "\n")

    summary = {
        "problem": config.problem,
        "scheme": config.scheme,
        "dt": config.dt,
        "t_final": config.t_final,
        "eps_inc": config.eps_inc if math.isfinite(config.eps_inc) else "inf",
        "eps_dec": config.eps_dec,
        "status": status,
        "steps_completed": steps_done,
        "final_t": final_t,
        "final_ranks": list(final_u.ranks),
        "final_error": last_error,
        "inc_events": inc_events,
        "dec_events": dec_events,
        "modes_added": modes_added,
        "modes_removed": modes_removed,
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
