"""Time stepping: projector-splitting sweep, BDF normal estimation and the
adaptive rank controller."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ftt import (
    FttTensor,
    _check_same_domain,
    _right_orthogonalized,
    add,
    norm,
    qr_core,
    scale,
    sketch_truncate,
    truncate,
    zero_pad,
)
from .operators import Rhs, eval_rhs

logger = logging.getLogger(__name__)

# backward-difference weights per number of points, newest snapshot first:
# the velocity estimate is sum_k c_k u_{i-k} / dt
BDF_COEFFS = {2: (1.0, -1.0), 3: (1.5, -2.0, 0.5)}

# the parts of a step timed in AdaptiveState.phase_s: G (both evaluations of
# an addition step), the normal estimate, the mode addition, the sweep, and
# the periodic removal
PHASES = ("rhs", "estimate", "pad", "sweep", "dec")


class HistoryNotReadyError(RuntimeError):
    """Not enough snapshots for the requested backward-difference order."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    eps_inc: float = math.inf
    eps_dec: float = 1e-12
    dec_period: int = 100
    bdf_points: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        # eps_inc = inf means never add modes; eps_dec = nan or inf would
        # truncate every decrement sweep to rank 1
        if not (self.eps_inc >= 0 and 0 <= self.eps_dec < math.inf):
            raise ValueError(
                "eps_inc must be nonnegative and eps_dec nonnegative and finite, "
                f"got {self.eps_inc} and {self.eps_dec}"
            )
        if self.dec_period < 0:
            raise ValueError(f"dec_period must be nonnegative, got {self.dec_period}")
        if self.bdf_points not in BDF_COEFFS:
            raise ValueError(f"bdf_points must be in {tuple(BDF_COEFFS)}, got {self.bdf_points}")


@dataclass
class StepRecord:
    ranks: tuple[int, ...]
    normal_norm: float | None
    event: str
    # modes the step's sweep kept of those the addition padded in
    added: int = 0
    removed: int = 0


@dataclass
class AdaptiveState:
    """Mutable integration state; adaptive_step updates it in place."""

    u: FttTensor
    # the last bdf_points states, oldest first; step k's state is at k * dt
    history: list[FttTensor] = field(default_factory=list)
    prev_tangent: FttTensor | None = None
    # one record per step taken, so len(logs) is the step count
    logs: list[StepRecord] = field(default_factory=list)
    eps_inc_warned: bool = False
    # ranks of the last rounded right-hand side: the rank hint of the next
    # evaluation (None until the first one)
    g_ranks: tuple[int, ...] | None = None
    # seconds adaptive_step spent in each of PHASES, summed over the steps
    phase_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))

    @classmethod
    def initial(cls, u: FttTensor) -> "AdaptiveState":
        return cls(u=u, history=[u])


# ---------------------------------------------------------------------------
# projector-splitting sweep

def lie_trotter_step(u: FttTensor, delta_u: FttTensor) -> FttTensor:
    """One forward sweep of the first-order splitting with increment delta_u.

    Alternates exactly-solved updates: each axis gets its core enriched by
    the increment contracted against the current left-orthonormal and
    right-orthonormal environments, followed by a compensating subtraction
    on the connecting matrix.  Output ranks equal input ranks, except that
    a rank above its grid cap (left of a zero_pad) drops to the cap, and
    the result is left-orthogonal.
    """
    _check_same_domain(u, delta_u)
    d = u.ndim
    v = _right_orthogonalized(u)
    weights = [g.weights for g in u.domain.axes]
    dcores = delta_u.cores

    # right environments: env[k] contracts the increment against the
    # right-orthonormal solution cores on axes k..d-1 (0-based)
    env = [None] * (d + 1)
    env[d] = np.ones((1, 1))
    for k in range(d - 1, 0, -1):
        x = np.tensordot(dcores[k], env[k + 1], axes=(2, 0))  # (rd, n, ru)
        x = x * weights[k][None, :, None]
        env[k] = np.tensordot(x, v.cores[k], axes=([1, 2], [1, 2]))  # (rd_{k-1}, ru_{k-1})

    left = np.ones((1, 1))  # (ru_left, rd_left)
    cores_out: list[np.ndarray] = []
    work = v.cores[0]
    for k in range(d - 1):
        x = np.tensordot(left, dcores[k], axes=(1, 0))  # (ru, n, rd_k)
        plus = np.tensordot(x, env[k + 1], axes=(2, 0))  # (ru, n, ru_k)
        q, rfac = qr_core(work + plus, weights[k], "left")
        cores_out.append(q)
        y = np.tensordot(q * weights[k][None, :, None], left, axes=(0, 0))  # (n, ru_k, rd)
        left = np.tensordot(y, dcores[k], axes=([0, 2], [1, 0]))  # (ru_k, rd_k)
        minus = left @ env[k + 1]
        work = np.tensordot(rfac - minus, v.cores[k + 1], axes=(1, 0))
    x = np.tensordot(left, dcores[d - 1], axes=(1, 0))
    plus = np.tensordot(x, env[d], axes=(2, 0))
    cores_out.append(work + plus)
    return FttTensor(cores_out, u.domain)


# ---------------------------------------------------------------------------
# normal-component estimation

def bdf_tangent_estimate(history, p: int, dt: float, ranks=None) -> FttTensor:
    """Backward-difference velocity estimate from stored snapshots, rounded
    at relative tolerance 1e-12.

    history is a sequence of tensors dt apart, oldest first; the last
    entry is the current snapshot.  ranks (length d+1), when given, hints
    at the rounded ranks, e.g. those of the last estimate along the same
    trajectory, for the randomized rounding `sketch_truncate`, which
    falls back to `truncate` without it.
    """
    if len(history) < p:
        raise HistoryNotReadyError(f"need {p} snapshots, have {len(history)}")
    if p not in BDF_COEFFS:
        raise ValueError(f"no {p}-point formula; choose from {tuple(BDF_COEFFS)}")
    coeffs = BDF_COEFFS[p]
    est = scale(history[-1], coeffs[0] / dt)
    for k in range(1, p):
        est = add(est, scale(history[-1 - k], coeffs[k] / dt))
    out, _ = sketch_truncate(est, 1e-12, ranks)
    return out


def normal_component(g: FttTensor, tangent_est: FttTensor) -> tuple[FttTensor, float]:
    """Residual of the velocity after removing the estimated tangential
    part, right-orthogonalized down to core 2 so that its norm is read off
    the first core and rounding it skips its own sweep."""
    n_t = _right_orthogonalized(add(g, scale(tangent_est, -1.0)))
    return n_t, norm(n_t)


def _interior_rank_sum(u: FttTensor) -> int:
    return sum(u.ranks[1:-1])


# ---------------------------------------------------------------------------
# adaptive controller

def adaptive_step(state: AdaptiveState, rhs: Rhs, config: IntegratorConfig) -> AdaptiveState:
    """Advance one step: estimate the normal component, grow rank when it
    exceeds eps_inc, take a projector-splitting step, and shrink rank
    every dec_period steps.  The time of each phase is added to
    state.phase_s."""
    dt = config.dt
    u = state.u
    clock = time.perf_counter
    start = clock()

    def lap(phase):
        # book the time since the last lap to phase
        nonlocal start
        now = clock()
        state.phase_s[phase] += now - start
        start = now

    g = eval_rhs(rhs, u, state.g_ranks)
    lap("rhs")

    normal_norm = None
    event = "none"
    added = removed = 0

    p_eff = min(config.bdf_points, len(state.history))
    tangent = None
    if p_eff >= 2:
        hint = None if state.prev_tangent is None else state.prev_tangent.ranks
        tangent = bdf_tangent_estimate(state.history, p_eff, dt, hint)
        n_tensor, normal_norm = normal_component(g, tangent)
        if (
            state.prev_tangent is not None
            and not state.eps_inc_warned
            and math.isfinite(config.eps_inc)
        ):
            drift = norm(add(tangent, scale(state.prev_tangent, -1.0)))
            est_err = drift / p_eff
            if config.eps_inc < 10.0 * est_err:
                logger.warning(
                    "eps_inc=%.3g is below 10x the backward-difference error "
                    "estimate %.3g; spurious mode additions are possible",
                    config.eps_inc,
                    est_err,
                )
                state.eps_inc_warned = True
        lap("estimate")

    padded = normal_norm is not None and normal_norm > config.eps_inc
    if padded:
        before = _interior_rank_sum(u)
        u = zero_pad(u, n_tensor, 1e-2)
        lap("pad")
        # the padded train is the same function, so G's ranks are too
        g = eval_rhs(rhs, u, g.ranks)
        lap("rhs")

    u_new = lie_trotter_step(u, scale(g, dt))
    lap("sweep")
    if padded:
        # the modes the sweep kept: it drops a pad above a grid cap
        added = _interior_rank_sum(u_new) - before
        event = f"inc:{added}"
    if config.dec_period > 0 and (len(state.logs) + 1) % config.dec_period == 0:
        before = _interior_rank_sum(u_new)
        u_new, _ = truncate(u_new, config.eps_dec)
        removed = before - _interior_rank_sum(u_new)
        if removed > 0 and event == "none":
            event = f"dec:{removed}"
        lap("dec")

    state.u = u_new
    state.prev_tangent = tangent
    state.g_ranks = g.ranks
    state.history.append(u_new)
    del state.history[: -config.bdf_points]
    state.logs.append(
        StepRecord(
            ranks=u_new.ranks,
            normal_norm=normal_norm,
            event=event,
            added=added,
            removed=removed,
        )
    )
    return state


# ---------------------------------------------------------------------------
# dense reference stepping

def rk4_dense_step(u: np.ndarray, rhs_dense, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update on dense arrays, with the
    operations of u + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4) and of the stages
    u + (dt/2) k1, u + (dt/2) k2, u + dt k3, in that order.

    Works in place in two arrays of its own, the stage and the sum, and
    drops each k once it is used, so that malloc hands its memory to the
    next evaluation.  Never writes into u or into an array rhs_dense
    returned, since rhs_dense may return its own input."""
    k = rhs_dense(u)
    stage = np.multiply(k, 0.5 * dt)
    np.add(u, stage, out=stage)
    k2 = rhs_dense(stage)
    acc = np.multiply(k2, 2.0)
    np.add(k, acc, out=acc)
    np.multiply(k2, 0.5 * dt, out=stage)  # k2 is not needed after this
    np.add(u, stage, out=stage)
    del k, k2
    k = rhs_dense(stage)
    if np.may_share_memory(k, stage):
        stage = np.empty_like(stage)
    np.multiply(k, 2.0, out=stage)
    np.add(acc, stage, out=acc)
    np.multiply(k, dt, out=stage)
    np.add(u, stage, out=stage)
    del k
    np.add(acc, rhs_dense(stage), out=acc)
    np.multiply(acc, dt / 6.0, out=acc)
    np.add(u, acc, out=acc)
    return acc
