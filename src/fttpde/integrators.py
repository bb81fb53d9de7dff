"""Time stepping: projector-splitting sweep, BDF normal estimation and the
adaptive rank controller."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ftt import (
    FttTensor,
    _check_same_domain,
    add,
    left_times,
    norm,
    orthogonalize,
    qr_core,
    right_envs,
    scale,
    sketch_truncate,
    truncate,
    zero_pad,
)
from .operators import Rhs, eval_rhs

# backward-difference weights per number of points, newest snapshot first:
# the velocity estimate is sum_k c_k u_{i-k} / dt
BDF_COEFFS = {2: (1.0, -1.0), 3: (1.5, -2.0, 0.5)}

# the parts of a step timed in AdaptiveState.phase_s: G (both evaluations of
# an addition step), the normal estimate, the mode addition, the sweep, and
# the periodic removal
PHASES = ("rhs", "estimate", "pad", "sweep", "dec")

# an addition rounds the normal N at max(PAD_FLOOR, PAD_SAFETY * eps_inc / |N|):
# where the second term is active it leaves out at most PAD_SAFETY * eps_inc
# of N, which keeps the first-order normal under eps_inc; a step pads only
# when |N| > eps_inc, so the tolerance stays below PAD_SAFETY
PAD_FLOOR, PAD_SAFETY = 1e-2, 0.5


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
    # one record per step taken, so len(logs) is the step count
    logs: list[StepRecord] = field(default_factory=list)
    # ranks of the last rounded right-hand side and of the last tangent
    # estimate: the rank hints of the next ones (None until the first one)
    g_ranks: tuple[int, ...] | None = None
    tangent_ranks: tuple[int, ...] | None = None
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
    v = orthogonalize(u)
    weights = [g.weights for g in u.domain.axes]
    env = right_envs(delta_u, None, v.cores, weights)
    left = np.ones((1, 1))  # the output's cores ..k-1 against the increment's
    cores_out: list[np.ndarray] = []
    work = v.cores[0]
    for k in range(d - 1):
        z = left_times(left, delta_u, None, k)
        q, rfac = qr_core(work + np.tensordot(z, env[k + 1], axes=(2, 0)), weights[k], "left")
        cores_out.append(q)
        left = np.tensordot(q * weights[k][None, :, None], z, axes=([0, 1], [0, 1]))
        work = np.tensordot(rfac - left @ env[k + 1], v.cores[k + 1], axes=(1, 0))
    cores_out.append(work + left_times(left, delta_u, None, d - 1))
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
    n_t = orthogonalize(add(g, scale(tangent_est, -1.0)))
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
    tangent_ranks = None
    if p_eff >= 2:
        tangent = bdf_tangent_estimate(state.history, p_eff, dt, state.tangent_ranks)
        tangent_ranks = tangent.ranks
        n_tensor, normal_norm = normal_component(g, tangent)
        lap("estimate")

    padded = normal_norm is not None and normal_norm > config.eps_inc
    if padded:
        before = _interior_rank_sum(u)
        pad_tol = max(PAD_FLOOR, PAD_SAFETY * config.eps_inc / normal_norm)
        u = zero_pad(u, n_tensor, pad_tol)
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
    state.tangent_ranks = tangent_ranks
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
