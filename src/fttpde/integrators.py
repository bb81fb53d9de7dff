"""Time stepping: projector-splitting sweep, step-truncation, BDF normal
estimation and the adaptive rank controller."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ftt import (
    FttTensor,
    _right_orthogonalized,
    add,
    norm,
    qr_core,
    scale,
    truncate,
    zero_pad,
)
from .operators import RhsEvaluator, eval_rhs

logger = logging.getLogger(__name__)

SCHEMES = ("lie_trotter", "step_truncation", "fixed_rank")


class HistoryNotReadyError(RuntimeError):
    """Not enough snapshots for the requested backward-difference order."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    eps_inc: float = math.inf
    eps_dec: float = 1e-12
    dec_period: int = 100
    bdf_points: int = 2
    scheme: str = "lie_trotter"
    max_ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.eps_inc < 0 or self.eps_dec < 0:
            raise ValueError("thresholds must be nonnegative")
        if self.bdf_points not in (2, 3):
            raise ValueError(f"bdf_points must be 2 or 3, got {self.bdf_points}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


@dataclass
class StepRecord:
    t: float
    ranks: tuple[int, ...]
    normal_norm: float | None
    event: str
    added: int = 0
    removed: int = 0


@dataclass
class AdaptiveState:
    """Mutable integration state; adaptive_step updates it in place."""

    u: FttTensor
    t: float
    step_index: int = 0
    history: list[tuple[float, FttTensor]] = field(default_factory=list)
    prev_tangent: FttTensor | None = None
    logs: list[StepRecord] = field(default_factory=list)
    eps_inc_warned: bool = False

    @classmethod
    def initial(cls, u: FttTensor, t0: float = 0.0) -> "AdaptiveState":
        return cls(u=u, t=t0, history=[(t0, u)])


# ---------------------------------------------------------------------------
# projector-splitting sweep

def lie_trotter_step(u: FttTensor, delta_u: FttTensor) -> FttTensor:
    """One forward sweep of the first-order splitting with increment delta_u.

    Alternates exactly-solved updates: each axis gets its core enriched by
    the increment contracted against the current left-orthonormal and
    right-orthonormal environments, followed by a compensating subtraction
    on the connecting matrix.  Output ranks equal input ranks and the
    result is left-orthogonal.
    """
    if not u.domain.matches(delta_u.domain):
        raise ValueError("increment lives on a different domain")
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
    return FttTensor(cores_out, u.domain, left_orth_upto=d - 1)


# ---------------------------------------------------------------------------
# step-truncation

def step_truncation_step(u: FttTensor, delta_u: FttTensor, tol: float, max_ranks=None) -> FttTensor:
    """Full-space step u + delta_u rounded back to low rank at relative
    tolerance tol, with interface ranks capped by max_ranks (length d+1)."""
    out, _ = truncate(add(u, delta_u), tol, max_ranks)
    return out


# ---------------------------------------------------------------------------
# normal-component estimation

def bdf_tangent_estimate(history, p: int, dt: float) -> FttTensor:
    """Backward-difference velocity estimate from stored snapshots.

    history is a sequence of (t, tensor) pairs ordered by time; the last
    entry is the current snapshot.
    """
    if len(history) < p:
        raise HistoryNotReadyError(f"need {p} snapshots, have {len(history)}")
    if p == 2:
        u_i = history[-1][1]
        u_im1 = history[-2][1]
        est = add(scale(u_i, 1.0 / dt), scale(u_im1, -1.0 / dt))
    elif p == 3:
        u_i = history[-1][1]
        u_im1 = history[-2][1]
        u_im2 = history[-3][1]
        est = add(
            add(scale(u_i, 3.0 / (2 * dt)), scale(u_im1, -4.0 / (2 * dt))),
            scale(u_im2, 1.0 / (2 * dt)),
        )
    else:
        raise ValueError(f"only 2- and 3-point formulas are supported, got p={p}")
    out, _ = truncate(est, 1e-12)
    return out


def normal_component(g: FttTensor, tangent_est: FttTensor) -> tuple[FttTensor, float]:
    """Residual of the velocity after removing the estimated tangential part."""
    n_t = add(g, scale(tangent_est, -1.0))
    return n_t, norm(n_t)


def _interior_rank_sum(u: FttTensor) -> int:
    return sum(u.ranks[1:-1])


# ---------------------------------------------------------------------------
# adaptive controller

def adaptive_step(state: AdaptiveState, rhs: RhsEvaluator, config: IntegratorConfig) -> AdaptiveState:
    """Advance one step: estimate the normal component, grow rank when it
    exceeds eps_inc, take a splitting (or step-truncation) step, and shrink
    rank every dec_period steps."""
    dt = config.dt
    u = state.u
    g = eval_rhs(rhs, u)

    normal_norm = None
    event = "none"
    added = removed = 0

    p_eff = min(config.bdf_points, len(state.history))
    tangent = None
    if p_eff >= 2:
        tangent = bdf_tangent_estimate(state.history, p_eff, dt)
        n_tensor, normal_norm = normal_component(g, tangent)
        if config.scheme == "lie_trotter":
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
            if normal_norm > config.eps_inc:
                n_compressed, _ = truncate(n_tensor, 1e-2)
                before = _interior_rank_sum(u)
                u = zero_pad(u, n_compressed)
                added = _interior_rank_sum(u) - before
                event = f"inc:{added}"
                g = eval_rhs(rhs, u)

    if config.scheme == "step_truncation":
        u_new = step_truncation_step(u, scale(g, dt), config.eps_dec, config.max_ranks)
    else:
        u_new = lie_trotter_step(u, scale(g, dt))
        if (
            config.scheme == "lie_trotter"
            and config.dec_period > 0
            and (state.step_index + 1) % config.dec_period == 0
        ):
            before = _interior_rank_sum(u_new)
            u_new, _ = truncate(u_new, config.eps_dec)
            removed = before - _interior_rank_sum(u_new)
            if removed > 0 and event == "none":
                event = f"dec:{removed}"

    t_new = state.t + dt
    state.u = u_new
    state.t = t_new
    state.step_index += 1
    state.prev_tangent = tangent
    state.history.append((t_new, u_new))
    keep = max(config.bdf_points, 2)
    if len(state.history) > keep:
        del state.history[: len(state.history) - keep]
    state.logs.append(
        StepRecord(
            t=t_new,
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
    """Classical fourth-order Runge-Kutta update on dense arrays."""
    k1 = rhs_dense(u)
    k2 = rhs_dense(u + 0.5 * dt * k1)
    k3 = rhs_dense(u + 0.5 * dt * k2)
    k4 = rhs_dense(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
