"""The three benchmark problems: variable-coefficient advection in 2D,
the 2D Kuramoto-Sivashinsky equation, and a 4D Fokker-Planck equation,
each with an initial condition, a TT right-hand side, and a trusted
reference solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ftt import FttTensor, add, from_full, hadamard, scale, truncate
from .grids import Domain, ShapeError, torus_domain
from .integrators import rk4_dense_step
from .operators import (
    RhsEvaluator,
    SeparableOperator,
    apply_separable_dense,
    separable,
)


@dataclass
class ProblemSpec:
    name: str
    domain: Domain
    rhs: RhsEvaluator
    initial: FttTensor
    reference: "ReferenceSolver"
    params: dict = field(default_factory=dict)


class ReferenceSolver:
    """Produces trusted dense solutions at requested times."""

    def solution(self, t: float) -> np.ndarray:
        raise NotImplementedError


class CharacteristicsReference(ReferenceSolver):
    """Semi-analytical advection solution: trace each node along the
    coefficient field and evaluate the initial profile there."""

    def __init__(self, domain: Domain, velocity, ic_fn, ode_dt: float = 1e-3):
        self.domain = domain
        self.velocity = velocity
        self.ic_fn = ic_fn
        self.ode_dt = ode_dt

    def solution(self, t: float) -> np.ndarray:
        grids = np.meshgrid(*[g.nodes for g in self.domain.axes], indexing="ij")
        pos = np.stack(grids)
        if t > 0:
            n_steps = max(int(np.ceil(t / self.ode_dt)), 1)
            h = t / n_steps
            for _ in range(n_steps):
                k1 = self.velocity(pos)
                k2 = self.velocity(pos + 0.5 * h * k1)
                k3 = self.velocity(pos + 0.5 * h * k2)
                k4 = self.velocity(pos + h * k3)
                pos = pos + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return self.ic_fn(*pos)


class DenseRk4Reference(ReferenceSolver):
    """Full tensor-product pseudo-spectral solve advanced incrementally."""

    def __init__(self, domain: Domain, rhs_dense, u0: np.ndarray, dt_ref: float):
        self.domain = domain
        self.rhs_dense = rhs_dense
        self.dt_ref = dt_ref
        self._t = 0.0
        self._u = u0.copy()

    def solution(self, t: float) -> np.ndarray:
        """State at exactly time t: whole dt_ref steps, then one shorter step
        when the time left is not a whole number of them."""
        span = t - self._t
        if span < -1e-12:
            raise ValueError(f"reference already advanced past t={t}")
        ratio = max(span, 0.0) / self.dt_ref
        n_steps = int(round(ratio))
        rest = 0.0
        if abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
            n_steps = math.floor(ratio)
            rest = span - n_steps * self.dt_ref
        for _ in range(n_steps):
            self._u = rk4_dense_step(self._u, self.rhs_dense, self.dt_ref)
        if rest:
            self._u = rk4_dense_step(self._u, self.rhs_dense, rest)
        self._t = t
        return self._u.copy()


def l2_error(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Quadrature-weighted L2 norm of the difference of two dense arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape != domain.shape:
        raise ShapeError(f"shapes {a.shape}, {b.shape} do not match domain {domain.shape}")
    diff_sq = (a - b) ** 2
    for ax, g in enumerate(domain.axes):
        shape = [1] * domain.ndim
        shape[ax] = g.n
        diff_sq = diff_sq * g.weights.reshape(shape)
    return float(np.sqrt(diff_sq.sum()))


def marginal_2d(u: FttTensor, keep: tuple[int, int]) -> np.ndarray:
    """Integrate out every axis except the two kept ones (0-based indices)."""
    d = u.ndim
    i, j = keep
    if d < 3:
        raise ValueError("marginal_2d needs d >= 3")
    if i == j or not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"keep axes must be distinct and in range, got {keep}")
    acc = np.ones((1,))
    for k in range(d):
        core = u.cores[k]
        if k in (i, j):
            acc = np.tensordot(acc, core, axes=(acc.ndim - 1, 0))
        else:
            m = np.tensordot(core, u.domain.axes[k].weights, axes=(1, 0))
            acc = np.tensordot(acc, m, axes=(acc.ndim - 1, 0))
    out = acc[..., 0]
    if i > j:
        out = out.T
    return out


# ---------------------------------------------------------------------------
# 2D variable-coefficient advection

def _advection_ic(x1, x2):
    return np.exp(np.sin(x1 + x2))


def _advection_velocity(pos):
    return np.stack([np.sin(pos[0]) + np.cos(pos[1]), np.cos(pos[1])])


def advection2d(n: int = 81, reference_dt: float = 1e-3) -> ProblemSpec:
    """du/dt = (sin x1 + cos x2) d1u + cos x2 d2u on the 2-torus."""
    dom = torus_domain(2, n)
    g1, g2 = dom.axes
    d1a = g1.diff1
    d1b = g2.diff1
    sin1 = np.diag(np.sin(g1.nodes))
    cos2 = np.diag(np.cos(g2.nodes))
    op = separable(
        [
            (sin1 @ d1a, None),
            (d1a, cos2),
            (None, cos2 @ d1b),
        ],
        labels=("sin(x1) d/dx1", "cos(x2) d/dx1", "cos(x2) d/dx2"),
    )
    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    initial = from_full(_advection_ic(x1, x2), dom, 0.0, max_ranks=(1, 15, 1))
    rhs = RhsEvaluator(domain=dom, op=op)
    reference = CharacteristicsReference(
        dom, _advection_velocity, _advection_ic, ode_dt=reference_dt
    )
    return ProblemSpec("advection2d", dom, rhs, initial, reference)


def advection2d_reference(domain: Domain, t: float, ode_dt: float = 1e-3) -> np.ndarray:
    """Characteristics solution of the advection benchmark at time t.

    Each node is carried forward along the coefficient field for time t
    (the inverse of the flow along which the solution is transported), then
    the initial profile is evaluated there.
    """
    ref = CharacteristicsReference(domain, _advection_velocity, _advection_ic, ode_dt=ode_dt)
    return ref.solution(t)


def advection2d_rhs_dense(domain: Domain) -> Callable[[np.ndarray], np.ndarray]:
    """Dense spectral evaluator of the advection right-hand side."""
    g1, g2 = domain.axes
    a = np.sin(g1.nodes)[:, None] + np.cos(g2.nodes)[None, :]
    b = np.cos(g2.nodes)[None, :]
    d1a, d1b = g1.diff1, g2.diff1

    def rhs(u):
        return a * (d1a @ u) + b * (u @ d1b.T)

    return rhs


# ---------------------------------------------------------------------------
# 2D Kuramoto-Sivashinsky

def kse2d(
    n: int = 33, nu1: float = 0.25, nu2: float = 0.04, reference_dt: float = 1e-5
) -> ProblemSpec:
    """du/dt = -1/2 |grad_nu u|^2 - lap_nu u - nu1 lap_nu^2 u on the 2-torus,
    with the anisotropy nu = nu2/nu1 entering the y-direction operators."""
    nu = nu2 / nu1
    dom = torus_domain(2, n)
    g1, g2 = dom.axes
    d1, d2, d4 = g1.diff1, g1.diff2, g1.diff4

    op_dx = separable([(d1, None)], labels=("d/dx",))
    op_dy = separable([(None, d1)], labels=("d/dy",))
    op_lin = separable(
        [
            (-d2 - nu1 * d4, None),
            (None, -nu * d2 - nu1 * nu**2 * d4),
            (-2.0 * nu1 * nu * d2, d2),
        ],
        labels=("x diffusion", "y diffusion", "cross hyperviscosity"),
    )

    def composite(u: FttTensor) -> FttTensor:
        ux = op_dx(u)
        uy = op_dy(u)
        sq_x, _ = truncate(hadamard(ux, ux), 1e-12)
        sq_y, _ = truncate(hadamard(uy, uy), 1e-12)
        grad_sq = add(sq_x, scale(sq_y, nu**2))
        lin = op_lin(u)
        return add(scale(grad_sq, -0.5), lin)

    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    ic = np.sin(x1 + x2) + np.sin(x1) + np.sin(x2)
    initial = from_full(ic, dom, 1e-12)

    def rhs_dense(u):
        ux = d1 @ u
        uy = u @ d1.T
        lap = d2 @ u + nu * (u @ d2.T)
        bilap = d4 @ u + 2.0 * nu * (d2 @ u @ d2.T) + nu**2 * (u @ d4.T)
        return -0.5 * (ux**2 + nu**2 * uy**2) - lap - nu1 * bilap

    rhs = RhsEvaluator(domain=dom, op=composite)
    reference = DenseRk4Reference(dom, rhs_dense, ic, dt_ref=reference_dt)
    return ProblemSpec(
        "kse2d", dom, rhs, initial, reference, params={"nu1": nu1, "nu2": nu2, "nu": nu}
    )


# ---------------------------------------------------------------------------
# 4D Fokker-Planck

def fp4d_operator(domain: Domain, alpha: float, beta: float, k: float) -> SeparableOperator:
    """Drift/diffusion generator written as a rank-9 separable operator."""
    g1, g2, g3, g4 = domain.axes
    d1 = [g.diff1 for g in domain.axes]
    d2 = [g.diff2 for g in domain.axes]
    sin = [np.diag(np.sin(g.nodes)) for g in domain.axes]
    cos1 = np.diag(np.cos(g1.nodes))
    gsq = [np.diag(1.0 + k * np.sin(g.nodes)) for g in domain.axes]
    terms = [
        (-alpha * cos1, None, None, None),
        (-alpha * sin[0] @ d1[0], None, None, None),
        (None, -alpha * d1[1], sin[2], None),
        (None, None, -alpha * d1[2], sin[3]),
        (-alpha * sin[0], None, None, d1[3]),
        (beta * d2[0], gsq[1], None, None),
        (None, beta * d2[1], gsq[2], None),
        (None, None, beta * d2[2], gsq[3]),
        (gsq[0], None, None, beta * d2[3]),
    ]
    labels = (
        "-a cos(x1)",
        "-a sin(x1) d1",
        "-a sin(x3) d2",
        "-a sin(x4) d3",
        "-a sin(x1) d4",
        "b g(x2)^2 d1^2",
        "b g(x3)^2 d2^2",
        "b g(x4)^2 d3^2",
        "b g(x1)^2 d4^2",
    )
    return separable(terms, labels=labels)


def fp4d(
    n: int = 21, alpha: float = 0.1, beta: float = 2.0, k: float = 1.0, reference_dt: float = 1e-3
) -> ProblemSpec:
    """dp/dt = L p on the 4-torus with sinusoidal drift and g^2 = 1 + k sin
    diffusion coefficients; the initial profile is a rank-1 product of sines
    normalized by its L1 norm (integral of |sin| is 4 per axis, so 256)."""
    dom = torus_domain(4, n)
    op = fp4d_operator(dom, alpha, beta, k)
    grids = np.meshgrid(*[g.nodes for g in dom.axes], indexing="ij")
    dense_ic = np.sin(grids[0]) * np.sin(grids[1]) * np.sin(grids[2]) * np.sin(grids[3]) / 256.0
    initial = from_full(dense_ic, dom, 1e-12)
    rhs = RhsEvaluator(domain=dom, op=op)

    def rhs_dense(p):
        return apply_separable_dense(op, p)

    reference = DenseRk4Reference(dom, rhs_dense, dense_ic, dt_ref=reference_dt)
    return ProblemSpec(
        "fp4d", dom, rhs, initial, reference, params={"alpha": alpha, "beta": beta, "k": k}
    )


PROBLEM_BUILDERS = {
    "advection2d": advection2d,
    "kse2d": kse2d,
    "fp4d": fp4d,
}


def build_problem(
    name: str, n: int | None = None, reference_dt: float | None = None
) -> ProblemSpec:
    """Build a benchmark problem; n and reference_dt default to the builder's own."""
    if name not in PROBLEM_BUILDERS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEM_BUILDERS)}")
    kwargs = {"n": n, "reference_dt": reference_dt}
    return PROBLEM_BUILDERS[name](**{k: v for k, v in kwargs.items() if v is not None})
