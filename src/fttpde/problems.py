"""The three benchmark problems: variable-coefficient advection in 2D,
the 2D Kuramoto-Sivashinsky equation, and a 4D Fokker-Planck equation,
each with an initial condition, a TT right-hand side, and a trusted
reference solver."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .ftt import FttTensor, add, from_full, hadamard, scale
from .grids import Domain, GridError, ShapeError, torus_domain
from .integrators import rk4_dense_step
from .operators import Rhs, SeparableOperator, apply_separable, separable


@dataclass
class ProblemSpec:
    name: str
    domain: Domain
    rhs: Rhs
    initial: FttTensor
    reference: "DenseRk4Reference"
    params: dict = field(default_factory=dict)


class DenseRk4Reference:
    """Full tensor-product pseudo-spectral solve advanced incrementally:
    each request continues from the last one, so requests must not go back
    in time.  The reference takes u0 as its state without a copy, so the
    caller must not write into it again."""

    def __init__(self, rhs_dense, u0: np.ndarray, dt_ref: float):
        self.rhs_dense = rhs_dense
        self.dt_ref = dt_ref
        self._t = 0.0
        self._u = u0

    def solution(self, t: float) -> np.ndarray:
        """State at time t, read-only: whole dt_ref steps, then one shorter
        step for the rest, unless the time left is within 1e-9 relative of a
        whole number of steps: then it lands on that step.  Each step makes
        a new array, so a state handed out never changes."""
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
        self._u.flags.writeable = False
        self._t = t
        return self._u


class CharacteristicsReference(DenseRk4Reference):
    """Semi-analytical advection solution: carry each node forward along the
    coefficient field for time t (the inverse of the flow that transports
    the solution) and evaluate the initial profile there.  The stacked node
    positions are the state that the RK4 steps advance, 1e-3 apart: this
    ODE is not stiff, so its step does not depend on the grid."""

    def __init__(self, domain: Domain, velocity, ic_fn):
        grids = np.meshgrid(*[g.nodes for g in domain.axes], indexing="ij")
        super().__init__(velocity, np.stack(grids), 1e-3)
        self.ic_fn = ic_fn

    def solution(self, t: float) -> np.ndarray:
        return self.ic_fn(*super().solution(t))


def _check_memory(size: int, arrays: int) -> None:
    """Raise GridError when `arrays` float64 arrays of `size` entries exceed
    physical memory, checked before a builder forms any dense array.  Each
    builder passes the peak that tracemalloc shows over its build, three
    adaptive steps and reference steps: 36 n x n arrays for the 2-D
    problems (28-35 measured at n = 301), 8 n^4 arrays for fp4d (6.98 at
    n = 21).  Skipped where os.sysconf cannot read the memory size."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", {}):
        return
    need = 8 * arrays * size / 2**30
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    if need > have:
        raise GridError(f"grid too large: a run needs about {need:.3g} of {have:.3g} GiB")


def l2_error(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Quadrature-weighted L2 norm of the difference of two dense arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape != domain.shape:
        raise ShapeError(f"shapes {a.shape}, {b.shape} do not match domain {domain.shape}")
    diff_sq = np.subtract(a, b, dtype=float)
    np.square(diff_sq, out=diff_sq)
    for ax, g in enumerate(domain.axes):
        shape = [1] * domain.ndim
        shape[ax] = g.n
        np.multiply(diff_sq, g.weights.reshape(shape), out=diff_sq)
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


def advection2d(n: int = 81) -> ProblemSpec:
    """du/dt = (sin x1 + cos x2) d1u + cos x2 d2u on the 2-torus."""
    _check_memory(n**2, 36)
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
        dom,
    )
    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    initial = from_full(_advection_ic(x1, x2), dom, 0.0, max_ranks=(1, 15, 1))
    reference = CharacteristicsReference(dom, _advection_velocity, _advection_ic)
    return ProblemSpec("advection2d", dom, op, initial, reference)


# ---------------------------------------------------------------------------
# 2D Kuramoto-Sivashinsky

KSE_NU1, KSE_NU2 = 0.25, 0.04


def kse2d(n: int = 33) -> ProblemSpec:
    """du/dt = -1/2 |grad_nu u|^2 - lap_nu u - nu1 lap_nu^2 u on the 2-torus,
    nu1, nu2 = KSE_NU1, KSE_NU2, with the anisotropy nu = nu2/nu1 entering
    the y-direction operators.  The reference step, 1e-5 up to n = 33,
    shrinks as n^-4 above it, as RK4's limit under the n^4 term does."""
    _check_memory(n**2, 36)
    nu1 = KSE_NU1
    nu = KSE_NU2 / nu1
    dom = torus_domain(2, n)
    g1, g2 = dom.axes
    d1, d2, d4 = g1.diff1, g1.diff2, g1.diff4

    op_dx = separable([(d1, None)], dom)
    op_dy = separable([(None, d1)], dom)
    op_lin = separable(
        [
            (-d2 - nu1 * d4, None),
            (None, -nu * d2 - nu1 * nu**2 * d4),
            (-2.0 * nu1 * nu * d2, d2),
        ],
        dom,
    )

    def composite(u: FttTensor) -> FttTensor:
        ux = apply_separable(op_dx, u)
        uy = apply_separable(op_dy, u)
        grad_sq = add(hadamard(ux, ux), scale(hadamard(uy, uy), nu**2))
        return add(scale(grad_sq, -0.5), apply_separable(op_lin, u))

    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    ic = np.sin(x1 + x2) + np.sin(x1) + np.sin(x2)
    initial = from_full(ic, dom, 1e-12)

    # the reference's own axis matrices, from lap = d2 u + nu u d2^T and
    # bilap = d4 u + 2 nu d2 u d2^T + nu^2 u d4^T, independent of op_lin
    ax = -(d2 + nu1 * d4)
    ay = -(nu * d2 + nu1 * nu**2 * d4)
    axy = -2.0 * nu1 * nu * d2

    def rhs_dense(u):
        ux = d1 @ u
        uy = u @ d1.T
        return -0.5 * (ux**2 + nu**2 * uy**2) + ax @ u + u @ ay.T + axy @ u @ d2.T

    reference = DenseRk4Reference(rhs_dense, ic, dt_ref=1e-5 * min(1.0, (33 / n) ** 4))
    return ProblemSpec(
        "kse2d", dom, composite, initial, reference, params={"nu1": nu1, "nu2": KSE_NU2, "nu": nu}
    )


# ---------------------------------------------------------------------------
# 4D Fokker-Planck

# drift strength, diffusion strength and diffusion modulation
FP4D_ALPHA, FP4D_BETA, FP4D_K = 0.1, 2.0, 1.0


def fp4d_operator(domain: Domain) -> SeparableOperator:
    """Drift/diffusion generator written as a rank-9 separable operator."""
    alpha, beta, k = FP4D_ALPHA, FP4D_BETA, FP4D_K
    d1 = [g.diff1 for g in domain.axes]
    d2 = [g.diff2 for g in domain.axes]
    sin = [np.diag(np.sin(g.nodes)) for g in domain.axes]
    cos1 = np.diag(np.cos(domain.axes[0].nodes))
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
    return separable(terms, domain)


def fp4d_stacks(domain: Domain) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The reference's generator, written from the PDE rather than taken
    from fp4d_operator: axis j's drift and diffusion have coefficients
    along k = j+1 mod 4, so the stack (j, k) is B[i] = c_drift[i] (-alpha d1)
    + c_diff[i] (beta d2) on axis j, i < n_k.  Axis 0's drift -alpha d/dx0
    (sin x0 p) splits into -alpha cos x0, which joins (3, 0) as c[i] I, and
    -alpha sin x0 d1, which joins (0, 1).  Returns the read-only pairs
    (B(0,1), B(3,0)^T) and (B(2,3), B(1,2)^T), each B[i] transposed on the
    right, for `apply_fp4d_stacks`."""
    alpha, beta, k = FP4D_ALPHA, FP4D_BETA, FP4D_K
    d1 = [g.diff1 for g in domain.axes]
    d2 = [g.diff2 for g in domain.axes]
    sin = [np.sin(g.nodes)[:, None, None] for g in domain.axes]
    gsq = [(1.0 + k * np.sin(g.nodes))[:, None, None] for g in domain.axes]
    g0 = domain.axes[0]
    b12 = sin[2] * (-alpha * d1[1]) + gsq[2] * (beta * d2[1])
    b30 = -alpha * sin[0] * d1[3] + gsq[0] * (beta * d2[3])
    b30 += -alpha * np.cos(g0.nodes)[:, None, None] * np.eye(g0.n)
    b01 = gsq[1] * (beta * d2[0])
    b01 += -alpha * np.diag(np.sin(g0.nodes)) @ d1[0]
    b23 = sin[3] * (-alpha * d1[2]) + gsq[3] * (beta * d2[2])
    pairs = ((b01, b30.transpose(0, 2, 1).copy()), (b23, b12.transpose(0, 2, 1).copy()))
    for b in pairs[0] + pairs[1]:
        b.flags.writeable = False
    return pairs


def apply_fp4d_stacks(pairs, p: np.ndarray) -> np.ndarray:
    """fp4d's generator applied to a dense p.  Shifting p's axes cyclically
    by two, which transposes its (x0 x1) x (x2 x3) unfolding, maps the
    stacks (0, 1) and (3, 0) to (2, 3) and (1, 2), so `_two_products`
    applies pairs[0] to p and pairs[1] to the shifted copy q.  Allocates
    three arrays of p's size and returns one; never writes p or the stacks."""
    n01 = p.shape[0] * p.shape[1]
    out, q_half, work = np.empty(p.shape), np.empty(p.shape), np.empty(p.shape)
    # out holds q until the p half overwrites it
    np.copyto(out.reshape(-1, n01), p.reshape(n01, -1).T)
    _two_products(pairs[1], out.reshape(p.shape[2:] + p.shape[:2]), q_half, work)
    _two_products(pairs[0], p, out, work)
    flat = out.reshape(n01, -1)
    np.add(flat, q_half.reshape(-1, n01).T, out=flat)
    return out


def _two_products(pair, x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Write sum_y L[b][a, y] x[y, b, c, d] + sum_y x[a, b, c, y] R[a][y, d]
    into out, for x of axes (a, b, c, d) and the pair (L, R): one np.matmul
    batched over b, one batched over a.  out and work are C-contiguous."""
    left, right = pair
    na, nb, nd = x.shape[0], x.shape[1], x.shape[-1]
    np.matmul(left, x.reshape(na, nb, -1).transpose(1, 0, 2),
              out=out.reshape(na, nb, -1).transpose(1, 0, 2))
    np.matmul(x.reshape(na, -1, nd), right, out=work.reshape(na, -1, nd))
    np.add(out, work, out=out)


def fp4d(n: int = 21) -> ProblemSpec:
    """dp/dt = L p on the 4-torus with sinusoidal drift and g^2 = 1 + k sin
    diffusion coefficients; the initial profile is a rank-1 product of sines
    normalized by its L1 norm (integral of |sin| is 4 per axis, so 256).
    The reference step, 1e-3 (half RK4's stability limit) up to n = 21,
    shrinks as n^-2 above it, as that limit under diffusion does."""
    _check_memory(n**4, 8)
    dom = torus_domain(4, n)
    pairs = fp4d_stacks(dom)
    op = fp4d_operator(dom)
    s1, s2, s3, s4 = np.ix_(*[np.sin(g.nodes) for g in dom.axes])
    dense_ic = s1 * s2 * s3 * s4 / 256.0
    initial = from_full(dense_ic, dom, 1e-12)

    def rhs_dense(p):
        return apply_fp4d_stacks(pairs, p)

    reference = DenseRk4Reference(rhs_dense, dense_ic, dt_ref=1e-3 * min(1.0, (21 / n) ** 2))
    params = {"alpha": FP4D_ALPHA, "beta": FP4D_BETA, "k": FP4D_K}
    return ProblemSpec("fp4d", dom, op, initial, reference, params=params)


PROBLEM_BUILDERS = {
    "advection2d": advection2d,
    "kse2d": kse2d,
    "fp4d": fp4d,
}


def build_problem(name: str, n: int | None = None) -> ProblemSpec:
    """Build a benchmark problem; n defaults to the builder's own."""
    if name not in PROBLEM_BUILDERS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[name]() if n is None else PROBLEM_BUILDERS[name](n)
