"""Discrete functional tensor-train representation and its algebra.

A tensor is stored as d order-3 cores of shape (r_{k-1}, n_k, r_k) with
boundary ranks 1.  All inner products, orthogonality statements and
truncation error bounds are with respect to the quadrature-weighted L2
metric of the underlying Domain; cores store plain nodal values and every
weighted kernel conjugates the relevant unfolding by sqrt(weights) before
calling a dense LAPACK routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Domain, ShapeError


class DomainMismatchError(ValueError):
    """Operands live on different domains."""


def _check_same_domain(a: "FttTensor", b: "FttTensor") -> None:
    if not a.domain.matches(b.domain):
        raise DomainMismatchError("tensor operands live on different domains")


@dataclass(eq=False)
class FttTensor:
    """Tensor train over a Domain.

    Operations never mutate their inputs or write into core arrays; results
    may share unchanged cores with their inputs.
    ``right_orth`` records that cores 2..d are known weighted-orthonormal
    from the right; it is a hint that lets `orthogonalize` skip its sweep.
    """

    cores: list[np.ndarray]
    domain: Domain
    right_orth: bool = False

    def __post_init__(self):
        d = self.domain.ndim
        if len(self.cores) != d:
            raise ShapeError(f"expected {d} cores, got {len(self.cores)}")
        r_prev = 1
        for k, (core, grid) in enumerate(zip(self.cores, self.domain.axes)):
            if core.ndim != 3:
                raise ShapeError(f"core {k} is not order-3")
            if core.shape[0] != r_prev:
                raise ShapeError(
                    f"core {k} left rank {core.shape[0]} != previous right rank {r_prev}"
                )
            if core.shape[1] != grid.n:
                raise ShapeError(f"core {k} has {core.shape[1]} nodes, grid has {grid.n}")
            r_prev = core.shape[2]
        if r_prev != 1:
            raise ShapeError(f"last core right rank {r_prev} != 1")

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)


# ---------------------------------------------------------------------------
# weighted QR of a single core

def _fix_qr_signs(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # normalize R to a nonnegative diagonal so sweeps are deterministic
    s = np.sign(np.diagonal(r))
    s[s == 0] = 1.0
    return q * s[None, : q.shape[1]], r * s[:, None]


def qr_core(core: np.ndarray, weights: np.ndarray, side: str = "left"):
    """Weighted QR of one core.

    side='left': factor the (r_left*n, r_right) unfolding so that the
    returned core Q is orthonormal under the node-weight metric and
    core == Q . R (R acting on the right rank).  side='right': factor the
    transposed unfolding; core == R^T . Q (R acting on the left rank).
    Rank-deficient cores are allowed; zero columns produce zero rows in R
    and orthonormal filler directions in Q.
    """
    rl, n, rr = core.shape
    sw = np.sqrt(weights)
    if side == "left":
        m = (core * sw[None, :, None]).reshape(rl * n, rr)
        q, r = np.linalg.qr(m, mode="reduced")
        q, r = _fix_qr_signs(q, r)
        qcore = q.reshape(rl, n, q.shape[1]) / sw[None, :, None]
        return qcore, r
    if side == "right":
        m = (core * sw[None, :, None]).reshape(rl, n * rr).T
        q, r = np.linalg.qr(m, mode="reduced")
        q, r = _fix_qr_signs(q, r)
        qcore = q.T.reshape(q.shape[1], n, rr) / sw[None, :, None]
        return np.ascontiguousarray(qcore), r
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def orthogonalize(u: FttTensor) -> FttTensor:
    """Right-orthogonal gauge: u with cores 2..d weighted-orthonormal from
    the right, by a QR sweep from core d down to core 2 whose R factors
    are absorbed into the core on their left.  Returns u itself when it is
    flagged right_orth."""
    if u.right_orth:
        return u
    cores = list(u.cores)
    for k in range(u.ndim - 1, 0, -1):
        q, r = qr_core(cores[k], u.domain.axes[k].weights, "right")
        cores[k] = q
        cores[k - 1] = np.tensordot(cores[k - 1], r, axes=(2, 1))
    return FttTensor(cores, u.domain, right_orth=True)


# ---------------------------------------------------------------------------
# construction and densification

def _select_rank(s: np.ndarray, delta: float, cap: int | None) -> int:
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    keep = int(np.sum(tails > delta))
    keep = max(keep, 1)
    if cap is not None:
        keep = min(keep, int(cap))
    return keep


def _zero_like(domain: Domain) -> FttTensor:
    cores = [np.zeros((1, g.n, 1)) for g in domain.axes]
    return FttTensor(cores, domain)


def from_full(
    values: np.ndarray,
    domain: Domain,
    tol: float,
    max_ranks=None,
) -> FttTensor:
    """Compress a dense array into a left-orthogonal tensor train.

    Reconstruction error in the weighted L2 norm is at most tol*||values||;
    max_ranks (length d+1) additionally caps each interface rank.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != domain.shape:
        raise ShapeError(f"values shape {values.shape} != domain shape {domain.shape}")
    d = domain.ndim
    work = values
    for ax, g in enumerate(domain.axes):
        shape = [1] * d
        shape[ax] = g.n
        work = work * np.sqrt(g.weights).reshape(shape)
    nrm = np.linalg.norm(work)
    if nrm == 0.0:
        return _zero_like(domain)
    delta = tol * nrm / np.sqrt(d - 1)
    cores: list[np.ndarray] = []
    r_prev = 1
    mat = work.reshape(1, -1)
    for k in range(d - 1):
        n_k = domain.axes[k].n
        mat = mat.reshape(r_prev * n_k, -1)
        u_svd, s, vt = np.linalg.svd(mat, full_matrices=False)
        cap = None if max_ranks is None else max_ranks[k + 1]
        keep = _select_rank(s, delta, cap)
        cores.append(u_svd[:, :keep].reshape(r_prev, n_k, keep))
        mat = s[:keep, None] * vt[:keep]
        r_prev = keep
    cores.append(mat.reshape(r_prev, domain.axes[-1].n, 1))
    for k, g in enumerate(domain.axes):
        cores[k] = cores[k] / np.sqrt(g.weights)[None, :, None]
    return FttTensor(cores, domain)


def to_full(u: FttTensor) -> np.ndarray:
    """Contract all cores into a dense array."""
    res = u.cores[0][0]  # (n_1, r_1)
    for core in u.cores[1:]:
        res = np.tensordot(res, core, axes=(res.ndim - 1, 0))
    return res[..., 0]


# ---------------------------------------------------------------------------
# linear algebra

def scale(a: FttTensor, c: float) -> FttTensor:
    """Multiply by a scalar by scaling the first core only."""
    cores = [a.cores[0] * c, *a.cores[1:]]
    return FttTensor(cores, a.domain, right_orth=a.right_orth)


def add(a: FttTensor, b: FttTensor) -> FttTensor:
    """Pointwise sum; interior ranks add blockwise."""
    _check_same_domain(a, b)
    d = a.ndim
    cores: list[np.ndarray] = []
    for k, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        if k == 0:
            cores.append(np.concatenate((ca, cb), axis=2))
        elif k == d - 1:
            cores.append(np.concatenate((ca, cb), axis=0))
        else:
            (la, n, ra), (lb, _, rb) = ca.shape, cb.shape
            core = np.zeros((la + lb, n, ra + rb))
            core[:la, :, :ra] = ca
            core[la:, :, ra:] = cb
            cores.append(core)
    return FttTensor(cores, a.domain)


def hadamard(a: FttTensor, b: FttTensor) -> FttTensor:
    """Pointwise product; interface ranks multiply."""
    _check_same_domain(a, b)
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, n, rap = ca.shape
        rb, _, rbp = cb.shape
        core = ca[:, None, :, :, None] * cb[None, :, :, None, :]
        cores.append(core.reshape(ra * rb, n, rap * rbp))
    return FttTensor(cores, a.domain)


def inner(a: FttTensor, b: FttTensor) -> float:
    """Weighted L2 inner product by core contraction (never densifies)."""
    _check_same_domain(a, b)
    m = np.ones((1, 1))
    for ca, cb, g in zip(a.cores, b.cores, a.domain.axes):
        x = np.tensordot(m, ca, axes=(0, 0))  # (rb, n, ra')
        x = x * g.weights[None, :, None]
        m = np.tensordot(x, cb, axes=([0, 1], [0, 1]))  # (ra', rb')
    return float(m[0, 0])


def norm(a: FttTensor) -> float:
    """Weighted L2 norm, read off the first core of the right-orthogonal gauge."""
    return float(_first_core_norm(orthogonalize(a)))


def _first_core_norm(v: FttTensor):
    w0 = v.domain.axes[0].weights
    return np.sqrt(np.sum(v.cores[0] ** 2 * w0[None, :, None]))


def integral(a: FttTensor) -> float:
    """Quadrature integral over the whole domain."""
    v = np.ones((1,))
    for core, g in zip(a.cores, a.domain.axes):
        v = v @ np.tensordot(core, g.weights, axes=(1, 0))
    return float(v[0])


# ---------------------------------------------------------------------------
# truncation

def truncate(u: FttTensor, tol: float, max_ranks=None):
    """Round to smaller ranks with relative weighted-L2 error at most tol.

    Returns the rounded tensor (left-orthogonal) and the list of Schmidt
    value vectors computed at each interior interface during the sweep.
    The per-interface threshold is tol*||u||/sqrt(d-1).
    """
    d = u.ndim
    v = orthogonalize(u)
    nrm = _first_core_norm(v)
    if nrm == 0.0:
        return _zero_like(u.domain), [np.zeros(1) for _ in range(d - 1)]
    delta = tol * nrm / np.sqrt(d - 1)
    cores = list(v.cores)
    schmidt: list[np.ndarray] = []
    for k in range(d - 1):
        g = u.domain.axes[k]
        rl, n, rr = cores[k].shape
        m = (cores[k] * np.sqrt(g.weights)[None, :, None]).reshape(rl * n, rr)
        u_svd, s, vt = np.linalg.svd(m, full_matrices=False)
        schmidt.append(s)
        cap = None if max_ranks is None else max_ranks[k + 1]
        keep = _select_rank(s, delta, cap)
        cores[k] = u_svd[:, :keep].reshape(rl, n, keep) / np.sqrt(g.weights)[None, :, None]
        carry = s[:keep, None] * vt[:keep]
        cores[k + 1] = np.tensordot(carry, cores[k + 1], axes=(1, 0))
    return FttTensor(cores, u.domain), schmidt


# oversampling of the randomized rounding: sketch ranks exceed the hinted
# ranks by this much, and a rounded rank within half of it of its sketch
# rank means the sketch may have missed directions
SKETCH_OVERSAMPLING = 10


def apply_tt_matrix(a, u: FttTensor) -> FttTensor:
    """Apply the TT-matrix with cores a[k] of shape (R_{k-1}, n_k, n_k, R_k)
    to u core by core; interface ranks multiply, the operator's index
    leading: entry (i, l) of rank R_k r_k is i r_k + l."""
    cores = []
    for ak, core in zip(a, u.cores):
        ra, n, _, rb = ak.shape
        rl, _, rr = core.shape
        prod = np.tensordot(ak, core, axes=(2, 1))  # (ra, n, rb, rl, rr)
        cores.append(prod.transpose(0, 3, 1, 2, 4).reshape(ra * rl, n, rb * rr))
    return FttTensor(cores, u.domain)


def sketch_truncate(x: FttTensor, tol: float, ranks=None, a=None):
    """Round like truncate(A x, tol), A the TT-matrix with cores a (the
    identity when a is None), first projecting A x onto a left-orthogonal
    train of small sketch ranks (randomize-then-orthogonalize; Al Daas et
    al., SISC 2023).

    ranks (length d+1) hints at the rounded ranks, e.g. those of the last
    rounded tensor along the same trajectory.  Sketch ranks are the hint
    plus SKETCH_OVERSAMPLING, or A x's ranks without a hint, capped by A
    x's ranks and by the grid.  A x is contracted from the right with a
    Gaussian train (fixed seed, so results are reproducible), then swept
    left to right: a weighted QR of each sketched core, onto which the next
    core is projected.  The projection ends in truncate.  If a rounded rank
    comes within half the oversampling of its sketch rank, the sketch ranks
    double and the rounding is redone.  A x is never formed here: every
    contraction with one of its cores goes through x's core first and then
    through a's (as in randomized compression of operator-train products;
    Camaño, Epperly & Tropp, 2025).  The one rule: the sketch runs only
    while its ranks at least halve A x's interior rank sum, and otherwise
    this is truncate(apply_tt_matrix(a, x), tol) (or truncate(x, tol)).
    """
    d = x.ndim
    raw = x.ranks if a is None else (1,) + tuple(c.shape[3] * r for c, r in zip(a, x.ranks[1:]))
    full = [min(r, c) for r, c in zip(raw, _max_interface_ranks(x.domain))]
    ell = full if ranks is None else [min(f, h + SKETCH_OVERSAMPLING) for f, h in zip(full, ranks)]
    while 2 * sum(ell[1:-1]) <= sum(raw[1:-1]):
        out, schmidt = truncate(_sketch_projection(x, a, ell), tol)
        if all(
            ell[k] == full[k] or out.ranks[k] <= ell[k] - SKETCH_OVERSAMPLING // 2
            for k in range(1, d)
        ):
            return out, schmidt
        ell = [min(f, 2 * e) for f, e in zip(full, ell)]
    return truncate(x if a is None else apply_tt_matrix(a, x), tol)


# core k of A x contracted without forming it (a = None is the identity)

def times_right(x: FttTensor, a, k: int, s: np.ndarray) -> np.ndarray:
    """Core k of A x times s (R_k r_k, m) over its right rank: (R_{k-1} r_{k-1}, n, m)."""
    if a is None:
        return np.tensordot(x.cores[k], s, axes=(2, 0))
    ra, n, _, rb = a[k].shape
    t = np.tensordot(x.cores[k], s.reshape(rb, -1, s.shape[1]), axes=(2, 1))
    t = np.tensordot(a[k], t, axes=([2, 3], [1, 2]))  # (ra, n, r_{k-1}, m)
    return t.transpose(0, 2, 1, 3).reshape(ra * x.cores[k].shape[0], n, -1)


def left_times(p: np.ndarray, x: FttTensor, a, k: int) -> np.ndarray:
    """p (m, R_{k-1} r_{k-1}) times core k of A x over its left rank: (m, n, R_k r_k)."""
    if a is None:
        return np.tensordot(p, x.cores[k], axes=(1, 0))
    ra, n = a[k].shape[:2]
    t = np.tensordot(p.reshape(len(p), ra, -1), x.cores[k], axes=(2, 0))
    t = np.tensordot(t, a[k], axes=([1, 2], [0, 2]))  # (m, r_k, n, rb)
    return t.transpose(0, 2, 3, 1).reshape(len(p), n, -1)


def right_envs(x: FttTensor, a, ys, weights) -> list:
    """env[k], k = d..1: cores k.. of A x contracted with the cores ys[k].. of
    another train over nodes weighted by weights[k].., shape (R_{k-1} r_{k-1},
    ys[k].shape[0]); env[d] is 1 and env[0] is None."""
    env = [None] * x.ndim + [np.ones((1, 1))]
    for k in range(x.ndim - 1, 0, -1):
        z = times_right(x, a, k, env[k + 1])
        z *= weights[k][None, :, None]
        env[k] = np.tensordot(z, ys[k], axes=([1, 2], [1, 2]))
    return env


def _sketch_projection(x: FttTensor, a, ell) -> FttTensor:
    """One sketch of A x at ranks ell, as in sketch_truncate."""
    d = x.ndim
    weights = [g.weights for g in x.domain.axes]
    rng = np.random.default_rng(0)
    ys = {
        k: rng.standard_normal((ell[k], len(weights[k]), ell[k + 1])) for k in range(d - 1, 0, -1)
    }
    sketches = right_envs(x, a, ys, [np.sqrt(w) for w in weights])
    cores = []
    proj = np.ones((1, 1))
    for k in range(d - 1):
        z = left_times(proj, x, a, k)
        q, _ = qr_core(np.tensordot(z, sketches[k + 1], axes=(2, 0)), weights[k], "left")
        cores.append(q)
        proj = np.tensordot(q * weights[k][None, :, None], z, axes=([0, 1], [0, 1]))
    cores.append(left_times(proj, x, a, d - 1))
    return FttTensor(cores, x.domain)


def _max_interface_ranks(domain: Domain) -> list[int]:
    ns = domain.shape
    return [1] + [min(math.prod(ns[:k]), math.prod(ns[k:])) for k in range(1, len(ns))] + [1]


def zero_pad(u: FttTensor, normal: FttTensor, tol: float) -> FttTensor:
    """Append zero-energy modes along normal: represents u exactly with
    ranks grown by those of normal rounded at relative tolerance tol.

    The rounding is one truncate sweep whose ranks are capped by what the
    grid leaves free, but at least 1: an interface already at its grid cap is padded one
    above it, and the right sweep here or the next left sweep drops that
    mode again.  The padded tensor is right-orthogonalized down to core 2,
    so cores 2..d hold the rounded normal's directions beside u's,
    right-orthonormal (flagged right_orth), and the zero coefficients sit
    in core 1 only.
    """
    _check_same_domain(u, normal)
    free = [max(c - r, 1) for c, r in zip(_max_interface_ranks(u.domain), u.ranks)]
    template, _ = truncate(normal, tol, max_ranks=free)
    padded = add(u, scale(template, 0.0))
    return orthogonalize(padded)
