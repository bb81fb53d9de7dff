"""Discrete functional tensor-train representation and its algebra.

A tensor is stored as d order-3 cores of shape (r_{k-1}, n_k, r_k) with
boundary ranks 1.  All inner products, orthogonality statements and
truncation error bounds are with respect to the quadrature-weighted L2
metric of the underlying Domain; cores store plain nodal values and every
weighted kernel conjugates the relevant unfolding by sqrt(weights) before
calling a dense LAPACK routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ``left_orth_upto``/``right_orth_from`` record which cores are known
    weighted-orthonormal (cores 1..L from the left, cores R..d from the
    right, 1-based); they are hints that let downstream sweeps skip
    re-orthogonalization.
    """

    cores: list[np.ndarray]
    domain: Domain
    left_orth_upto: int = 0
    right_orth_from: int = field(default=-1)

    def __post_init__(self):
        d = self.domain.ndim
        if self.right_orth_from == -1:
            self.right_orth_from = d + 1
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
    s = np.sign(np.diagonal(r)).copy()
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
        return qcore, r
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def orthogonalize(u: FttTensor, direction: str, pivot: int):
    """QR-sweep orthogonalization.

    direction='left': cores 1..pivot become weighted-orthonormal; the R
    factor carried past the pivot is returned and, when pivot < d, also
    absorbed into core pivot+1 so the returned tensor represents u exactly.
    With pivot == d all cores are orthonormal and u == R[0,0] * result.
    direction='right' is the mirror image (full orthogonalization at
    pivot == 1).
    """
    d = u.ndim
    if not 1 <= pivot <= d:
        raise ValueError(f"pivot {pivot} out of range 1..{d}")
    cores = list(u.cores)
    if direction == "left":
        r = np.eye(1)
        for k in range(pivot):
            q, r = qr_core(cores[k], u.domain.axes[k].weights, "left")
            cores[k] = q
            if k + 1 < d:
                cores[k + 1] = np.tensordot(r, cores[k + 1], axes=(1, 0))
        out = FttTensor(cores, u.domain, left_orth_upto=pivot)
        return out, r
    if direction == "right":
        r = np.eye(1)
        for k in range(d - 1, pivot - 2, -1):
            q, r = qr_core(cores[k], u.domain.axes[k].weights, "right")
            cores[k] = q
            if k > 0:
                cores[k - 1] = np.tensordot(cores[k - 1], r, axes=(2, 1))
        out = FttTensor(cores, u.domain, right_orth_from=pivot)
        return out, r
    raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")


def _right_orthogonalized(u: FttTensor) -> FttTensor:
    if u.right_orth_from <= 2:
        return u
    v, _ = orthogonalize(u, "right", 2)
    return v


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
    return FttTensor(cores, domain, left_orth_upto=domain.ndim - 1)


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
    work = values.copy()
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
    return FttTensor(cores, domain, left_orth_upto=d - 1)


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
    return FttTensor(cores, a.domain, right_orth_from=a.right_orth_from)


def add(a: FttTensor, b: FttTensor) -> FttTensor:
    """Pointwise sum; interior ranks add blockwise."""
    _check_same_domain(a, b)
    return _block_sum([a, b])


def _block_sum(terms: list[FttTensor]) -> FttTensor:
    dom = terms[0].domain
    d = dom.ndim
    if len(terms) == 1:
        return terms[0]
    cores: list[np.ndarray] = []
    for k in range(d):
        blocks = [t.cores[k] for t in terms]
        n = dom.axes[k].n
        if k == 0:
            cores.append(np.concatenate(blocks, axis=2))
        elif k == d - 1:
            cores.append(np.concatenate(blocks, axis=0))
        else:
            rl = sum(bk.shape[0] for bk in blocks)
            rr = sum(bk.shape[2] for bk in blocks)
            core = np.zeros((rl, n, rr))
            il = ir = 0
            for bk in blocks:
                core[il : il + bk.shape[0], :, ir : ir + bk.shape[2]] = bk
                il += bk.shape[0]
                ir += bk.shape[2]
            cores.append(core)
    return FttTensor(cores, dom)


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
    """Weighted L2 norm, computed stably via full left orthogonalization."""
    _, r = orthogonalize(a, "left", a.ndim)
    return float(abs(r[0, 0]))


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
    v = _right_orthogonalized(u)
    w0 = u.domain.axes[0].weights
    nrm = np.sqrt(np.sum(v.cores[0] ** 2 * w0[None, :, None]))
    if nrm == 0.0:
        return _zero_like(u.domain), [np.zeros(1) for _ in range(d - 1)]
    delta = tol * nrm / np.sqrt(d - 1)
    # the right sweep leaves cores in Fortran order; the products below round
    # differently for the two layouts, so they always see C order
    cores = [np.ascontiguousarray(c) for c in v.cores]
    schmidt: list[np.ndarray] = []
    for k in range(d - 1):
        g = u.domain.axes[k]
        rl, n, rr = cores[k].shape
        m = (cores[k] * np.sqrt(g.weights)[None, :, None]).reshape(rl * n, rr)
        u_svd, s, vt = np.linalg.svd(m, full_matrices=False)
        schmidt.append(s.copy())
        cap = None if max_ranks is None else max_ranks[k + 1]
        keep = _select_rank(s, delta, cap)
        cores[k] = u_svd[:, :keep].reshape(rl, n, keep) / np.sqrt(g.weights)[None, :, None]
        carry = s[:keep, None] * vt[:keep]
        cores[k + 1] = np.tensordot(carry, cores[k + 1], axes=(1, 0))
    out = FttTensor(cores, u.domain, left_orth_upto=d - 1)
    return out, schmidt


def _max_interface_ranks(domain: Domain) -> list[int]:
    ns = domain.shape
    caps = [1]
    for k in range(1, domain.ndim):
        caps.append(int(min(np.prod(ns[:k]), np.prod(ns[k:]))))
    caps.append(1)
    return caps


def zero_pad(u: FttTensor, template: FttTensor) -> FttTensor:
    """Append zero-energy modes: represents u exactly with ranks grown by
    the template's ranks at each interior interface.

    The padded tensor is re-orthogonalized from the left so the new modes
    are orthonormal directions with zero coefficient.  Template ranks are
    clipped so padded ranks stay representable on the grid.
    """
    _check_same_domain(u, template)
    caps = _max_interface_ranks(u.domain)
    ru = u.ranks
    allowed = [max(c - r, 0) for c, r in zip(caps, ru)]
    rt = template.ranks
    if any(rt[k] > allowed[k] for k in range(1, u.ndim)):
        cap_vec = [max(min(rt[k], allowed[k]), 1) for k in range(u.ndim + 1)]
        cap_vec[0] = cap_vec[-1] = 1
        template, _ = truncate(template, 0.0, max_ranks=cap_vec)
    padded = add(u, scale(template, 0.0))
    out, _ = orthogonalize(padded, "left", u.ndim - 1)
    return out
