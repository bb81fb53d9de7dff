"""Right-hand sides: separable linear operators and composite forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ftt import FttTensor, _select_rank, apply_tt_matrix, sketch_truncate, truncate
from .grids import Domain, ShapeError


# relative Frobenius cut-off of the one-time TT-matrix compression: it only
# removes linear dependences between terms (shared identities and diagonals),
# whose singular values sit at roundoff level
_COMPRESS_TOL = 1e-14
G_TOL = 1e-10  # relative tolerance at which eval_rhs rounds every G, once


@dataclass(frozen=True)
class SeparableOperator:
    """Sum of tensor products of one-dimensional operators on one domain.

    terms[i][j] is the n_j x n_j matrix acting on axis j in the i-th term;
    None stands for the identity.  Variable coefficients enter as diagonal
    matrices on the grid.  cores is the operator as a compressed, read-only
    TT-matrix, cores of shape (R_{k-1}, n_k, n_k, R_k) with boundary ranks
    1; `separable` builds it once, with the operator.
    """

    domain: Domain
    terms: tuple[tuple[np.ndarray | None, ...], ...]
    cores: tuple[np.ndarray, ...]


# du/dt = G(u): a SeparableOperator A, for G(u) = A u, or u -> unrounded G(u)
Rhs = SeparableOperator | Callable[[FttTensor], FttTensor]


def separable(terms: Sequence[Sequence[np.ndarray | None]], domain: Domain) -> SeparableOperator:
    """The operator with these terms on the domain, its TT-matrix built
    here.  Raises ValueError without a term and ShapeError if a term does
    not fit the domain's shape."""
    terms = tuple(tuple(term) for term in terms)
    if not terms:
        raise ValueError("separable operator needs at least one term")
    want = [(n, n) for n in domain.shape]
    for i, term in enumerate(terms):
        got = [None if mat is None else mat.shape for mat in term]
        if len(got) != len(want) or any(g not in (None, w) for g, w in zip(got, want)):
            raise ShapeError(f"term {i} has factor shapes {got}, the grid is {domain.shape}")
    return SeparableOperator(domain, terms, _build_tt_matrix(terms, domain.shape))


def _build_tt_matrix(terms, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Stack the terms block-diagonally as TT-matrix cores, then round once
    in the Frobenius norm: a right QR sweep, then a left SVD sweep."""
    nterms, d = len(terms), len(shape)
    cores = []
    for k, n in enumerate(shape):
        core = np.zeros((nterms, n, n, nterms))
        for i, term in enumerate(terms):
            core[i, :, :, i] = np.eye(n) if term[k] is None else term[k]
        cores.append(core)
    cores[0] = cores[0].sum(axis=0, keepdims=True)
    cores[-1] = cores[-1].sum(axis=3, keepdims=True)
    for k in range(d - 1, 0, -1):
        rl, n, _, rr = cores[k].shape
        q, r = np.linalg.qr(cores[k].reshape(rl, n * n * rr).T)
        cores[k] = q.T.reshape(q.shape[1], n, n, rr)
        cores[k - 1] = np.tensordot(cores[k - 1], r, axes=(3, 1))
    delta = _COMPRESS_TOL * np.linalg.norm(cores[0]) / np.sqrt(d - 1)
    for k in range(d - 1):
        rl, n, _, rr = cores[k].shape
        u_svd, s, vt = np.linalg.svd(cores[k].reshape(rl * n * n, rr), full_matrices=False)
        keep = _select_rank(s, delta, None)
        cores[k] = u_svd[:, :keep].reshape(rl, n, n, keep)
        cores[k + 1] = np.tensordot(s[:keep, None] * vt[:keep], cores[k + 1], axes=(1, 0))
    out = tuple(np.ascontiguousarray(c) for c in cores)
    for c in out:
        c.flags.writeable = False
    return out


def apply_separable(op: SeparableOperator, u: FttTensor) -> FttTensor:
    """Apply the operator in tensor-train form, core by core through its
    compressed TT-matrix; interface ranks grow by the TT-matrix ranks."""
    if not op.domain.matches(u.domain):
        raise ShapeError("tensor does not live on the operator's domain")
    return apply_tt_matrix(op.cores, u)


def apply_separable_dense(op: SeparableOperator, values: np.ndarray) -> np.ndarray:
    """Dense oracle against the tensor-train path: the sum over the terms of
    one `np.tensordot` per non-identity factor.  Never forms the full
    Kronecker matrix and never writes into `values`."""
    if values.shape != op.domain.shape:
        raise ShapeError(f"values of shape {values.shape}, operator on {op.domain.shape}")
    out = np.zeros(values.shape)
    for term in op.terms:
        piece = values
        for j, mat in enumerate(term):
            if mat is not None:
                piece = np.moveaxis(np.tensordot(mat, piece, axes=(1, j)), 0, j)
        out += piece
    return out


def eval_rhs(rhs: Rhs, u: FttTensor, ranks=None) -> FttTensor:
    """Evaluate G(u) as a tensor train truncated to G_TOL relative error.

    A SeparableOperator's G = A u goes to `sketch_truncate` through the
    operator's TT-matrix and u, with ranks (length d+1, or None for no
    hint) hinting at the rounded ranks, e.g. those of the last evaluation
    along the same trajectory; the kernel falls back to `truncate` of the
    formed A u without a hint.  Any other G = rhs(u) goes to `truncate`.
    """
    if isinstance(rhs, SeparableOperator):
        if not rhs.domain.matches(u.domain):
            raise ShapeError("tensor does not live on the operator's domain")
        out, _ = sketch_truncate(u, G_TOL, ranks, rhs.cores)
    else:
        out, _ = truncate(rhs(u), G_TOL)
    return out
