"""Right-hand-side evaluators: separable linear operators and composite forms."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Sum of tensor products of one-dimensional operators.

    terms[i][j] is the n_j x n_j matrix acting on axis j in the i-th term;
    None stands for the identity.  Variable coefficients enter as diagonal
    matrices on the grid.  The tensor-train path applies the operator as a
    compressed TT-matrix, built on first use for each grid shape and cached
    on the operator; the cached cores are read-only.
    """

    terms: tuple[tuple[np.ndarray | None, ...], ...]
    _tt_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("separable operator needs at least one term")

    def tt_matrix(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """TT-matrix cores of shape (R_{k-1}, n_k, n_k, R_k) on a grid of
        the given shape, with boundary ranks 1; built once per shape.
        Raises ShapeError if a term does not fit the shape."""
        cores = self._tt_cache.get(shape)
        if cores is None:
            _check_operator_shapes(self, shape)
            cores = _build_tt_matrix(self.terms, shape)
            self._tt_cache[shape] = cores
        return cores


def separable(terms: Sequence[Sequence[np.ndarray | None]]) -> SeparableOperator:
    return SeparableOperator(terms=tuple(tuple(term) for term in terms))


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


def _check_operator_shapes(op: SeparableOperator, shape: tuple[int, ...]) -> None:
    for i, term in enumerate(op.terms):
        if len(term) != len(shape):
            raise ShapeError(f"term {i} has {len(term)} factors, grid has {len(shape)} axes")
        for j, (mat, n) in enumerate(zip(term, shape)):
            if mat is not None and mat.shape != (n, n):
                raise ShapeError(f"term {i} factor {j} is {mat.shape}, expected {(n, n)}")


def apply_separable(op: SeparableOperator, u: FttTensor) -> FttTensor:
    """Apply the operator in tensor-train form, core by core through its
    compressed TT-matrix; interface ranks grow by the TT-matrix ranks."""
    return apply_tt_matrix(op.tt_matrix(u.domain.shape), u)


def apply_separable_dense(op: SeparableOperator, values: np.ndarray) -> np.ndarray:
    """Dense oracle against the tensor-train path: the sum over the terms of
    one `np.tensordot` per non-identity factor.  Never forms the full
    Kronecker matrix and never writes into `values`."""
    if any(len(term) != values.ndim for term in op.terms):
        raise ShapeError(f"operator terms do not all have {values.ndim} factors")
    out = np.zeros(values.shape)
    for term in op.terms:
        piece = values
        for j, mat in enumerate(term):
            if mat is not None:
                piece = np.moveaxis(np.tensordot(mat, piece, axes=(1, j)), 0, j)
        out += piece
    return out


@dataclass(frozen=True)
class RhsEvaluator:
    """Evaluator for du/dt = G(u) returning tensor trains.

    `op` is a SeparableOperator A, for G(u) = A u, or a function from a
    tensor train to the unrounded G(u), built from tensor-train arithmetic.
    eval_rhs rounds G once, at relative tolerance G_TOL.
    """

    domain: Domain
    op: SeparableOperator | Callable[[FttTensor], FttTensor]


def eval_rhs(rhs: RhsEvaluator, u: FttTensor, ranks=None) -> FttTensor:
    """Evaluate G(u) as a tensor train truncated to G_TOL relative error.

    A SeparableOperator's G = A u goes to `sketch_truncate` through the
    operator's TT-matrix and u, with ranks (length d+1, or None for no
    hint) hinting at the rounded ranks, e.g. those of the last evaluation
    along the same trajectory; the kernel falls back to `truncate` of the
    formed A u without a hint.  Any other G goes to `truncate`.
    """
    if not rhs.domain.matches(u.domain):
        raise ShapeError("tensor does not live on the evaluator's domain")
    if isinstance(rhs.op, SeparableOperator):
        out, _ = sketch_truncate(u, G_TOL, ranks, rhs.op.tt_matrix(u.domain.shape))
    else:
        out, _ = truncate(rhs.op(u), G_TOL)
    return out
