"""Right-hand-side evaluators: separable linear operators and composite forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ftt import FttTensor, _block_sum, truncate
from .grids import Domain, ShapeError


@dataclass(frozen=True)
class SeparableOperator:
    """Sum of tensor products of one-dimensional operators.

    terms[i][j] is the n_j x n_j matrix acting on axis j in the i-th term;
    None stands for the identity.  Variable coefficients enter as diagonal
    matrices on the grid.
    """

    terms: tuple[tuple[np.ndarray | None, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("separable operator needs at least one term")

    @property
    def rank(self) -> int:
        return len(self.terms)

    def __call__(self, u: FttTensor) -> FttTensor:
        return apply_separable(self, u)


def separable(terms: Sequence[Sequence[np.ndarray | None]], labels=None) -> SeparableOperator:
    tt = tuple(tuple(term) for term in terms)
    return SeparableOperator(terms=tt, labels=tuple(labels) if labels else ())


def _check_operator_shapes(op: SeparableOperator, domain: Domain) -> None:
    for i, term in enumerate(op.terms):
        if len(term) != domain.ndim:
            raise ShapeError(f"term {i} has {len(term)} factors, domain has {domain.ndim} axes")
        for j, (mat, g) in enumerate(zip(term, domain.axes)):
            if mat is not None and mat.shape != (g.n, g.n):
                raise ShapeError(f"term {i} factor {j} is {mat.shape}, expected {(g.n, g.n)}")


def apply_separable(op: SeparableOperator, u: FttTensor) -> FttTensor:
    """Apply the operator in tensor-train form; ranks grow by the factor R."""
    _check_operator_shapes(op, u.domain)
    pieces = []
    for term in op.terms:
        cores = []
        for mat, core in zip(term, u.cores):
            if mat is None:
                cores.append(core)
            else:
                cores.append(np.tensordot(mat, core, axes=(1, 1)).transpose(1, 0, 2))
        pieces.append(FttTensor(cores, u.domain))
    return _block_sum(pieces)


def apply_separable_dense(op: SeparableOperator, values: np.ndarray) -> np.ndarray:
    """Dense application, contracting each non-identity factor axis by axis.

    Never forms the full Kronecker matrix; used by dense reference solvers
    and as the oracle against the tensor-train path.
    """
    out = np.zeros_like(values)
    d = values.ndim
    for term in op.terms:
        piece = values
        for j, mat in enumerate(term):
            if mat is None:
                continue
            piece = np.moveaxis(np.tensordot(mat, piece, axes=(1, j)), 0, j)
        out = out + piece
    return out


@dataclass(frozen=True)
class RhsEvaluator:
    """Evaluator for du/dt = G(u) returning tensor trains.

    `op` maps a tensor train to the unrounded G(u): a SeparableOperator, or
    any function built from tensor-train arithmetic.  eval_rhs rounds its
    result at relative tolerance g_tol.
    """

    domain: Domain
    op: Callable[[FttTensor], FttTensor]
    g_tol: float = 1e-10


def eval_rhs(rhs: RhsEvaluator, u: FttTensor) -> FttTensor:
    """Evaluate G(u) as a tensor train truncated to g_tol relative error."""
    if not rhs.domain.matches(u.domain):
        raise ShapeError("tensor does not live on the evaluator's domain")
    out, _ = truncate(rhs.op(u), rhs.g_tol)
    return out
