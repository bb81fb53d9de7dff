import functools

import numpy as np
import pytest

from fttpde.ftt import FttTensor, add, truncate
from fttpde.grids import torus_domain


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_ftt(domain, ranks, rng):
    """Tensor train with independent standard-normal core entries."""
    cores = [
        rng.standard_normal((ranks[k], g.n, ranks[k + 1]))
        for k, g in enumerate(domain.axes)
    ]
    return FttTensor(cores, domain)


def truncated_step(u, delta_u, tol, max_ranks=None):
    """Step-truncation: the full-space step u + delta_u rounded back to low
    rank at relative tolerance tol, interface ranks capped by max_ranks."""
    return truncate(add(u, delta_u), tol, max_ranks)[0]


def assert_same_bytes(a, b):
    """a and b have the same ranks and byte-identical cores."""
    assert a.ranks == b.ranks
    assert all(ca.tobytes() == cb.tobytes() for ca, cb in zip(a.cores, b.cores))


def weighted_dense_norm(values, domain):
    sq = np.asarray(values, dtype=float) ** 2
    for ax, g in enumerate(domain.axes):
        shape = [1] * domain.ndim
        shape[ax] = g.n
        sq = sq * g.weights.reshape(shape)
    return float(np.sqrt(sq.sum()))


def kron_matrix(op, shape):
    """The explicit matrix of a separable operator acting on C-order
    flattened values: the sum over terms of the Kronecker products."""
    return sum(
        functools.reduce(np.kron, [np.eye(n) if m is None else m for m, n in zip(term, shape)])
        for term in op.terms
    )


def advection2d_rhs_dense(domain):
    """Dense spectral evaluator of the advection right-hand side."""
    g1, g2 = domain.axes
    a = np.sin(g1.nodes)[:, None] + np.cos(g2.nodes)[None, :]
    b = np.cos(g2.nodes)[None, :]
    d1a, d1b = g1.diff1, g2.diff1

    def rhs(u):
        return a * (d1a @ u) + b * (u @ d1b.T)

    return rhs


@pytest.fixture
def dom2():
    return torus_domain(2, 17)


@pytest.fixture
def dom3():
    return torus_domain(3, 11)


@pytest.fixture
def dom4():
    return torus_domain(4, 7)
