"""Periodic 1D grids with trapezoidal quadrature and Fourier differentiation matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridError(ValueError):
    """Invalid grid construction parameters."""


class ShapeError(ValueError):
    """Array shape incompatible with a grid or domain."""


def _fourier_diff_matrix(n: int, length: float, order: int) -> np.ndarray:
    """Dense pseudo-spectral differentiation matrix on n equispaced points of
    a period; read-only."""
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / length)
    sym = (1j * k) ** order
    if n % 2 == 0 and order % 2 == 1:
        # zero out the Nyquist mode: its derivative has no consistent sign
        sym[n // 2] = 0.0
    mat = np.real(np.fft.ifft(sym[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True, eq=False)
class Grid1D:
    """One periodic spatial axis: nodes, quadrature weights, differentiation matrices.

    Immutable after construction.  The n x n differentiation matrices are
    built on first access, so a grid that never differentiates (such as one
    read from a snapshot) costs memory linear in n; they are shared read-only.
    """

    n: int
    a: float
    b: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def length(self) -> float:
        return self.b - self.a

    @cached_property
    def diff1(self) -> np.ndarray:
        return _fourier_diff_matrix(self.n, self.length, 1)

    @cached_property
    def diff2(self) -> np.ndarray:
        return _fourier_diff_matrix(self.n, self.length, 2)

    @cached_property
    def diff4(self) -> np.ndarray:
        return _fourier_diff_matrix(self.n, self.length, 4)

    def matches(self, other: "Grid1D") -> bool:
        return self.n == other.n and self.a == other.a and self.b == other.b


def make_periodic_grid(n: int, a: float, b: float) -> Grid1D:
    """Build an n-point uniform grid on [a, b) with spectral differentiation.

    Odd n is preferred (no Nyquist mode); even n uses the zeroed-Nyquist
    convention for odd-order derivatives.
    """
    if n < 3:
        raise GridError(f"need at least 3 grid points, got n={n}")
    if not b > a:
        raise GridError(f"empty interval: a={a}, b={b}")
    length = float(b - a)
    nodes = a + length * np.arange(n) / n
    weights = np.full(n, length / n)
    return Grid1D(n=n, a=float(a), b=float(b), nodes=nodes, weights=weights)


@dataclass(frozen=True, eq=False)
class Domain:
    """Tensor product of periodic axes."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self):
        if len(self.axes) < 2:
            raise GridError(f"domain needs d >= 2 axes, got {len(self.axes)}")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.axes)

    def matches(self, other: "Domain") -> bool:
        return self.ndim == other.ndim and all(
            a.matches(b) for a, b in zip(self.axes, other.axes)
        )


def torus_domain(d: int, n: int) -> Domain:
    """d-dimensional torus [0, 2*pi)^d with n points per axis."""
    g = make_periodic_grid(n, 0.0, 2.0 * np.pi)
    return Domain(axes=(g,) * d)
