import numpy as np
import pytest

from fttpde.grids import (
    Domain,
    GridError,
    make_periodic_grid,
    torus_domain,
)

TWO_PI = 2 * np.pi


def test_uniform_weights_and_nodes():
    g = make_periodic_grid(81, 0.0, TWO_PI)
    assert g.n == 81
    assert np.allclose(g.weights, TWO_PI / 81)
    assert abs(g.weights.sum() - TWO_PI) < 1e-12
    assert np.allclose(np.diff(g.nodes), TWO_PI / 81)


def test_three_point_grid():
    g = make_periodic_grid(3, 0.0, TWO_PI)
    assert np.allclose(g.nodes, [0.0, TWO_PI / 3, 2 * TWO_PI / 3])
    assert abs(g.weights.sum() - TWO_PI) < 1e-14


@pytest.mark.parametrize("n", [9, 21, 64])
def test_diff1_on_sine(n):
    g = make_periodic_grid(n, 0.0, TWO_PI)
    err = np.max(np.abs(g.diff1 @ np.sin(g.nodes) - np.cos(g.nodes)))
    assert err <= 1e-10


def test_diff_matrices_annihilate_constants():
    g = make_periodic_grid(21, 0.0, TWO_PI)
    for mat in (g.diff1, g.diff2, g.diff4):
        assert np.max(np.abs(mat.sum(axis=1))) <= 1e-10


def test_diff_matrices_built_once_and_read_only():
    g = make_periodic_grid(9, 0.0, TWO_PI)
    for name in ("diff1", "diff2", "diff4"):
        mat = getattr(g, name)
        assert getattr(g, name) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_diff2_consistent_with_diff1_squared():
    g = make_periodic_grid(21, 0.0, TWO_PI)
    assert np.max(np.abs(g.diff1 @ g.diff1 - g.diff2)) <= 1e-8


def test_weighted_diff1_antisymmetric():
    g = make_periodic_grid(20, 0.0, TWO_PI)
    wd = g.weights[:, None] * g.diff1
    assert np.max(np.abs(wd + wd.T)) <= 1e-10


def test_nonunit_interval_scaling():
    g = make_periodic_grid(33, -1.0, 3.0)
    f = np.sin(2 * np.pi * (g.nodes + 1.0) / 4.0)
    df = (2 * np.pi / 4.0) * np.cos(2 * np.pi * (g.nodes + 1.0) / 4.0)
    assert np.max(np.abs(g.diff1 @ f - df)) <= 1e-10
    assert abs(g.weights.sum() - 4.0) < 1e-12


@pytest.mark.parametrize("bad", [(2, 0.0, 1.0), (5, 1.0, 1.0), (5, 2.0, 1.0)])
def test_invalid_grid_rejected(bad):
    with pytest.raises(GridError):
        make_periodic_grid(*bad)


def test_quad_inner_sine_squared():
    g = make_periodic_grid(21, 0.0, TWO_PI)
    s = np.sin(g.nodes)
    assert abs(np.sum(s * s * g.weights) - np.pi) <= 1e-10


def test_quad_inner_constants_and_orthogonality():
    g = make_periodic_grid(15, 0.0, TWO_PI)
    assert abs(np.sum(g.weights) - TWO_PI) <= 1e-12
    assert abs(np.sum(np.sin(g.nodes) * np.cos(g.nodes) * g.weights)) <= 1e-12


def test_trig_polynomial_quadrature_exact():
    g = make_periodic_grid(21, 0.0, TWO_PI)
    # degree < n/2 trig polynomial: exact analytic integral
    f = 1.5 + np.cos(3 * g.nodes) - 0.25 * np.sin(9 * g.nodes)
    assert abs(np.sum(f * g.weights) - 1.5 * TWO_PI) <= 1e-10 * 1.5 * TWO_PI


def test_domain_requires_two_axes():
    g = make_periodic_grid(9, 0.0, TWO_PI)
    with pytest.raises(GridError):
        Domain(axes=(g,))


def test_domain_matches():
    a = torus_domain(2, 9)
    b = torus_domain(2, 9)
    c = torus_domain(2, 11)
    assert a.matches(b)
    assert not a.matches(c)
