import numpy as np
import pytest

from fttpde.ftt import from_full, to_full
from fttpde.grids import ShapeError, torus_domain
from fttpde.operators import (
    RhsEvaluator,
    apply_separable,
    apply_separable_dense,
    eval_rhs,
    separable,
)
from fttpde.problems import advection2d, advection2d_rhs_dense, fp4d, kse2d

from conftest import random_ftt, weighted_dense_norm


def identity_op(domain, r=1):
    return separable([tuple(None for _ in domain.axes)] * r)


def test_identity_operator(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    out = apply_separable(identity_op(dom2), u)
    assert np.max(np.abs(to_full(out) - to_full(u))) <= 1e-14


def test_gradient_sum_on_product_of_sines():
    dom = torus_domain(2, 21)
    g1, g2 = dom.axes
    op = separable([(g1.diff1, None), (None, g2.diff1)])
    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    u = from_full(np.sin(x1) * np.sin(x2), dom, 1e-12)
    out = apply_separable(op, u)
    assert out.ranks == (1, 2, 1)
    expected = np.cos(x1) * np.sin(x2) + np.sin(x1) * np.cos(x2)
    assert np.max(np.abs(to_full(out) - expected)) <= 1e-10


def test_apply_separable_rank_growth(dom3, rng):
    op = separable(
        [
            (dom3.axes[0].diff1, None, None),
            (None, dom3.axes[1].diff1, None),
            (None, None, dom3.axes[2].diff1),
        ]
    )
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    out = apply_separable(op, u)
    assert all(r <= 3 * ru for r, ru in zip(out.ranks[1:-1], u.ranks[1:-1]))


def test_apply_separable_matches_dense_oracle(dom3, rng):
    mats = [rng.standard_normal((g.n, g.n)) for g in dom3.axes]
    op = separable(
        [
            (mats[0], None, None),
            (None, mats[1], mats[2]),
        ]
    )
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    out = to_full(apply_separable(op, u))
    oracle = apply_separable_dense(op, to_full(u))
    assert np.max(np.abs(out - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


def test_apply_separable_linearity(dom2, rng):
    g1, g2 = dom2.axes
    op = separable([(g1.diff1, None), (None, np.diag(np.cos(g2.nodes)) @ g2.diff1)])
    a = random_ftt(dom2, (1, 2, 1), rng)
    b = random_ftt(dom2, (1, 3, 1), rng)
    from fttpde.ftt import add

    lhs = to_full(apply_separable(op, add(a, b)))
    rhs = to_full(apply_separable(op, a)) + to_full(apply_separable(op, b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_apply_separable_shape_error(dom2, rng):
    op = separable([(np.eye(5), None)])
    u = random_ftt(dom2, (1, 2, 1), rng)
    with pytest.raises(ShapeError):
        apply_separable(op, u)


def test_fokker_planck_operator_matches_dense():
    prob = fp4d(n=11)
    assert prob.rhs.op.rank == 9
    rng = np.random.default_rng(5)
    u = random_ftt(prob.domain, (1, 2, 2, 2, 1), rng)
    out = to_full(eval_rhs(prob.rhs, u))
    oracle = apply_separable_dense(prob.rhs.op, to_full(u))
    err = weighted_dense_norm(out - oracle, prob.domain)
    assert err <= max(1e-10 * weighted_dense_norm(oracle, prob.domain), 1e-8)


def test_fokker_planck_operator_on_initial_profile():
    prob = fp4d(n=11)
    out = to_full(eval_rhs(prob.rhs, prob.initial))
    oracle = apply_separable_dense(prob.rhs.op, to_full(prob.initial))
    assert weighted_dense_norm(out - oracle, prob.domain) <= 1e-8


def test_advection_rhs_matches_dense():
    prob = advection2d(n=33)
    rng = np.random.default_rng(6)
    u = random_ftt(prob.domain, (1, 3, 1), rng)
    out = to_full(eval_rhs(prob.rhs, u))
    oracle = advection2d_rhs_dense(prob.domain)(to_full(u))
    assert weighted_dense_norm(out - oracle, prob.domain) <= max(
        1e-10 * weighted_dense_norm(oracle, prob.domain), 1e-10
    )


def test_kse_rhs_matches_dense():
    prob = kse2d(n=33)
    out = to_full(eval_rhs(prob.rhs, prob.initial))
    oracle = prob.reference.rhs_dense(to_full(prob.initial))
    assert weighted_dense_norm(out - oracle, prob.domain) <= 1e-8


def test_kse_rhs_matches_dense_random_low_rank(rng):
    prob = kse2d(n=33)
    u = random_ftt(prob.domain, (1, 3, 1), rng)
    out = to_full(eval_rhs(prob.rhs, u))
    oracle = prob.reference.rhs_dense(to_full(u))
    # rough random data drives the fourth-derivative terms to ~1e6, so the
    # bound is relative to the oracle's own size
    assert weighted_dense_norm(out - oracle, prob.domain) <= max(
        1e-10 * weighted_dense_norm(oracle, prob.domain), 1e-8
    )


def test_separable_reduces_to_apply_plus_truncate(dom2, rng):
    g1, g2 = dom2.axes
    op = separable([(g1.diff1, None), (None, g2.diff1)])
    rhs = RhsEvaluator(domain=dom2, op=op)
    u = random_ftt(dom2, (1, 2, 1), rng)
    direct = to_full(apply_separable(op, u))
    assert np.max(np.abs(to_full(eval_rhs(rhs, u)) - direct)) <= 1e-9 * max(
        1.0, np.max(np.abs(direct))
    )


def test_eval_rhs_domain_check(rng):
    dom_a = torus_domain(2, 9)
    dom_b = torus_domain(2, 11)
    rhs = RhsEvaluator(domain=dom_a, op=identity_op(dom_a))
    with pytest.raises(ShapeError):
        eval_rhs(rhs, random_ftt(dom_b, (1, 2, 1), np.random.default_rng(0)))
