import numpy as np
import pytest

from fttpde import ftt, operators, problems
from fttpde.ftt import from_full, to_full
from fttpde.grids import Domain, ShapeError, make_periodic_grid, torus_domain
from fttpde.operators import (
    apply_separable,
    apply_separable_dense,
    eval_rhs,
    separable,
)
from fttpde.problems import advection2d, fp4d, fp4d_operator, fp4d_stacks, kse2d

from conftest import advection2d_rhs_dense, kron_matrix, random_ftt, weighted_dense_norm


def identity_op(domain, r=1):
    return separable([tuple(None for _ in domain.axes)] * r, domain)


def test_identity_operator(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    out = apply_separable(identity_op(dom2), u)
    assert np.max(np.abs(to_full(out) - to_full(u))) <= 1e-14


def test_gradient_sum_on_product_of_sines():
    dom = torus_domain(2, 21)
    g1, g2 = dom.axes
    op = separable([(g1.diff1, None), (None, g2.diff1)], dom)
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
        ],
        dom3,
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
        ],
        dom3,
    )
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    out = to_full(apply_separable(op, u))
    oracle = apply_separable_dense(op, to_full(u))
    assert np.max(np.abs(out - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


def uneven_domain(*sizes):
    return Domain(axes=tuple(make_periodic_grid(n, 0.0, 2 * np.pi) for n in sizes))


def mixed_op(dom, rng):
    d = dom.ndim
    diags = [np.diag(rng.standard_normal(g.n)) for g in dom.axes]
    mats = [rng.standard_normal((g.n, g.n)) for g in dom.axes]
    return separable(
        [
            tuple(None for _ in range(d)),  # all identities
            tuple(diags),  # only diagonal factors
            (mats[0],) + (None,) * (d - 1),
            (None,) * (d - 1) + (mats[-1],),
            (diags[0],) + tuple(mats[1:]),  # diagonal and dense mixed
            tuple(mats[:-1]) + (diags[-1],),
            (None, dom.axes[1].diff2) + tuple(diags[2:]),
        ],
        dom,
    )


def stacked_terms(dom, rng):
    """4D terms mixing dense (a), diagonal (c) and identity factors: a dense
    and a diagonal factor on every kind of axis pair, single factors, two
    dense or two diagonal factors, and all identities."""
    c = lambda axis: np.diag(rng.standard_normal(dom.shape[axis]))  # noqa: E731
    a = lambda axis: rng.standard_normal((dom.shape[axis],) * 2)  # noqa: E731
    _ = None
    return [
        (a(0), c(1), _, _),
        (a(0), c(1), _, _),
        (_, a(1), c(2), _),
        (c(0), _, _, a(3)),
        (_, c(1), _, a(3)),
        (_, _, a(2), c(3)),
        (_, _, c(2), a(3)),
        (a(0), _, _, _),
        (_, c(1), _, _),
        (_, _, _, c(3)),
        (a(0), a(1), _, _),
        (_, c(1), c(2), _),
        (a(0), c(1), c(2), _),
        (_, _, _, _),
    ]


def stacked_op(dom, rng):
    return separable(stacked_terms(dom, rng), dom)


@pytest.mark.parametrize(
    "sizes, build",
    [((6, 9), mixed_op), ((5, 7, 4), mixed_op), ((3, 4, 5, 6), stacked_op)],
    ids=["2d", "3d", "4d_stacks"],
)
def test_apply_separable_dense_matches_kronecker_matrix(sizes, build, rng):
    dom = uneven_domain(*sizes)
    op = build(dom, rng)
    values = rng.standard_normal(dom.shape)
    values.flags.writeable = False
    before = values.copy()
    out = apply_separable_dense(op, values)
    oracle = (kron_matrix(op, dom.shape) @ values.ravel()).reshape(dom.shape)
    assert np.linalg.norm(out - oracle) <= 1e-13 * np.linalg.norm(oracle)
    assert out is not values and not np.shares_memory(out, values)
    assert np.array_equal(values, before)


def test_apply_separable_dense_identity_term_is_a_copy(dom2, rng):
    values = rng.standard_normal(dom2.shape)
    values.flags.writeable = False
    out = apply_separable_dense(identity_op(dom2), values)
    assert out is not values and out.flags.writeable
    assert np.array_equal(out, values)


def test_apply_separable_dense_rejects_wrong_dimension(dom2, dom3, rng):
    with pytest.raises(ShapeError):
        apply_separable_dense(identity_op(dom2), rng.standard_normal(dom3.shape))


def test_separable_needs_a_term(dom2):
    with pytest.raises(ValueError, match="at least one term"):
        separable([], dom2)


def test_fp4d_stacks_are_read_only():
    dom = torus_domain(4, 9)
    pairs = fp4d_stacks(dom)
    assert len(pairs) == 2 and all(len(pair) == 2 for pair in pairs)
    for b in pairs[0] + pairs[1]:
        assert b.shape == (9, 9, 9) and not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0, 0] = 1.0


@pytest.mark.parametrize("n", [9, 10, 21])
def test_fp4d_reference_rhs_matches_operator_oracle(n, rng):
    # the reference states its own stacks; the operator is the FTT path's
    prob = fp4d(n=n)
    values = rng.standard_normal(prob.domain.shape)
    values.flags.writeable = False
    before = values.copy()
    out = prob.reference.rhs_dense(values)
    oracle = apply_separable_dense(fp4d_operator(prob.domain), values)
    assert np.linalg.norm(out - oracle) <= 1e-14 * np.linalg.norm(oracle)
    assert not np.shares_memory(out, values)
    assert np.array_equal(values, before)


def tt_matrix_ranks(op):
    return (1,) + tuple(c.shape[3] for c in op.cores)


def test_fokker_planck_tt_matrix_ranks():
    assert tt_matrix_ranks(fp4d(n=11).rhs) == (1, 4, 4, 4, 1)


def test_compressed_operator_matches_dense_oracle(dom3, rng):
    # repeated, identity and diagonal factors make the stacked terms linearly
    # dependent, which the compression removes
    g1, g2, g3 = dom3.axes
    diag = np.diag(np.cos(g2.nodes))
    mat = rng.standard_normal((g3.n, g3.n))
    op = separable(
        [
            (g1.diff1, diag, None),
            (g1.diff1, None, mat),
            (None, diag, mat),
            (np.diag(np.sin(g1.nodes)), None, None),
            (g1.diff2, diag, mat),
        ],
        dom3,
    )
    tt_ranks = tt_matrix_ranks(op)
    assert max(tt_ranks) < len(op.terms)
    u = random_ftt(dom3, (1, 2, 3, 1), rng)
    out = apply_separable(op, u)
    oracle = apply_separable_dense(op, to_full(u))
    assert np.linalg.norm(to_full(out) - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert all(r <= t * ru for r, t, ru in zip(out.ranks, tt_ranks, u.ranks))


def test_tt_matrix_built_once_at_construction(monkeypatch):
    builds = []
    build = operators._build_tt_matrix

    def counting_build(terms, shape):
        builds.append(shape)
        return build(terms, shape)

    monkeypatch.setattr(operators, "_build_tt_matrix", counting_build)
    prob = fp4d(n=7)
    assert builds == [prob.domain.shape]
    first = to_full(eval_rhs(prob.rhs, prob.initial))
    for _ in range(2):
        assert np.array_equal(to_full(eval_rhs(prob.rhs, prob.initial)), first)
    assert builds == [prob.domain.shape]


def test_tt_matrix_cores_are_read_only(dom2):
    g1, g2 = dom2.axes
    op = separable([(g1.diff1, None), (None, g2.diff1)], dom2)
    for core in op.cores:
        assert not core.flags.writeable
        with pytest.raises(ValueError):
            core[0, 0, 0, 0] = 1.0


def test_apply_separable_linearity(dom2, rng):
    g1, g2 = dom2.axes
    op = separable([(g1.diff1, None), (None, np.diag(np.cos(g2.nodes)) @ g2.diff1)], dom2)
    a = random_ftt(dom2, (1, 2, 1), rng)
    b = random_ftt(dom2, (1, 3, 1), rng)
    from fttpde.ftt import add

    lhs = to_full(apply_separable(op, add(a, b)))
    rhs = to_full(apply_separable(op, a)) + to_full(apply_separable(op, b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_apply_separable_shape_error(dom2, rng):
    op = identity_op(torus_domain(2, 5))
    u = random_ftt(dom2, (1, 2, 1), rng)
    with pytest.raises(ShapeError):
        apply_separable(op, u)


@pytest.mark.parametrize("shape", [(7, 7, 7), (7, 7, 7, 9)], ids=["too_few_axes", "wrong_size"])
def test_tt_matrix_rejects_shape_that_does_not_fit(shape, monkeypatch):
    # separable checks the terms against the domain before it builds anything
    terms = fp4d_operator(torus_domain(4, 7)).terms
    monkeypatch.setattr(operators, "_build_tt_matrix", None)
    with pytest.raises(ShapeError):
        separable(terms, uneven_domain(*shape))


def test_fokker_planck_operator_matches_dense():
    prob = fp4d(n=11)
    assert len(prob.rhs.terms) == 9
    rng = np.random.default_rng(5)
    u = random_ftt(prob.domain, (1, 2, 2, 2, 1), rng)
    out = to_full(eval_rhs(prob.rhs, u))
    oracle = apply_separable_dense(prob.rhs, to_full(u))
    err = weighted_dense_norm(out - oracle, prob.domain)
    assert err <= max(1e-10 * weighted_dense_norm(oracle, prob.domain), 1e-8)


def test_fokker_planck_operator_on_initial_profile():
    prob = fp4d(n=11)
    out = to_full(eval_rhs(prob.rhs, prob.initial))
    oracle = apply_separable_dense(prob.rhs, to_full(prob.initial))
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


def test_eval_rhs_rounds_kse_composite_once(monkeypatch):
    # the composite returns its unrounded G: the one truncate is eval_rhs's
    prob = kse2d(n=17)
    tols = []
    original = ftt.truncate

    def spy(a, tol, *args, **kwargs):
        tols.append(tol)
        return original(a, tol, *args, **kwargs)

    for mod in (ftt, operators, problems):
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, spy)
    eval_rhs(prob.rhs, prob.initial)
    assert tols == [operators.G_TOL]


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
    op = separable([(g1.diff1, None), (None, g2.diff1)], dom2)
    u = random_ftt(dom2, (1, 2, 1), rng)
    direct = to_full(apply_separable(op, u))
    assert np.max(np.abs(to_full(eval_rhs(op, u)) - direct)) <= 1e-9 * max(
        1.0, np.max(np.abs(direct))
    )


def test_eval_rhs_domain_check():
    rng = np.random.default_rng(0)
    dom_a = torus_domain(2, 9)
    dom_b = torus_domain(2, 11)
    # the same n on another interval fits the TT-matrix's shape, so only the
    # operator's domain check refuses it
    dom_c = Domain(axes=(make_periodic_grid(9, 0.0, 1.0),) * 2)
    rhs = identity_op(dom_a)
    for dom in (dom_b, dom_c):
        with pytest.raises(ShapeError):
            eval_rhs(rhs, random_ftt(dom, (1, 2, 1), rng))
    # kse2d's composite checks its input through apply_separable
    kse = kse2d(n=9)
    with pytest.raises(ShapeError):
        eval_rhs(kse.rhs, random_ftt(dom_c, (1, 2, 1), rng))
