import numpy as np
import pytest

from fttpde.ftt import from_full, integral, norm, scale, to_full, add
from fttpde.grids import Domain, ShapeError, torus_domain
from fttpde.integrators import rk4_dense_step
from fttpde.operators import apply_separable_dense
from fttpde.problems import (
    CharacteristicsReference,
    DenseRk4Reference,
    advection2d,
    advection2d_reference,
    advection2d_rhs_dense,
    build_problem,
    fp4d,
    kse2d,
    l2_error,
    marginal_2d,
)

from conftest import random_ftt, weighted_dense_norm


# ---------------------------------------------------------------------------
# advection

def test_advection_initial_values():
    prob = advection2d(n=81)
    dense = to_full(prob.initial)
    # exp(sin 0) = 1 up to the rank-15 truncation of the stored profile
    assert abs(dense[0, 0] - 1.0) <= 1e-5
    assert prob.initial.ranks == (1, 15, 1)


def test_advection_initial_truncation_error_vs_svd_oracle():
    # oracle: singular values of the weighted sample matrix fix the best
    # rank-15 error; the stored initial condition must match it
    prob = advection2d(n=81)
    dom = prob.domain
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    dense_ic = np.exp(np.sin(x1 + x2))
    w = dom.axes[0].weights
    sv = np.linalg.svd(np.sqrt(w)[:, None] * dense_ic * np.sqrt(w)[None, :], compute_uv=False)
    best15 = np.sqrt(np.sum(sv[15:] ** 2))
    err = weighted_dense_norm(to_full(prob.initial) - dense_ic, dom)
    ic_norm = weighted_dense_norm(dense_ic, dom)
    assert err <= 1.01 * best15 + 1e-14
    assert err / ic_norm <= 1e-7  # observed ~9.3e-8 relative at n=81


def test_advection_reference_at_t0():
    prob = advection2d(n=33)
    ref = advection2d_reference(prob.domain, 0.0)
    x1, x2 = np.meshgrid(prob.domain.axes[0].nodes, prob.domain.axes[1].nodes, indexing="ij")
    assert np.max(np.abs(ref - np.exp(np.sin(x1 + x2)))) <= 1e-14


def test_advection_reference_self_convergence():
    prob = advection2d(n=33)
    a = advection2d_reference(prob.domain, 0.5, ode_dt=1e-3)
    b = advection2d_reference(prob.domain, 0.5, ode_dt=5e-4)
    assert np.max(np.abs(a - b)) <= 1e-8


def test_advection_reference_fourth_order_in_ode_dt():
    prob = advection2d(n=21)
    tiny = advection2d_reference(prob.domain, 0.5, ode_dt=1e-4)
    errs = [
        np.max(np.abs(advection2d_reference(prob.domain, 0.5, ode_dt=dt) - tiny))
        for dt in (2e-2, 1e-2)
    ]
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order >= 3.5


def test_constant_drift_reference_is_translation():
    dom = torus_domain(2, 33)
    ic = lambda x1, x2: np.exp(np.sin(x1 + x2))
    ref = CharacteristicsReference(
        dom, lambda pos: np.stack([np.ones_like(pos[0]), np.zeros_like(pos[1])]), ic
    )
    t = 0.7
    got = ref.solution(t)
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    assert np.max(np.abs(got - ic(x1 + t, x2))) <= 1e-10


def test_advection_reference_solves_the_pde():
    # cross-check the characteristics direction against a dense spectral solve
    prob = advection2d(n=33)
    dom = prob.domain
    rhs = advection2d_rhs_dense(dom)
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    u = np.exp(np.sin(x1 + x2))
    dt = 1e-4
    t = 0.05
    for _ in range(int(round(t / dt))):
        u = rk4_dense_step(u, rhs, dt)
    ref = advection2d_reference(dom, t, ode_dt=1e-3)
    assert l2_error(u, ref, dom) <= 1e-8


def test_dense_reference_lands_exactly_between_steps(dom2, rng):
    # 0.0025 is two and a half reference steps: a shorter last step must
    # finish the interval instead of stopping at a neighbouring step
    u0 = rng.standard_normal(dom2.shape)
    ref = DenseRk4Reference(dom2, lambda u: -u, u0, dt_ref=1e-3)
    got = ref.solution(0.0025)
    assert np.max(np.abs(got - np.exp(-0.0025) * u0)) <= 1e-12
    got = ref.solution(0.004)
    assert np.max(np.abs(got - np.exp(-0.004) * u0)) <= 1e-12


# ---------------------------------------------------------------------------
# KSE

def test_kse_parameters():
    prob = kse2d()
    assert prob.params["nu"] == pytest.approx(0.16)
    assert prob.domain.shape == (33, 33)


def test_kse_initial_rank_from_svd_oracle():
    # sin(x+y) + sin x + sin y = sin x (1 + cos y) + (1 + cos x) sin y:
    # two orthogonal separable terms, so the sample matrix has rank 2
    prob = kse2d(n=33)
    dom = prob.domain
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    vals = np.sin(x1 + x2) + np.sin(x1) + np.sin(x2)
    w = dom.axes[0].weights
    sv = np.linalg.svd(np.sqrt(w)[:, None] * vals * np.sqrt(w)[None, :], compute_uv=False)
    oracle_rank = int(np.sum(sv > 1e-12 * np.linalg.norm(sv)))
    assert oracle_rank == 2
    assert np.allclose(sv[:2], np.sqrt(3.0) * np.pi)
    assert prob.initial.ranks == (1, oracle_rank, 1)
    assert weighted_dense_norm(to_full(prob.initial) - vals, dom) <= 1e-10


def test_kse_rhs_at_t0_matches_dense():
    prob = kse2d(n=33)
    from fttpde.operators import eval_rhs

    out = to_full(eval_rhs(prob.rhs, prob.initial))
    oracle = prob.reference.rhs_dense(to_full(prob.initial))
    assert weighted_dense_norm(out - oracle, prob.domain) <= 1e-8


# ---------------------------------------------------------------------------
# Fokker-Planck

def test_fp_operator_has_nine_terms():
    prob = fp4d(n=7)
    assert prob.rhs.op.rank == 9


def test_fp_initial_normalization():
    prob = fp4d(n=21)
    dense = to_full(prob.initial)
    grids = np.meshgrid(*[g.nodes for g in prob.domain.axes], indexing="ij")
    expected = np.sin(grids[0]) * np.sin(grids[1]) * np.sin(grids[2]) * np.sin(grids[3]) / 256.0
    assert np.max(np.abs(dense - expected)) <= 1e-15
    assert abs(integral(prob.initial)) <= 1e-12


def test_fp_initial_rank_one():
    prob = fp4d(n=11)
    assert prob.initial.ranks == (1, 1, 1, 1, 1)


def test_fp_generator_integrates_to_zero():
    # divergence form: the quadrature integral of L p vanishes
    prob = fp4d(n=11)
    rng = np.random.default_rng(2)
    p = random_ftt(prob.domain, (1, 2, 2, 2, 1), rng)
    lp = apply_separable_dense(prob.rhs.op, to_full(p))
    w = prob.domain.axes[0].weights
    total = lp.copy()
    for _ in range(4):
        total = np.tensordot(total, w, axes=(0, 0))
    assert abs(total) <= 1e-10 * weighted_dense_norm(lp, prob.domain)


# ---------------------------------------------------------------------------
# marginals and error metric

def test_marginal_of_rank_one_product(dom4, rng):
    fs = [rng.standard_normal(g.n) for g in dom4.axes]
    from fttpde.ftt import FttTensor

    u = FttTensor([f[None, :, None] for f in fs], dom4)
    got = marginal_2d(u, (0, 1))
    w = dom4.axes[0].weights
    expected = np.outer(fs[0], fs[1]) * np.sum(fs[2] * w) * np.sum(fs[3] * w)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_marginal_of_fp_initial_is_zero():
    prob = fp4d(n=11)
    marg = marginal_2d(prob.initial, (0, 1))
    assert np.max(np.abs(marg)) <= 1e-14


def test_marginal_matches_dense_oracle(rng):
    dom = torus_domain(4, 11)
    u = random_ftt(dom, (1, 2, 2, 2, 1), rng)
    dense = to_full(u)
    w = dom.axes[0].weights
    oracle = np.tensordot(np.tensordot(dense, w, axes=(3, 0)), w, axes=(2, 0))
    assert np.max(np.abs(marginal_2d(u, (0, 1)) - oracle)) <= 1e-10
    # swapped order transposes
    assert np.max(np.abs(marginal_2d(u, (1, 0)) - oracle.T)) <= 1e-10


def test_marginal_validation(rng):
    dom = torus_domain(3, 7)
    u = random_ftt(dom, (1, 2, 2, 1), rng)
    with pytest.raises(ValueError):
        marginal_2d(u, (0, 0))
    with pytest.raises(ValueError):
        marginal_2d(u, (0, 5))
    dom2 = torus_domain(2, 7)
    with pytest.raises(ValueError):
        marginal_2d(random_ftt(dom2, (1, 2, 1), rng), (0, 1))


def test_l2_error_basics(dom2, rng):
    a = rng.standard_normal(dom2.shape)
    assert l2_error(a, a, dom2) == 0.0
    c = 0.37
    assert abs(l2_error(a, a + c, dom2) - c * 2 * np.pi) <= 1e-12
    with pytest.raises(ShapeError):
        l2_error(a, a[:3], dom2)


def test_l2_error_matches_ftt_norm(dom2, rng):
    a = random_ftt(dom2, (1, 2, 1), rng)
    b = random_ftt(dom2, (1, 3, 1), rng)
    diff_norm = norm(add(a, scale(b, -1.0)))
    assert abs(l2_error(to_full(a), to_full(b), dom2) - diff_norm) <= 1e-10 * diff_norm


def test_build_problem_registry():
    assert build_problem("advection2d", n=21).name == "advection2d"
    with pytest.raises(ValueError):
        build_problem("unknown")
