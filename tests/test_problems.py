import os

import numpy as np
import pytest

from fttpde import problems
from fttpde.ftt import from_full, integral, norm, scale, to_full, add
from fttpde.grids import Domain, GridError, ShapeError, torus_domain
from fttpde.integrators import rk4_dense_step
from fttpde.operators import apply_separable_dense
from fttpde.problems import (
    CharacteristicsReference,
    DenseRk4Reference,
    advection2d,
    build_problem,
    fp4d,
    kse2d,
    l2_error,
    marginal_2d,
)

from conftest import advection2d_rhs_dense, kron_matrix, random_ftt, weighted_dense_norm


def reference_at(builder, n, dt_ref):
    """builder(n)'s reference, set to step at dt_ref before its first request."""
    ref = builder(n=n).reference
    ref.dt_ref = dt_ref
    return ref


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
    ref = prob.reference.solution(0.0)
    x1, x2 = np.meshgrid(prob.domain.axes[0].nodes, prob.domain.axes[1].nodes, indexing="ij")
    assert np.max(np.abs(ref - np.exp(np.sin(x1 + x2)))) <= 1e-14


def test_advection_reference_self_convergence():
    a = advection2d(n=33).reference.solution(0.5)
    b = reference_at(advection2d, 33, 5e-4).solution(0.5)
    assert np.max(np.abs(a - b)) <= 1e-8


def test_advection_reference_fourth_order_in_ode_dt():
    tiny = reference_at(advection2d, 21, 1e-4).solution(0.5)
    errs = [
        np.max(np.abs(reference_at(advection2d, 21, dt).solution(0.5) - tiny))
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
    ref = prob.reference.solution(t)
    assert l2_error(u, ref, dom) <= 1e-8


def test_characteristics_reference_advances_incrementally():
    # each request continues from the last one: ten requests make the same
    # whole steps, byte for byte, as one integration from t = 0
    prob = advection2d(n=33)
    ref, dom = prob.reference, prob.domain
    pos = np.stack(np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij"))
    for i in range(1, 11):
        for _ in range(100):
            pos = rk4_dense_step(pos, ref.rhs_dense, 1e-3)
        assert ref.solution(i / 10).tobytes() == ref.ic_fn(*pos).tobytes()


def test_dense_reference_hands_out_its_state_read_only(dom2, rng):
    # no copy per request: the state is read-only, a repeated request makes
    # no step, and a later request leaves the earlier array as it was
    u0 = rng.standard_normal(dom2.shape)
    calls = []

    def rhs_dense(u):
        calls.append(1)
        return -u

    ref = DenseRk4Reference(rhs_dense, u0, dt_ref=1e-3)
    assert ref.solution(0.0) is u0  # the reference takes u0 without a copy
    got = ref.solution(0.002)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0
    before, n_calls = got.tobytes(), len(calls)
    assert ref.solution(0.002).tobytes() == before
    assert len(calls) == n_calls
    ref.solution(0.003)
    assert got.tobytes() == before


def test_characteristics_reference_rejects_going_back_in_time():
    ref = advection2d(n=33).reference
    ref.solution(0.2)
    with pytest.raises(ValueError):
        ref.solution(0.1)


def test_dense_reference_lands_exactly_between_steps(dom2, rng):
    # 0.0025 is two and a half reference steps: a shorter last step must
    # finish the interval instead of stopping at a neighbouring step
    u0 = rng.standard_normal(dom2.shape)
    ref = DenseRk4Reference(lambda u: -u, u0, dt_ref=1e-3)
    got = ref.solution(0.0025)
    assert np.max(np.abs(got - np.exp(-0.0025) * u0)) <= 1e-12
    got = ref.solution(0.004)
    assert np.max(np.abs(got - np.exp(-0.004) * u0)) <= 1e-12
    # the characteristics reference steps its node positions the same way:
    # 0.1005 is half a step past the last request, and one shorter step
    # lands on it, as a fresh reference whose step divides 0.1005 does
    ref = advection2d(n=33).reference
    ref.solution(0.1)
    got = ref.solution(0.1005)
    fresh = reference_at(advection2d, 33, 5e-4).solution(0.1005)
    assert np.max(np.abs(got - fresh)) <= 1e-13


# ---------------------------------------------------------------------------
# KSE

def test_kse_parameters():
    prob = kse2d()
    assert (prob.params["nu1"], prob.params["nu2"]) == (0.25, 0.04)
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


# ---------------------------------------------------------------------------
# Fokker-Planck

def test_fp_operator_has_nine_terms():
    prob = fp4d(n=7)
    assert len(prob.rhs.terms) == 9
    assert prob.params == {"alpha": 0.1, "beta": 2.0, "k": 1.0}


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


def test_fp_reference_matches_kronecker_rk4():
    prob = fp4d(n=7)
    shape = prob.domain.shape
    mat = kron_matrix(prob.rhs, shape)
    u = prob.reference.solution(0.0)
    for _ in range(10):
        u = rk4_dense_step(u, lambda v: (mat @ v.ravel()).reshape(shape), 1e-3)
    ref = prob.reference.solution(0.01)
    assert np.linalg.norm(ref - u) <= 1e-12 * np.linalg.norm(u)


def test_fp_generator_integrates_to_zero():
    # divergence form: the quadrature integral of L p vanishes
    prob = fp4d(n=11)
    rng = np.random.default_rng(2)
    p = random_ftt(prob.domain, (1, 2, 2, 2, 1), rng)
    lp = apply_separable_dense(prob.rhs, to_full(p))
    w = prob.domain.axes[0].weights
    total = lp.copy()
    for _ in range(4):
        total = np.tensordot(total, w, axes=(0, 0))
    assert abs(total) <= 1e-10 * weighted_dense_norm(lp, prob.domain)


# ---------------------------------------------------------------------------
# the dense references' own time-step error

@pytest.mark.parametrize(
    "builder, n, t", [(fp4d, 9, 0.02), (kse2d, 17, 0.002)], ids=["fp4d", "kse2d"]
)
def test_reference_step_error_is_negligible(builder, n, t):
    # the builder's reference step against half of it, at a short horizon
    ref = builder(n=n).reference
    half = reference_at(builder, n, ref.dt_ref / 2)
    coarse, fine = ref.solution(t), half.solution(t)
    assert np.linalg.norm(coarse - fine) <= 1e-9 * np.linalg.norm(fine)


@pytest.mark.parametrize("n", [21, 33])
def test_fp4d_reference_step_is_inside_rk4_stability(n):
    # RK4's real stability interval is about 2.79; a power iteration reads
    # the generator's spectral radius from below, so keep a margin under it
    ref = fp4d(n=n).reference
    v = np.random.default_rng(0).standard_normal((n,) * 4)
    for _ in range(60):
        w = ref.rhs_dense(v / np.linalg.norm(v))
        radius, v = np.linalg.norm(w), w
    assert ref.dt_ref * radius <= 2.0


def test_kse2d_reference_stays_bounded_on_a_fine_grid():
    # at the n = 33 step of 1e-5 this reference overflows to NaN by t = 0.002
    u = kse2d(n=65).reference.solution(0.002)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u)) < 10.0


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


class _Built(Exception):
    """Raised in place of torus_domain: the builder got past its guard."""


@pytest.fixture
def eight_gib(monkeypatch):
    # 8 GiB of physical memory, and a torus_domain that stops the builder
    # before it forms any array, so no case here allocates its grid
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)

    def no_domain(*args):
        raise _Built

    monkeypatch.setattr(problems, "torus_domain", no_domain)


@pytest.mark.parametrize(
    "builder, too_large, fits",
    # kse2d at n = 12,000: six n x n arrays are 6.4 GiB, but a run holds ~36;
    # fp4d at n = 115: six n^4 arrays are 7.8 GiB, but a run holds ~7 (10.4
    # GiB at the guard's eight); at n = 90 eight are 3.9 GiB
    [(kse2d, 12_000, 5_000), (advection2d, 12_000, 5_000), (fp4d, 115, 90)],
)
def test_grid_guard_counts_what_a_run_holds(eight_gib, builder, too_large, fits):
    with pytest.raises(GridError, match="grid too large"):
        builder(n=too_large)
    with pytest.raises(_Built):
        builder(n=fits)


def test_grid_guard_skipped_without_sysconf(eight_gib, monkeypatch):
    monkeypatch.delattr(os, "sysconf_names")
    with pytest.raises(_Built):
        kse2d(n=12_000)
