import math

import numpy as np
import pytest

from fttpde.ftt import (
    FttTensor,
    add,
    from_full,
    hadamard,
    norm,
    orthogonalize,
    scale,
    to_full,
    truncate,
    zero_pad,
)
from fttpde.grids import torus_domain
from fttpde.integrators import (
    AdaptiveState,
    HistoryNotReadyError,
    IntegratorConfig,
    adaptive_step,
    bdf_tangent_estimate,
    lie_trotter_step,
    normal_component,
    rk4_dense_step,
    step_truncation_step,
)
from fttpde.operators import RhsEvaluator, eval_rhs, separable
from fttpde.problems import advection2d, advection2d_rhs_dense, fp4d

from conftest import random_ftt


# ---------------------------------------------------------------------------
# lie_trotter_step

def test_zero_increment_is_identity(dom3, rng):
    u = random_ftt(dom3, (1, 2, 3, 1), rng)
    out = lie_trotter_step(u, scale(u, 0.0))
    assert out.ranks == u.ranks
    assert norm(add(out, scale(u, -1.0))) <= 1e-12 * norm(u)


@pytest.mark.parametrize("d,ranks", [(2, (1, 2, 1)), (3, (1, 2, 2, 1))])
def test_exactness_random_pairs(d, ranks, rng):
    dom = torus_domain(d, 17)
    for _ in range(20):
        u = random_ftt(dom, ranks, rng)
        v = random_ftt(dom, ranks, rng)
        out = lie_trotter_step(u, add(v, scale(u, -1.0)))
        assert norm(add(out, scale(v, -1.0))) <= 1e-10 * norm(v)


def test_rank_preservation_and_left_orthogonality(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    delta = random_ftt(dom3, (1, 4, 4, 1), rng)
    out = lie_trotter_step(u, scale(delta, 1e-3))
    assert out.ranks == u.ranks
    for k in range(2):
        g = dom3.axes[k].weights
        gram = np.einsum("aib,aic,i->bc", out.cores[k], out.cores[k], g)
        assert np.max(np.abs(gram - np.eye(out.ranks[k + 1]))) <= 1e-10


def test_consistency_with_step_truncation_on_advection():
    # one-step agreement at second order or better (Lie-Trotter vs rounding)
    prob = advection2d(n=81)
    u = prob.initial
    dts = [1e-2, 1e-3]
    diffs = []
    for dt in dts:
        g = eval_rhs(prob.rhs, u)
        lie = lie_trotter_step(u, scale(g, dt))
        st = step_truncation_step(u, scale(g, dt), 0.0, max_ranks=u.ranks)
        diffs.append(norm(add(lie, scale(st, -1.0))))
    shrink = diffs[0] / diffs[1]
    assert shrink >= 100.0 * 0.5  # at least ~x100 reduction for x10 smaller step


# ---------------------------------------------------------------------------
# step_truncation_step

def make_decay_rhs(dom):
    # du/dt = -u as a rank-1 separable operator
    terms = [tuple(-np.eye(g.n) if k == 0 else None for k, g in enumerate(dom.axes))]
    return RhsEvaluator(domain=dom, op=separable(terms))


def test_zero_rhs_keeps_state(dom2, rng):
    zero_op = separable([tuple(np.zeros((g.n, g.n)) for g in dom2.axes)])
    rhs = RhsEvaluator(domain=dom2, op=zero_op)
    u = random_ftt(dom2, (1, 2, 1), rng)
    out = step_truncation_step(u, scale(eval_rhs(rhs, u), 0.1), 1e-14)
    assert norm(add(out, scale(u, -1.0))) <= 1e-12 * norm(u)


def test_linear_decay_euler_factor(dom2, rng):
    rhs = make_decay_rhs(dom2)
    u = random_ftt(dom2, (1, 2, 1), rng)
    dt = 0.05
    out = step_truncation_step(u, scale(eval_rhs(rhs, u), dt), 1e-13)
    assert np.max(np.abs(to_full(out) - (1 - dt) * to_full(u))) <= 1e-10 * np.max(
        np.abs(to_full(u))
    )


def test_one_step_matches_dense_euler():
    prob = advection2d(n=33)
    u = prob.initial
    dt = 1e-4
    out = step_truncation_step(u, scale(eval_rhs(prob.rhs, u), dt), 1e-10)
    dense = to_full(u) + dt * advection2d_rhs_dense(prob.domain)(to_full(u))
    assert np.max(np.abs(to_full(out) - dense)) <= 1e-8


# ---------------------------------------------------------------------------
# BDF tangent estimates

def test_constant_history_gives_zero(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    est = bdf_tangent_estimate([(0.0, u), (0.1, u)], 2, 0.1)
    assert norm(est) <= 1e-10 * norm(u)


def exp_trajectory_errors(p, dts):
    dom = torus_domain(2, 9)
    rng = np.random.default_rng(0)
    w = random_ftt(dom, (1, 1, 1), rng)
    errs = []
    for dt in dts:
        history = [(k * dt, scale(w, math.exp(k * dt))) for k in range(-(p - 1), 1)]
        est = bdf_tangent_estimate(history, p, dt)
        # d/dt e^t w at t = 0 is w
        errs.append(norm(add(est, scale(w, -1.0))) / norm(w))
    return errs


@pytest.mark.parametrize("p,expected_slope", [(2, 1.0), (3, 2.0)])
def test_bdf_observed_order(p, expected_slope):
    dts = [1e-2, 1e-3, 1e-4]
    errs = exp_trajectory_errors(p, dts)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - expected_slope) <= 0.2


def test_two_point_error_constant():
    # e^t trajectory: two-point estimate error is ~dt/2
    errs = exp_trajectory_errors(2, [1e-3])
    assert abs(errs[0] - 0.5e-3) <= 1e-4


def test_insufficient_history_raises(dom2, rng):
    u = random_ftt(dom2, (1, 1, 1), rng)
    with pytest.raises(HistoryNotReadyError):
        bdf_tangent_estimate([(0.0, u)], 2, 0.1)


# ---------------------------------------------------------------------------
# normal component

def test_normal_of_identical_inputs_is_zero(dom2, rng):
    g = random_ftt(dom2, (1, 2, 1), rng)
    _, nn = normal_component(g, g)
    assert nn <= 1e-12 * norm(g)


def test_rank_preserving_dynamics_normal_vanishes_with_dt():
    # G(u) = du/dx1 on u = sin(x1): stays rank 1, so the residual is pure
    # backward-difference error and shrinks linearly with dt
    dom = torus_domain(2, 21)
    g1 = dom.axes[0]
    op = separable([(g1.diff1, None)])
    rhs = RhsEvaluator(domain=dom, op=op)
    x1, x2 = np.meshgrid(g1.nodes, dom.axes[1].nodes, indexing="ij")
    u0 = from_full(np.sin(x1) + 0 * x2, dom, 1e-12)
    results = {}
    for dt in (1e-2, 1e-3):
        cfg = IntegratorConfig(dt=dt, scheme="fixed_rank")
        state = AdaptiveState.initial(u0)
        for _ in range(3):
            state = adaptive_step(state, rhs, cfg)
        results[dt] = state.logs[-1].normal_norm
    assert results[1e-3] <= 0.2 * results[1e-2]


# ---------------------------------------------------------------------------
# adaptive_step behavior

def test_infinite_threshold_matches_fixed_rank():
    prob = advection2d(n=33)
    cfg_inf = IntegratorConfig(
        dt=1e-3, eps_inc=math.inf, dec_period=0, scheme="lie_trotter"
    )
    cfg_fix = IntegratorConfig(dt=1e-3, dec_period=0, scheme="fixed_rank")
    s1 = AdaptiveState.initial(prob.initial)
    s2 = AdaptiveState.initial(prob.initial)
    for _ in range(20):
        s1 = adaptive_step(s1, prob.rhs, cfg_inf)
        s2 = adaptive_step(s2, prob.rhs, cfg_fix)
    assert s1.u.ranks == s2.u.ranks
    assert norm(add(s1.u, scale(s2.u, -1.0))) <= 1e-13 * norm(s2.u)
    for r1, r2 in zip(s1.logs, s2.logs):
        assert (r1.t, r1.ranks, r1.event) == (r2.t, r2.ranks, r2.event)
        assert r1.normal_norm == r2.normal_norm


def test_rank_increase_triggered(dom2, rng):
    # force growth: tiny threshold, dynamics with large normal component
    g1, g2 = dom2.axes
    op = separable(
        [
            (np.diag(np.sin(g1.nodes)) @ g1.diff1, None),
            (None, np.diag(np.cos(g2.nodes)) @ g2.diff1),
        ]
    )
    rhs = RhsEvaluator(domain=dom2, op=op)
    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    u0 = from_full(np.exp(np.sin(x1 + x2)), dom2, 0.0, max_ranks=(1, 3, 1))
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-8, dec_period=0)
    state = AdaptiveState.initial(u0)
    for _ in range(4):
        state = adaptive_step(state, rhs, cfg)
    assert state.u.ranks[1] > 3
    assert any(rec.event.startswith("inc:") for rec in state.logs)


def test_no_adaptation_on_first_step(dom2, rng):
    rhs = make_decay_rhs(dom2)
    cfg = IntegratorConfig(dt=1e-2, eps_inc=0.0)
    state = AdaptiveState.initial(random_ftt(dom2, (1, 2, 1), rng))
    state = adaptive_step(state, rhs, cfg)
    assert state.logs[0].normal_norm is None
    assert state.logs[0].event == "none"


def test_periodic_rank_decrease(dom2, rng):
    rhs = make_decay_rhs(dom2)
    u = random_ftt(dom2, (1, 2, 1), rng)
    padded = add(u, scale(random_ftt(dom2, (1, 3, 1), rng), 1e-14))
    cfg = IntegratorConfig(
        dt=1e-3, eps_inc=math.inf, eps_dec=1e-10, dec_period=3
    )
    state = AdaptiveState.initial(padded)
    for _ in range(3):
        state = adaptive_step(state, rhs, cfg)
    assert state.logs[-1].event.startswith("dec:")
    assert state.u.ranks[1] == 2


def test_history_time_spacing(dom2, rng):
    rhs = make_decay_rhs(dom2)
    cfg = IntegratorConfig(dt=0.25, bdf_points=3)
    state = AdaptiveState.initial(random_ftt(dom2, (1, 2, 1), rng))
    for _ in range(4):
        state = adaptive_step(state, rhs, cfg)
    times = [t for t, _ in state.history]
    assert len(times) == 3
    assert np.allclose(np.diff(times), 0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1.0, bdf_points=5)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1.0, scheme="magic")


def test_bdf_normal_estimate_matches_dense_oracle():
    # recompute the estimated normal with plain dense arrays and compare
    prob = advection2d(n=33)
    dt = 1e-3
    cfg = IntegratorConfig(dt=dt, scheme="fixed_rank", dec_period=0)
    state = AdaptiveState.initial(prob.initial)
    dense_hist = [to_full(prob.initial)]
    for _ in range(5):
        state = adaptive_step(state, prob.rhs, cfg)
        dense_hist.append(to_full(state.u))
    g = eval_rhs(prob.rhs, state.u)
    tangent = bdf_tangent_estimate(state.history, 2, dt)
    _, nn = normal_component(g, tangent)
    dense_est = (dense_hist[-1] - dense_hist[-2]) / dt
    dense_normal = advection2d_rhs_dense(prob.domain)(dense_hist[-1]) - dense_est
    from fttpde.problems import l2_error

    dense_nn = l2_error(dense_normal, np.zeros_like(dense_normal), prob.domain)
    assert abs(nn - dense_nn) <= 1e-6 * max(dense_nn, 1e-12)
    # the next step logs exactly this estimate (evaluated at the step start)
    state = adaptive_step(state, prob.rhs, cfg)
    assert state.logs[-1].normal_norm == pytest.approx(nn, rel=1e-12)


def test_local_one_step_order_two_vs_dense_rk4():
    # adaptive one-step error against the dense reference step is O(dt^2)
    prob = advection2d(n=81)
    rhs_dense = advection2d_rhs_dense(prob.domain)
    from fttpde.problems import l2_error

    dts = [2e-3, 1e-3, 5e-4]
    errs = []
    for dt in dts:
        cfg = IntegratorConfig(dt=dt, eps_inc=100 * dt, eps_dec=1e-12)
        state = adaptive_step(AdaptiveState.initial(prob.initial), prob.rhs, cfg)
        dense = rk4_dense_step(to_full(prob.initial), rhs_dense, dt)
        errs.append(l2_error(to_full(state.u), dense, prob.domain))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


# ---------------------------------------------------------------------------
# no operation writes into a core array, so results may share cores

def frozen(u):
    for core in u.cores:
        core.flags.writeable = False
    return u


def _gradient_rhs(dom):
    terms = [
        tuple(g.diff1 if j == k else None for j, g in enumerate(dom.axes)) for k in range(dom.ndim)
    ]
    return RhsEvaluator(domain=dom, op=separable(terms))


READ_ONLY_CASES = {
    "scale": lambda u, v: scale(u, 2.0),
    "add": lambda u, v: add(u, v),
    "hadamard": lambda u, v: hadamard(u, v),
    "truncate": lambda u, v: truncate(u, 1e-8),
    "orthogonalize_left": lambda u, v: orthogonalize(u, "left", 2),
    "orthogonalize_right": lambda u, v: orthogonalize(u, "right", 1),
    "norm": lambda u, v: norm(u),
    "zero_pad": lambda u, v: zero_pad(u, v),
    "lie_trotter_step": lambda u, v: lie_trotter_step(u, scale(v, 1e-3)),
    "step_truncation_step": lambda u, v: step_truncation_step(u, scale(v, 1e-3), 1e-10),
    "eval_rhs": lambda u, v: eval_rhs(_gradient_rhs(u.domain), u),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_CASES))
def test_operations_accept_read_only_cores(name, dom3, rng):
    u = frozen(random_ftt(dom3, (1, 2, 3, 1), rng))
    v = frozen(random_ftt(dom3, (1, 3, 2, 1), rng))
    READ_ONLY_CASES[name](u, v)


def test_adaptive_step_accepts_read_only_cores():
    prob = fp4d(n=7)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=0.0, eps_dec=1e-8, dec_period=3)
    state = AdaptiveState.initial(prob.initial)
    for _ in range(3):
        for _, u in state.history:
            frozen(u)
        state = adaptive_step(state, prob.rhs, cfg)
    # the steps took the mode-addition, sweep and removal paths
    assert [rec.event[:4] for rec in state.logs] == ["none", "inc:", "inc:"]
    assert state.logs[-1].removed > 0


# ---------------------------------------------------------------------------
# dense RK4

def test_rk4_zero_rhs_identity(rng):
    u = rng.standard_normal((5, 5))
    assert np.array_equal(rk4_dense_step(u, lambda v: 0 * v, 0.1), u)


def test_rk4_scalar_exponential():
    u = np.array([1.0])
    out = rk4_dense_step(u, lambda v: v, 0.1)
    taylor = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
    assert abs(out[0] - taylor) <= 1e-15
    assert abs(out[0] - math.exp(0.1)) <= 1e-7


def test_rk4_linear_advection_order():
    # constant-coefficient transport: compare against the exact spectral shift
    g = torus_domain(2, 21).axes[0]
    u0 = np.exp(np.sin(g.nodes))
    c = 1.0
    rhs = lambda v: c * (g.diff1 @ v)

    def exact(t):
        k = np.fft.fftfreq(g.n, d=1.0 / g.n)
        return np.real(np.fft.ifft(np.fft.fft(u0) * np.exp(1j * k * c * t)))

    errs = []
    dts = [1e-1, 5e-2]
    for dt in dts:
        errs.append(np.max(np.abs(rk4_dense_step(u0, rhs, dt) - exact(dt))))
    order = np.log(errs[0] / errs[1]) / np.log(dts[0] / dts[1])
    assert order >= 4.5  # local error is O(dt^5)
