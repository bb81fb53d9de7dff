import logging
import math
import tracemalloc

import numpy as np
import pytest

from fttpde import ftt, integrators
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
    BDF_COEFFS,
    AdaptiveState,
    HistoryNotReadyError,
    IntegratorConfig,
    adaptive_step,
    bdf_tangent_estimate,
    lie_trotter_step,
    normal_component,
    rk4_dense_step,
)
from fttpde.operators import eval_rhs, separable
from fttpde.problems import advection2d, fp4d

from conftest import advection2d_rhs_dense, assert_same_bytes, random_ftt, truncated_step


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
        st = truncated_step(u, scale(g, dt), 0.0, max_ranks=u.ranks)
        diffs.append(norm(add(lie, scale(st, -1.0))))
    shrink = diffs[0] / diffs[1]
    assert shrink >= 100.0 * 0.5  # at least ~x100 reduction for x10 smaller step


# ---------------------------------------------------------------------------
# step-truncation

def make_decay_rhs(dom):
    # du/dt = -u as a rank-1 separable operator
    terms = [tuple(-np.eye(g.n) if k == 0 else None for k, g in enumerate(dom.axes))]
    return separable(terms, dom)


def test_zero_rhs_keeps_state(dom2, rng):
    rhs = separable([tuple(np.zeros((g.n, g.n)) for g in dom2.axes)], dom2)
    u = random_ftt(dom2, (1, 2, 1), rng)
    out = truncated_step(u, scale(eval_rhs(rhs, u), 0.1), 1e-14)
    assert norm(add(out, scale(u, -1.0))) <= 1e-12 * norm(u)


def test_linear_decay_euler_factor(dom2, rng):
    rhs = make_decay_rhs(dom2)
    u = random_ftt(dom2, (1, 2, 1), rng)
    dt = 0.05
    out = truncated_step(u, scale(eval_rhs(rhs, u), dt), 1e-13)
    assert np.max(np.abs(to_full(out) - (1 - dt) * to_full(u))) <= 1e-10 * np.max(
        np.abs(to_full(u))
    )


def test_one_step_matches_dense_euler():
    prob = advection2d(n=33)
    u = prob.initial
    dt = 1e-4
    out = truncated_step(u, scale(eval_rhs(prob.rhs, u), dt), 1e-10)
    dense = to_full(u) + dt * advection2d_rhs_dense(prob.domain)(to_full(u))
    assert np.max(np.abs(to_full(out) - dense)) <= 1e-8


# ---------------------------------------------------------------------------
# BDF tangent estimates

def test_constant_history_gives_zero(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    est = bdf_tangent_estimate([u, u], 2, 0.1)
    assert norm(est) <= 1e-10 * norm(u)


def exp_trajectory_errors(p, dts):
    dom = torus_domain(2, 9)
    rng = np.random.default_rng(0)
    w = random_ftt(dom, (1, 1, 1), rng)
    errs = []
    for dt in dts:
        history = [scale(w, math.exp(k * dt)) for k in range(-(p - 1), 1)]
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
        bdf_tangent_estimate([u], 2, 0.1)


FP4D_SAWTOOTH = IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25)


@pytest.fixture(scope="module")
def sawtooth_state():
    """fp4d_inc1e-3 (n=21) after 24 steps: the estimate of step 25 rounds
    a difference of ranks (1, 42, 161, 42, 1)."""
    prob = fp4d()
    state = AdaptiveState.initial(prob.initial)
    for _ in range(24):
        state = adaptive_step(state, prob.rhs, FP4D_SAWTOOTH)
    return state


def test_hinted_estimate_matches_truncate_at_the_sawtooth_state(sawtooth_state, monkeypatch):
    history, hint = sawtooth_state.history, sawtooth_state.prev_tangent.ranks
    ref = bdf_tangent_estimate(history, 2, 1e-3)
    inputs = []

    def spy(x, tol, max_ranks=None):
        inputs.append(x.ranks)
        return truncate(x, tol, max_ranks)

    monkeypatch.setattr(ftt, "truncate", spy)
    out = bdf_tangent_estimate(history, 2, 1e-3, hint)
    raw = add(history[-1], history[-2]).ranks
    assert len(inputs) == 1 and sum(inputs[0]) < sum(raw) / 2  # the sketch ran
    assert out.ranks == ref.ranks
    assert norm(add(out, scale(ref, -1.0))) <= 1e-11 * norm(ref)
    assert_same_bytes(bdf_tangent_estimate(history, 2, 1e-3, hint), out)


def test_hinted_estimate_peaks_below_5_mib(sawtooth_state):
    # ~3.7 MiB; truncate of the same difference peaks at ~6.2 MiB
    history, hint = sawtooth_state.history, sawtooth_state.prev_tangent.ranks
    tracemalloc.start()
    try:
        bdf_tangent_estimate(history, 2, 1e-3, hint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_unhinted_estimate_is_truncate(sawtooth_state):
    history = sawtooth_state.history
    est = add(scale(history[-1], 1.0 / 1e-3), scale(history[-2], -1.0 / 1e-3))
    assert_same_bytes(bdf_tangent_estimate(history, 2, 1e-3), truncate(est, 1e-12)[0])


@pytest.mark.parametrize(
    "build, n",
    [(advection2d, 17), (fp4d, 9)],
    ids=["two_axes", "rank_one"],
)
def test_hinted_estimate_without_a_sketch_is_truncate(build, n):
    # fp4d starts at rank 1 and eps_inc = inf keeps it: the difference has ranks 2
    prob = build(n=n)
    cfg = IntegratorConfig(dt=1e-3, dec_period=0)
    state = AdaptiveState.initial(prob.initial)
    for _ in range(2):
        state = adaptive_step(state, prob.rhs, cfg)
    ref = bdf_tangent_estimate(state.history, 2, 1e-3)
    assert_same_bytes(bdf_tangent_estimate(state.history, 2, 1e-3, ref.ranks), ref)


# ---------------------------------------------------------------------------
# normal component

def test_normal_of_identical_inputs_is_zero(dom2, rng):
    g = random_ftt(dom2, (1, 2, 1), rng)
    _, nn = normal_component(g, g)
    assert nn <= 1e-12 * norm(g)


def test_normal_residual_is_right_orthogonal_with_its_norm(dom3, rng):
    g = random_ftt(dom3, (1, 3, 2, 1), rng)
    tangent = random_ftt(dom3, (1, 2, 3, 1), rng)
    n_t, nn = normal_component(g, tangent)
    assert n_t.right_orth_from == 2
    exact = norm(add(g, scale(tangent, -1.0)))
    assert abs(nn - exact) <= 1e-14 * exact
    # rounding the residual takes no sweep of its own, and rounds it as
    # rounding the raw difference does
    assert ftt._right_orthogonalized(n_t) is n_t
    assert_same_bytes(truncate(n_t, 1e-2)[0], truncate(add(g, scale(tangent, -1.0)), 1e-2)[0])


def test_rank_preserving_dynamics_normal_vanishes_with_dt():
    # G(u) = du/dx1 on u = sin(x1): stays rank 1, so the residual is pure
    # backward-difference error and shrinks linearly with dt
    dom = torus_domain(2, 21)
    g1 = dom.axes[0]
    rhs = separable([(g1.diff1, None)], dom)
    x1, x2 = np.meshgrid(g1.nodes, dom.axes[1].nodes, indexing="ij")
    u0 = from_full(np.sin(x1) + 0 * x2, dom, 1e-12)
    results = {}
    for dt in (1e-2, 1e-3):
        cfg = IntegratorConfig(dt=dt, dec_period=0)
        state = AdaptiveState.initial(u0)
        for _ in range(3):
            state = adaptive_step(state, rhs, cfg)
        results[dt] = state.logs[-1].normal_norm
    assert results[1e-3] <= 0.2 * results[1e-2]


# ---------------------------------------------------------------------------
# adaptive_step behavior

def test_interleaved_trajectories_keep_their_own_rank_hints():
    # the rank hint of the randomized rounding lives in each AdaptiveState,
    # so two trajectories sharing one evaluator do not steer each other
    prob = fp4d(n=9)
    configs = [
        IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25),
        IntegratorConfig(dt=1e-3, eps_inc=1e-2, eps_dec=1e-8, dec_period=25),
    ]

    def run(order):
        states = [AdaptiveState.initial(prob.initial) for _ in configs]
        for i in order:
            adaptive_step(states[i], prob.rhs, configs[i])
        return [s.logs for s in states]

    alone = run([0] * 6 + [1] * 6)
    assert alone[0] != alone[1]
    assert run([0, 1] * 6) == alone


def test_rank_increase_triggered(dom2, rng):
    # force growth: tiny threshold, dynamics with large normal component
    g1, g2 = dom2.axes
    rhs = separable(
        [
            (np.diag(np.sin(g1.nodes)) @ g1.diff1, None),
            (None, np.diag(np.cos(g2.nodes)) @ g2.diff1),
        ],
        dom2,
    )
    x1, x2 = np.meshgrid(g1.nodes, g2.nodes, indexing="ij")
    u0 = from_full(np.exp(np.sin(x1 + x2)), dom2, 0.0, max_ranks=(1, 3, 1))
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-8, dec_period=0)
    state = AdaptiveState.initial(u0)
    for _ in range(4):
        state = adaptive_step(state, rhs, cfg)
    assert state.u.ranks[1] > 3
    assert any(rec.event.startswith("inc:") for rec in state.logs)


def test_step_after_an_addition_is_continuous_in_g(monkeypatch):
    # fp4d n=9 adds modes at step 2; the sweep on the padded state must fill
    # them with G along the template's directions, not with roundoff
    prob = fp4d(n=9)
    sweeps = []

    def spy(u, delta_u):
        sweeps.append((u, delta_u))
        return lie_trotter_step(u, delta_u)

    monkeypatch.setattr(integrators, "lie_trotter_step", spy)
    state = AdaptiveState.initial(prob.initial)
    for _ in range(2):
        state = adaptive_step(state, prob.rhs, FP4D_SAWTOOTH)
    assert state.logs[1].event.startswith("inc:")
    u, delta_u = sweeps[1]
    assert u.ranks == (1, 5, 6, 5, 1)
    base = lie_trotter_step(u, delta_u)
    moved = lie_trotter_step(u, scale(delta_u, 1.0 + 1e-15))
    assert norm(add(moved, scale(base, -1.0))) <= 1e-14 * norm(base)


def test_addition_rounds_the_normal_once_within_the_free_ranks(monkeypatch):
    # fp4d n=9 reaches the outer grid cap 9 by step 5; rounding the normal
    # at 1e-2 without the cap and then clipping it to the free ranks kept
    # 5 middle modes there, two of them below the tolerance
    prob = fp4d(n=9)
    pads = []

    def spy(u, normal, tol):
        pads.append((u, normal, tol))
        return zero_pad(u, normal, tol)

    monkeypatch.setattr(integrators, "zero_pad", spy)
    state = AdaptiveState.initial(prob.initial)
    for _ in range(5):
        state = adaptive_step(state, prob.rhs, FP4D_SAWTOOTH)
    u, normal, tol = pads[-1]
    assert len(pads) == 4 and tol == 1e-2
    assert u.ranks == (1, 9, 14, 9, 1)
    free = [1, 1, 81 - 14, 1, 1]
    once, _ = truncate(normal, tol, max_ranks=free)
    assert once.ranks == (1, 1, 3, 1, 1)
    padded = zero_pad(u, normal, tol)
    # u's ranks plus the rounded normal's; the right sweep already drops the
    # pad above the cap at interface 3, the step's sweep the one at interface 1
    assert padded.ranks == (1, 10, 17, 9, 1)
    assert state.logs[-1].event == "inc:3"
    twice, _ = truncate(truncate(normal, tol)[0], 0.0, max_ranks=free)
    assert twice.ranks[2] == 5


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
    assert len(state.history) == 3
    assert state.history[-1] is state.u


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1.0, bdf_points=5)
    # a NaN, an infinite dt or eps_dec, or a negative dec_period
    for settings in (
        {"dt": math.nan},
        {"dt": math.inf},
        {"dt": 1.0, "eps_inc": math.nan},
        {"dt": 1.0, "eps_dec": math.nan},
        {"dt": 1.0, "eps_dec": math.inf},
        {"dt": 1.0, "dec_period": -1},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**settings)


EPS_INC_WARNING = "below 10x the backward-difference error estimate"


@pytest.mark.parametrize(
    "eps_inc, expected",
    [(1e-3, 1), (math.inf, 0)],
    ids=["small_threshold", "never_add"],
)
def test_eps_inc_warning_is_logged_once(caplog, eps_inc, expected):
    # on fp4d the backward-difference error estimate reaches 3.4e-3 at step
    # 3, above eps_inc = 1e-3 / 10
    prob = fp4d(n=9)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=eps_inc, eps_dec=1e-8, dec_period=25)
    state = AdaptiveState.initial(prob.initial)
    with caplog.at_level(logging.WARNING, logger="fttpde.integrators"):
        for _ in range(6):
            state = adaptive_step(state, prob.rhs, cfg)
    warnings = [r for r in caplog.records if EPS_INC_WARNING in r.getMessage()]
    assert len(warnings) == expected
    assert state.eps_inc_warned == (expected == 1)


@pytest.mark.parametrize("dt", [1e-3, 0.1, 0.37])
def test_bdf3_table_matches_explicit_weights(dom2, rng, dt):
    # no preset uses three points, so pin the arithmetic of the table here
    u_im2, u_im1, u_i = (random_ftt(dom2, (1, 2, 1), rng) for _ in range(3))
    history = [u_im2, u_im1, u_i]
    explicit = add(
        add(scale(u_i, 3.0 / (2 * dt)), scale(u_im1, -4.0 / (2 * dt))),
        scale(u_im2, 1.0 / (2 * dt)),
    )
    expected, _ = truncate(explicit, 1e-12)
    got = bdf_tangent_estimate(history, 3, dt)
    assert len(got.cores) == len(expected.cores)
    assert all(np.array_equal(a, b) for a, b in zip(got.cores, expected.cores))


def test_config_and_estimate_accept_the_same_orders(dom2, rng):
    history = [random_ftt(dom2, (1, 2, 1), rng) for _ in range(6)]
    for p in range(6):
        try:
            IntegratorConfig(dt=0.1, bdf_points=p)
            config_ok = True
        except ValueError:
            config_ok = False
        try:
            bdf_tangent_estimate(history, p, 0.1)
            estimate_ok = True
        except ValueError:
            estimate_ok = False
        assert config_ok == estimate_ok == (p in BDF_COEFFS), p
    assert set(BDF_COEFFS) == {2, 3}


def test_bdf_normal_estimate_matches_dense_oracle():
    # recompute the estimated normal with plain dense arrays and compare
    prob = advection2d(n=33)
    dt = 1e-3
    cfg = IntegratorConfig(dt=dt, dec_period=0)
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
    return separable(terms, dom)


READ_ONLY_CASES = {
    "scale": lambda u, v: scale(u, 2.0),
    "add": lambda u, v: add(u, v),
    "hadamard": lambda u, v: hadamard(u, v),
    "truncate": lambda u, v: truncate(u, 1e-8),
    "orthogonalize_left": lambda u, v: orthogonalize(u, "left", 2),
    "orthogonalize_right": lambda u, v: orthogonalize(u, "right", 1),
    "norm": lambda u, v: norm(u),
    "zero_pad": lambda u, v: zero_pad(u, v, tol=0.0),
    "lie_trotter_step": lambda u, v: lie_trotter_step(u, scale(v, 1e-3)),
    "truncated_step": lambda u, v: truncated_step(u, scale(v, 1e-3), 1e-10),
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
        for u in state.history:
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


def rk4_closed_formula(u, rhs, dt):
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_matches_closed_formula_and_writes_only_its_own_arrays(rng):
    u = rng.standard_normal((6, 5, 4))
    u.flags.writeable = False
    returned = []

    def nonlinear(v):
        return np.sin(v) * v - 0.3 * v**3

    def rhs(v):
        out = nonlinear(v)
        out.flags.writeable = False  # a write into it raises
        returned.append((out, out.copy()))
        return out

    out = rk4_dense_step(u, rhs, 0.37)
    assert len(returned) == 4
    assert all(np.array_equal(k, saved) for k, saved in returned)
    assert not any(np.may_share_memory(out, x) for x in [u] + [k for k, _ in returned])
    assert np.array_equal(out, rk4_closed_formula(u, nonlinear, 0.37))


def test_rk4_rhs_returning_its_input(rng):
    # every k then aliases the stage it was evaluated at
    u = rng.standard_normal((4, 7))
    before = u.copy()
    out = rk4_dense_step(u, lambda v: v, 0.2)
    assert np.array_equal(u, before)
    assert np.array_equal(out, rk4_closed_formula(u, lambda v: v, 0.2))
    assert np.allclose(out, u * (1 + 0.2 + 0.2**2 / 2 + 0.2**3 / 6 + 0.2**4 / 24), rtol=1e-15)


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
