import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fttpde import ftt, operators
from fttpde.ftt import (
    DomainMismatchError,
    FttTensor,
    add,
    from_full,
    hadamard,
    inner,
    integral,
    norm,
    orthogonalize,
    qr_core,
    scale,
    sketch_truncate,
    to_full,
    truncate,
    zero_pad,
)
from fttpde.grids import ShapeError, torus_domain
from fttpde.integrators import AdaptiveState, IntegratorConfig, adaptive_step, lie_trotter_step
from fttpde.operators import apply_separable, eval_rhs, separable
from fttpde.problems import advection2d, fp4d

from conftest import assert_same_bytes, random_ftt, weighted_dense_norm

TWO_PI = 2 * np.pi


def gram(core, weights):
    return np.einsum("aib,aic,i->bc", core, core, weights)


def right_gram(core, weights):
    return np.einsum("aib,cib,i->ac", core, core, weights)


# ---------------------------------------------------------------------------
# from_full / to_full

def test_rank_one_product_of_sines(dom4):
    grids = np.meshgrid(*[g.nodes for g in dom4.axes], indexing="ij")
    vals = np.sin(grids[0]) * np.sin(grids[1]) * np.sin(grids[2]) * np.sin(grids[3])
    u = from_full(vals, dom4, 1e-10)
    assert u.ranks == (1, 1, 1, 1, 1)
    assert np.max(np.abs(to_full(u) - vals)) <= 1e-12


def test_sin_sum_has_rank_two(dom2):
    # dense SVD oracle: sin(x1+x2) = sin x1 cos x2 + cos x1 sin x2
    x1, x2 = np.meshgrid(dom2.axes[0].nodes, dom2.axes[1].nodes, indexing="ij")
    vals = np.sin(x1 + x2)
    w = dom2.axes[0].weights
    sv = np.linalg.svd(np.sqrt(w)[:, None] * vals * np.sqrt(w)[None, :], compute_uv=False)
    assert int(np.sum(sv > 1e-12)) == 2
    u = from_full(vals, dom2, 1e-10)
    assert u.ranks == (1, 2, 1)


def test_zero_array_gives_zero_rank_one(dom3):
    u = from_full(np.zeros(dom3.shape), dom3, 0.0)
    assert u.ranks == (1, 1, 1, 1)
    assert all(np.all(c == 0.0) for c in u.cores)


def test_round_trip_exact(dom2, rng):
    vals = rng.standard_normal(dom2.shape)
    u = from_full(vals, dom2, 0.0)
    assert np.max(np.abs(to_full(u) - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_rank_one_outer_product(dom2, rng):
    f = rng.standard_normal(dom2.axes[0].n)
    g = rng.standard_normal(dom2.axes[1].n)
    u = FttTensor([f[None, :, None], g[None, :, None]], dom2)
    assert np.max(np.abs(to_full(u) - np.outer(f, g))) <= 1e-13


def test_from_full_shape_error(dom2):
    with pytest.raises(ShapeError):
        from_full(np.zeros((3, 4)), dom2, 0.0)


def test_from_full_respects_max_ranks(dom2, rng):
    vals = rng.standard_normal(dom2.shape)
    u = from_full(vals, dom2, 0.0, max_ranks=(1, 4, 1))
    assert u.ranks == (1, 4, 1)
    # capped rank equals the best rank-4 approximation (dense SVD oracle)
    w = dom2.axes[0].weights
    m = np.sqrt(w)[:, None] * vals * np.sqrt(w)[None, :]
    uu, ss, vv = np.linalg.svd(m)
    best = (uu[:, :4] * ss[:4]) @ vv[:4]
    best = best / np.sqrt(w)[:, None] / np.sqrt(w)[None, :]
    assert np.max(np.abs(to_full(u) - best)) <= 1e-10


@given(tol=st.sampled_from([1e-2, 1e-6, 1e-10]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_from_full_error_bound_property(tol, seed):
    rng = np.random.default_rng(seed)
    dom = torus_domain(3, 9)
    vals = rng.standard_normal(dom.shape)
    u = from_full(vals, dom, tol)
    err = weighted_dense_norm(to_full(u) - vals, dom)
    assert err <= tol * weighted_dense_norm(vals, dom) + 1e-13


# ---------------------------------------------------------------------------
# qr_core

def test_qr_core_left_reconstructs(rng):
    dom = torus_domain(2, 17)
    g = dom.axes[0]
    core = rng.standard_normal((2, 17, 3))
    q, r = qr_core(core, g.weights, "left")
    assert np.max(np.abs(gram(q, g.weights) - np.eye(3))) <= 1e-12
    recon = np.tensordot(q, r, axes=(2, 0))
    assert np.max(np.abs(recon - core)) <= 1e-12
    assert np.all(np.diag(r) >= 0)


def test_qr_core_right_reconstructs(rng):
    dom = torus_domain(2, 17)
    g = dom.axes[0]
    core = rng.standard_normal((3, 17, 2))
    q, r = qr_core(core, g.weights, "right")
    assert np.max(np.abs(right_gram(q, g.weights) - np.eye(3))) <= 1e-12
    recon = np.tensordot(r.T, q, axes=(1, 0))
    assert np.max(np.abs(recon - core)) <= 1e-12


def test_qr_core_orthonormal_input_gives_identity(rng):
    g = torus_domain(2, 17).axes[0]
    core = rng.standard_normal((1, 17, 3))
    q, _ = qr_core(core, g.weights, "left")
    q2, r2 = qr_core(q, g.weights, "left")
    assert np.max(np.abs(r2 - np.eye(3))) <= 1e-12
    assert np.max(np.abs(q2 - q)) <= 1e-12


def test_qr_core_scaling_gives_scaled_r(rng):
    g = torus_domain(2, 17).axes[0]
    core = rng.standard_normal((1, 17, 3))
    q, _ = qr_core(core, g.weights, "left")
    _, r = qr_core(2.5 * q, g.weights, "left")
    assert np.max(np.abs(r - 2.5 * np.eye(3))) <= 1e-12


def test_qr_core_rank_deficient(rng):
    g = torus_domain(2, 17).axes[0]
    core = rng.standard_normal((1, 17, 3))
    core[:, :, 2] = 0.0
    q, r = qr_core(core, g.weights, "left")
    assert np.max(np.abs(gram(q, g.weights) - np.eye(3))) <= 1e-12
    assert np.max(np.abs(np.tensordot(q, r, axes=(2, 0)) - core)) <= 1e-12


# ---------------------------------------------------------------------------
# orthogonalize

def test_orthogonalize_partial_left(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    v, _ = orthogonalize(u, "left", 2)
    for k in range(2):
        dev = np.max(np.abs(gram(v.cores[k], dom3.axes[k].weights) - np.eye(v.cores[k].shape[2])))
        assert dev <= 1e-12
    assert np.max(np.abs(to_full(v) - to_full(u))) <= 1e-12 * np.max(np.abs(to_full(u)))


def test_orthogonalize_full_left_all_cores(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    v, r = orthogonalize(u, "left", 3)
    for k in range(3):
        dev = np.max(np.abs(gram(v.cores[k], dom3.axes[k].weights) - np.eye(v.cores[k].shape[2])))
        assert dev <= 1e-12
    # u = r[0,0] * v
    assert np.max(np.abs(r[0, 0] * to_full(v) - to_full(u))) <= 1e-10


def test_orthogonalize_right_full(dom3, rng):
    u = random_ftt(dom3, (1, 2, 3, 1), rng)
    v, _ = orthogonalize(u, "right", 2)
    for k in (1, 2):
        dev = np.max(
            np.abs(right_gram(v.cores[k], dom3.axes[k].weights) - np.eye(v.cores[k].shape[0]))
        )
        assert dev <= 1e-12
    assert np.max(np.abs(to_full(v) - to_full(u))) <= 1e-12 * np.max(np.abs(to_full(u)))


def test_orthogonalize_idempotent_on_left_orthogonal(dom3, rng):
    # re-orthogonalizing an already left-orthogonal train reproduces the
    # cores themselves (nonnegative-diagonal R makes the factors unique)
    u = from_full(rng.standard_normal(dom3.shape), dom3, 0.0)
    v, _ = orthogonalize(u, "left", 2)
    for cu, cv in zip(u.cores, v.cores):
        assert np.max(np.abs(cu - cv)) <= 1e-12


def test_orthogonalize_pivot_out_of_range(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    with pytest.raises(ValueError):
        orthogonalize(u, "left", 0)
    with pytest.raises(ValueError):
        orthogonalize(u, "left", 3)


def test_unknown_orthogonalization_side(dom2, rng):
    u = random_ftt(dom2, (1, 2, 1), rng)
    with pytest.raises(ValueError, match="direction"):
        orthogonalize(u, "up", 1)
    with pytest.raises(ValueError, match="side"):
        qr_core(u.cores[0], dom2.axes[0].weights, "up")


def test_cores_come_out_in_c_order(dom3, rng):
    # BLAS products round differently for C- and Fortran-ordered operands, so
    # the layout of every core a kernel returns is fixed to C order
    u = random_ftt(dom3, (1, 5, 3, 1), rng)
    u = FttTensor([np.asfortranarray(c) for c in u.cores], dom3)
    w = dom3.axes[1].weights
    outs = [qr_core(u.cores[1], w, side)[0] for side in ("left", "right")]
    for direction, pivot in (("left", 3), ("left", 2), ("right", 1), ("right", 2)):
        outs += orthogonalize(u, direction, pivot)[0].cores
    for tol in (0.0, 0.5):
        outs += truncate(u, tol)[0].cores
    assert all(c.flags.c_contiguous for c in outs)


def test_norm_matches_dense(dom3, rng):
    u = random_ftt(dom3, (1, 2, 3, 1), rng)
    dense = to_full(u)
    assert abs(norm(u) - weighted_dense_norm(dense, dom3)) <= 1e-10 * weighted_dense_norm(
        dense, dom3
    )


# ---------------------------------------------------------------------------
# truncate

def test_truncate_rank_one_unchanged(dom3, rng):
    u = random_ftt(dom3, (1, 1, 1, 1), rng)
    v, _ = truncate(u, 1e-1)
    assert v.ranks == (1, 1, 1, 1)
    assert np.max(np.abs(to_full(v) - to_full(u))) <= 1e-12 * np.max(np.abs(to_full(u)))


def test_truncate_duplicate_modes(dom3, rng):
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    both = add(u, u)
    v, _ = truncate(both, 1e-12)
    assert v.ranks == u.ranks
    assert np.max(np.abs(to_full(v) - 2 * to_full(u))) <= 1e-10 * np.max(np.abs(to_full(u)))


def test_truncate_error_bound(dom3, rng):
    for tol in (1e-2, 1e-6, 1e-10):
        u = random_ftt(dom3, (1, 4, 4, 1), rng)
        v, _ = truncate(u, tol)
        err = weighted_dense_norm(to_full(v) - to_full(u), dom3)
        assert err <= tol * norm(u) + 1e-13


def test_truncate_reduces_advection_ic():
    dom = torus_domain(2, 81)
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    u = from_full(np.exp(np.sin(x1 + x2)), dom, 0.0, max_ranks=(1, 15, 1))
    v, _ = truncate(u, 1e-1)
    assert v.ranks[1] < 15
    err = weighted_dense_norm(to_full(v) - to_full(u), dom)
    assert err <= 0.1 * norm(u)


def test_truncate_schmidt_values_match_dense_svd(dom3, rng):
    u = random_ftt(dom3, (1, 3, 3, 1), rng)
    _, schmidt = truncate(u, 0.0)
    dense = to_full(u)
    work = dense.copy()
    for ax, g in enumerate(dom3.axes):
        shape = [1, 1, 1]
        shape[ax] = g.n
        work = work * np.sqrt(g.weights).reshape(shape)
    ns = dom3.shape
    for k in range(2):
        mat = work.reshape(int(np.prod(ns[: k + 1])), -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        m = min(len(sv), len(schmidt[k]))
        assert np.max(np.abs(np.sort(sv)[::-1][:m] - np.sort(schmidt[k])[::-1][:m])) <= 1e-8


def test_truncate_max_ranks_cap(dom3, rng):
    u = random_ftt(dom3, (1, 4, 4, 1), rng)
    v, _ = truncate(u, 0.0, max_ranks=(1, 2, 3, 1))
    assert v.ranks == (1, 2, 3, 1)


# ---------------------------------------------------------------------------
# sketch_truncate

def relative_error(approx, exact):
    return norm(add(approx, scale(exact, -1.0))) / norm(exact)


def four_copies(a):
    """a * (1 + 0.5 - 0.25 + 2), stored with four times a's interior ranks."""
    return add(add(a, scale(a, 0.5)), add(scale(a, -0.25), scale(a, 2.0)))


@pytest.fixture
def truncate_inputs(monkeypatch):
    """Ranks of every train that sketch_truncate hands to truncate."""
    seen = []

    def spy(x, tol, max_ranks=None):
        seen.append(x.ranks)
        return truncate(x, tol, max_ranks)

    monkeypatch.setattr(ftt, "truncate", spy)
    return seen


def test_sketch_truncate_meets_g_tol_on_fp4d_states(truncate_inputs):
    prob = fp4d(n=9)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25)
    state = AdaptiveState.initial(prob.initial)
    for step in range(6):
        state = adaptive_step(state, prob.rhs, cfg)
        if step < 2:
            continue
        raw = apply_separable(prob.rhs, state.u)
        truncate_inputs.clear()
        out, _ = sketch_truncate(raw, operators.G_TOL, state.g_ranks)
        assert sum(truncate_inputs[0]) < sum(raw.ranks) / 2  # the sketch ran
        assert relative_error(out, raw) <= operators.G_TOL


def test_sketch_truncate_recovers_known_rank(rng, truncate_inputs):
    dom = torus_domain(3, 48)
    a = random_ftt(dom, (1, 14, 14, 1), rng)
    x = four_copies(a)
    out, _ = sketch_truncate(x, 1e-10, a.ranks)
    assert truncate_inputs == [(1, 24, 24, 1)]
    assert out.ranks == a.ranks
    assert relative_error(out, x) <= 1e-10


def test_sketch_truncate_guard_redoes_a_too_small_sketch(rng, truncate_inputs):
    dom = torus_domain(3, 48)
    a = random_ftt(dom, (1, 14, 14, 1), rng)
    x = four_copies(a)
    out, _ = sketch_truncate(x, 1e-10, (1, 1, 1, 1))
    assert truncate_inputs == [(1, 11, 11, 1), (1, 22, 22, 1)]
    assert out.ranks == a.ranks
    assert relative_error(out, x) <= 1e-10


def test_sketch_truncate_is_reproducible(rng):
    x = four_copies(random_ftt(torus_domain(3, 48), (1, 14, 14, 1), rng))
    a, _ = sketch_truncate(x, 1e-10, (1, 14, 14, 1))
    b, _ = sketch_truncate(x, 1e-10, (1, 14, 14, 1))
    assert all(ca.tobytes() == cb.tobytes() for ca, cb in zip(a.cores, b.cores))


@pytest.mark.parametrize(
    "d, hint",
    [(2, (1, 1, 1)), (3, (1, 30, 30, 1)), (3, None)],
    ids=["two_axes", "hint_does_not_halve", "no_hint"],
)
def test_sketch_truncate_falls_back_to_truncate(d, hint, rng):
    a = random_ftt(torus_domain(d, 48), (1,) + (14,) * (d - 1) + (1,), rng)
    x = four_copies(a)
    out, schmidt = sketch_truncate(x, 1e-10, hint)
    ref, ref_schmidt = truncate(x, 1e-10)
    assert all(c.tobytes() == r.tobytes() for c, r in zip(out.cores, ref.cores))
    assert all(s.tobytes() == r.tobytes() for s, r in zip(schmidt, ref_schmidt))


# ---------------------------------------------------------------------------
# sketch_truncate through a TT-matrix: G = A u is sketched without being formed

def fp4d_states(steps):
    """fp4d (n=9) states along an adaptive trajectory, with their rank hints."""
    prob = fp4d(n=9)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25)
    state = AdaptiveState.initial(prob.initial)
    for step in range(steps):
        state = adaptive_step(state, prob.rhs, cfg)
        yield prob, state.u, state.g_ranks


@pytest.fixture
def product_calls(monkeypatch):
    """Names of the calls that form a TT-matrix-times-train product."""
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(operators, "apply_separable", spy("apply_separable", apply_separable))
    monkeypatch.setattr(ftt, "apply_tt_matrix", spy("apply_tt_matrix", ftt.apply_tt_matrix))
    return calls


def test_split_sketch_matches_formed_product_on_fp4d_states(truncate_inputs, product_calls):
    # from the fourth step on, the first sketch of every state suffices
    for step, (prob, u, hint) in enumerate(fp4d_states(8)):
        if step < 3:
            continue
        raw = apply_separable(prob.rhs, u)
        formed, _ = sketch_truncate(raw, operators.G_TOL, hint)
        product_calls.clear()
        truncate_inputs.clear()
        out = eval_rhs(prob.rhs, u, hint)
        assert product_calls == []
        assert sum(truncate_inputs[0]) < sum(raw.ranks) / 2  # the sketch ran
        assert out.ranks == formed.ranks
        assert relative_error(out, formed) <= 1e-12
        assert relative_error(out, raw) <= operators.G_TOL


def rank_two_operator(dom):
    """A 3-axis operator of TT-matrix ranks (1, 2, 2, 1)."""
    grid = dom.axes[0]
    c = np.diag(np.cos(grid.nodes))
    return separable([(grid.diff1, None, None), (None, None, c)], dom)


def test_split_sketch_guard_redoes_a_too_small_sketch(rng, truncate_inputs, product_calls):
    dom = torus_domain(3, 48)
    x = four_copies(random_ftt(dom, (1, 7, 7, 1), rng))
    op = rank_two_operator(dom)
    a = op.cores
    assert [c.shape[3] for c in a] == [2, 2, 1]
    raw = apply_separable(op, x)  # ranks (1, 56, 56, 1), G of rank at most 14
    formed, _ = sketch_truncate(raw, 1e-10, (1, 1, 1, 1))
    truncate_inputs.clear()
    product_calls.clear()
    out, _ = sketch_truncate(x, 1e-10, (1, 1, 1, 1), a)
    assert product_calls == []
    assert truncate_inputs == [(1, 11, 11, 1), (1, 22, 22, 1)]
    assert out.ranks == formed.ranks
    assert relative_error(out, formed) <= 1e-12
    assert relative_error(out, raw) <= 1e-10


def test_split_sketch_is_reproducible(rng):
    dom = torus_domain(3, 48)
    x = four_copies(random_ftt(dom, (1, 7, 7, 1), rng))
    a = rank_two_operator(dom).cores
    first, _ = sketch_truncate(x, 1e-10, (1, 14, 14, 1), a)
    second, _ = sketch_truncate(x, 1e-10, (1, 14, 14, 1), a)
    assert_same_bytes(first, second)


def test_split_sketch_falls_back_to_the_formed_product():
    # two axes: advection never sketches
    prob = advection2d(n=17)
    u = prob.initial
    out = eval_rhs(prob.rhs, u, (1, 1, 1))
    assert_same_bytes(out, truncate(apply_separable(prob.rhs, u), operators.G_TOL)[0])
    # fp4d with a hint whose sketch ranks do not halve the raw ranks
    prob, u, _ = list(fp4d_states(5))[-1]
    raw = apply_separable(prob.rhs, u)
    out = eval_rhs(prob.rhs, u, raw.ranks)
    assert_same_bytes(out, truncate(raw, operators.G_TOL)[0])


def test_split_sketch_without_a_hint_truncates_the_formed_product(rng):
    dom = torus_domain(3, 48)
    x = four_copies(random_ftt(dom, (1, 7, 7, 1), rng))
    a = rank_two_operator(dom).cores
    out, schmidt = sketch_truncate(x, 1e-10, None, a)
    ref, ref_schmidt = truncate(ftt.apply_tt_matrix(a, x), 1e-10)
    assert_same_bytes(out, ref)
    assert all(s.tobytes() == r.tobytes() for s, r in zip(schmidt, ref_schmidt))


def test_split_sketch_peaks_below_the_formed_product():
    prob, u, hint = list(fp4d_states(10))[-1]
    product_bytes = sum(c.nbytes for c in apply_separable(prob.rhs, u).cores)
    tracemalloc.start()
    try:
        eval_rhs(prob.rhs, u, hint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < product_bytes


# ---------------------------------------------------------------------------
# add / scale / hadamard / inner / zero_pad

def test_add_ranks_and_values(dom2, rng):
    a = random_ftt(dom2, (1, 2, 1), rng)
    b = random_ftt(dom2, (1, 3, 1), rng)
    s = add(a, b)
    assert s.ranks == (1, 5, 1)
    assert np.max(np.abs(to_full(s) - (to_full(a) + to_full(b)))) <= 1e-12


def test_add_cancellation(dom3, rng):
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    z = add(u, scale(u, -1.0))
    assert np.max(np.abs(to_full(z))) <= 1e-12 * np.max(np.abs(to_full(u)))
    assert z.ranks == (1, 4, 4, 1)


def test_scale_zero_keeps_ranks(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    z = scale(u, 0.0)
    assert z.ranks == u.ranks
    assert np.max(np.abs(to_full(z))) == 0.0


def test_add_domain_mismatch(rng):
    a = random_ftt(torus_domain(2, 9), (1, 2, 1), rng)
    b = random_ftt(torus_domain(2, 11), (1, 2, 1), rng)
    with pytest.raises(DomainMismatchError):
        add(a, b)
    # the splitting sweep checks its increment the same way
    with pytest.raises(DomainMismatchError):
        lie_trotter_step(a, b)


def test_hadamard_with_ones(dom3, rng):
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    ones = from_full(np.ones(dom3.shape), dom3, 0.0)
    h = hadamard(u, ones)
    assert np.max(np.abs(to_full(h) - to_full(u))) <= 1e-12 * np.max(np.abs(to_full(u)))


def test_hadamard_ranks_multiply(dom2, rng):
    a = random_ftt(dom2, (1, 2, 1), rng)
    b = random_ftt(dom2, (1, 2, 1), rng)
    h = hadamard(a, b)
    assert h.ranks == (1, 4, 1)
    assert np.max(np.abs(to_full(h) - to_full(a) * to_full(b))) <= 1e-12 * np.max(
        np.abs(to_full(a) * to_full(b))
    )


def test_hadamard_sin_squared():
    dom = torus_domain(2, 21)
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    u = from_full(np.sin(x1 + x2), dom, 1e-12)
    sq, _ = truncate(hadamard(u, u), 1e-12)
    # sin^2 = (1 - cos(2(x1+x2)))/2: constant (rank 1) + rank-2 part
    assert sq.ranks == (1, 3, 1)
    assert np.max(np.abs(to_full(sq) - np.sin(x1 + x2) ** 2)) <= 1e-12


def test_inner_norm_consistency(dom3, rng):
    u = random_ftt(dom3, (1, 2, 3, 1), rng)
    assert abs(inner(u, u) - norm(u) ** 2) <= 1e-12 * norm(u) ** 2


def test_inner_product_of_sines():
    dom = torus_domain(2, 21)
    x1, x2 = np.meshgrid(dom.axes[0].nodes, dom.axes[1].nodes, indexing="ij")
    u = from_full(np.sin(x1) * np.sin(x2), dom, 1e-12)
    assert abs(inner(u, u) - np.pi**2) <= 1e-10


def test_inner_matches_dense(dom3, rng):
    a = random_ftt(dom3, (1, 2, 2, 1), rng)
    b = random_ftt(dom3, (1, 2, 2, 1), rng)
    dense = to_full(a) * to_full(b)
    for ax, g in enumerate(dom3.axes):
        shape = [1, 1, 1]
        shape[ax] = g.n
        dense = dense * g.weights.reshape(shape)
    assert abs(inner(a, b) - dense.sum()) <= 1e-10 * max(1.0, abs(dense.sum()))


def test_integral_matches_dense(dom3, rng):
    u = random_ftt(dom3, (1, 2, 2, 1), rng)
    dense = to_full(u)
    for ax, g in enumerate(dom3.axes):
        shape = [1, 1, 1]
        shape[ax] = g.n
        dense = dense * g.weights.reshape(shape)
    assert abs(integral(u) - dense.sum()) <= 1e-10


def test_zero_pad_values_and_ranks(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    tpl = random_ftt(dom3, (1, 2, 2, 1), rng)
    p = zero_pad(u, tpl, tol=0.0)
    assert p.ranks == (1, 5, 4, 1)
    assert np.max(np.abs(to_full(p) - to_full(u))) <= 1e-12 * np.max(np.abs(to_full(u)))
    assert abs(norm(p) - norm(u)) <= 1e-12 * norm(u)
    # cores 2..d are right-orthonormal, and the train says so
    assert p.right_orth_from == 2
    for k in (1, 2):
        dev = np.max(np.abs(right_gram(p.cores[k], dom3.axes[k].weights) - np.eye(p.ranks[k])))
        assert dev <= 1e-10


def right_unfolding(u, k):
    """Cores k+1..d (1-based) contracted: the (r_k, n_{k+1} ... n_d) matrix
    whose rows are the train's right directions at interface k."""
    res = u.cores[k]
    for core in u.cores[k + 1:]:
        res = np.tensordot(res, core, axes=(res.ndim - 1, 0))
    return res.reshape(u.ranks[k], -1)


def test_zero_pad_keeps_the_template_directions(dom3, rng):
    u = random_ftt(dom3, (1, 3, 2, 1), rng)
    tpl = random_ftt(dom3, (1, 2, 2, 1), rng)
    p = zero_pad(u, tpl, tol=0.0)
    for k in (1, 2):
        span, _ = np.linalg.qr(right_unfolding(p, k).T)
        t = right_unfolding(tpl, k).T
        assert np.linalg.norm(t - span @ (span.T @ t)) <= 1e-12 * np.linalg.norm(t)


def test_zero_pad_block_count():
    dom = torus_domain(2, 81)
    rng = np.random.default_rng(0)
    u = random_ftt(dom, (1, 15, 1), rng)
    tpl = random_ftt(dom, (1, 3, 1), rng)
    assert zero_pad(u, tpl, tol=0.0).ranks == (1, 18, 1)


# ---------------------------------------------------------------------------
# constructor validation

def test_core_chain_validation(dom2):
    good = [np.zeros((1, 17, 2)), np.zeros((2, 17, 1))]
    FttTensor(good, dom2)
    with pytest.raises(ShapeError):
        FttTensor([np.zeros((1, 17, 2)), np.zeros((3, 17, 1))], dom2)
    with pytest.raises(ShapeError):
        FttTensor([np.zeros((1, 16, 2)), np.zeros((2, 17, 1))], dom2)
    with pytest.raises(ShapeError):
        FttTensor([np.zeros((1, 17, 2)), np.zeros((2, 17, 2))], dom2)
    with pytest.raises(ShapeError):
        FttTensor([np.zeros((1, 17, 1))], dom2)
    with pytest.raises(ShapeError, match="order-3"):
        FttTensor([np.zeros((1, 17)), np.zeros((2, 17, 1))], dom2)


# ---------------------------------------------------------------------------
# whole-algebra property test

@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]))
@settings(max_examples=10, deadline=None)
def test_orthogonalize_preserves_values_property(seed, d):
    rng = np.random.default_rng(seed)
    dom = torus_domain(d, 7)
    ranks = (1,) + tuple(int(r) for r in rng.integers(1, 4, d - 1)) + (1,)
    u = random_ftt(dom, ranks, rng)
    dense = to_full(u)
    for direction, pivot in (("left", d - 1), ("right", 2), ("left", 1)):
        v, _ = orthogonalize(u, direction, pivot)
        assert np.max(np.abs(to_full(v) - dense)) <= 1e-11 * max(1.0, np.max(np.abs(dense)))


@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-5.0, 5.0))
@settings(max_examples=15, deadline=None)
def test_linear_combination_property(seed, c):
    rng = np.random.default_rng(seed)
    dom = torus_domain(3, 7)
    a = random_ftt(dom, (1, 2, 3, 1), rng)
    b = random_ftt(dom, (1, 3, 2, 1), rng)
    got = to_full(add(a, scale(b, c)))
    want = to_full(a) + c * to_full(b)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))
