"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6-8 execute the full benchmark presets through the runner; session
fixtures share those runs across criteria.  Runtime budgets are asserted
alongside the numerical conditions.
"""

import math
import time

import numpy as np
import pytest

import fttpde as F
from fttpde import snapshots
from fttpde.cli import preset_path
from fttpde.ftt import add, from_full, norm, scale, to_full, truncate
from fttpde.grids import Domain, torus_domain
from fttpde.integrators import (
    AdaptiveState,
    IntegratorConfig,
    adaptive_step,
    bdf_tangent_estimate,
    lie_trotter_step,
)
from fttpde.operators import eval_rhs
from fttpde.problems import advection2d, fp4d, l2_error, marginal_2d
from fttpde.runner import parse_config, run_experiment

from conftest import random_ftt, truncated_step, weighted_dense_norm

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str, elapsed: float, budget_s: float):
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s / budget {budget_s:.0f}s) {detail}")
    assert elapsed < budget_s, f"criterion {criterion} exceeded runtime budget"
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared benchmark runs

@pytest.fixture(scope="session")
def advection_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("advection_bench")
    t0 = time.perf_counter()
    results = {}
    for name in ("advection2d_fixed", "advection2d_inc1e-1", "advection2d_inc1e-2"):
        cfg = parse_config(preset_path(name))
        results[name] = run_experiment(cfg, output_dir=root / name)
    return {"root": root, "summaries": results, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def kse_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("kse_bench")
    t0 = time.perf_counter()
    results = {}
    for name in ("kse2d_inc1e-2", "kse2d_rank2"):
        cfg = parse_config(preset_path(name))
        results[name] = run_experiment(cfg, output_dir=root / name)
    return {"root": root, "summaries": results, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def fp_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fp_bench")
    t0 = time.perf_counter()
    results = {}
    for name in ("fp4d_fixed", "fp4d_inc1e-2", "fp4d_inc1e-3"):
        cfg = parse_config(preset_path(name))
        results[name] = run_experiment(cfg, output_dir=root / name)
    return {"root": root, "summaries": results, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criterion 1: tensor algebra suite

def test_criterion_1_ftt_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    issues = []
    cases = [(2, 21, (1, 5, 1)), (3, 11, (1, 4, 5, 1)), (4, 9, (1, 3, 5, 3, 1))]
    for d, n, ranks in cases:
        dom = torus_domain(d, n)
        dense = rng.standard_normal(dom.shape)
        dnorm = weighted_dense_norm(dense, dom)

        u = F.from_full(dense, dom, 0.0)
        if weighted_dense_norm(to_full(u) - dense, dom) > 1e-10 * dnorm:
            issues.append(f"round trip d={d}")

        # from_full's cores 1..d-1 are left-orthonormal, orthogonalize's
        # cores 2..d right-orthonormal
        v = F.orthogonalize(u)
        grams = [("aib,aic,i->bc", u.cores[k], k) for k in range(d - 1)]
        grams += [("bia,cia,i->bc", v.cores[k], k) for k in range(1, d)]
        for spec, core, k in grams:
            gram = np.einsum(spec, core, core, dom.axes[k].weights)
            if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-10:
                issues.append(f"orthogonality d={d} core={k}")

        w = random_ftt(dom, ranks, rng)
        for tol in (1e-2, 1e-6, 1e-10):
            trunc, _ = truncate(w, tol)
            if weighted_dense_norm(to_full(trunc) - to_full(w), dom) > tol * norm(w) + 1e-13:
                issues.append(f"truncation bound d={d} tol={tol}")

        a = random_ftt(dom, ranks, rng)
        b = random_ftt(dom, ranks, rng)
        da, db = to_full(a), to_full(b)
        if np.max(np.abs(to_full(add(a, b)) - (da + db))) > 1e-12 * np.max(np.abs(da + db)):
            issues.append(f"add oracle d={d}")
        if np.max(np.abs(to_full(F.hadamard(a, b)) - da * db)) > 1e-12 * np.max(np.abs(da * db)):
            issues.append(f"hadamard oracle d={d}")
        dense_ip = da * db
        for ax, g in enumerate(dom.axes):
            shape = [1] * d
            shape[ax] = g.n
            dense_ip = dense_ip * g.weights.reshape(shape)
        if abs(F.inner(a, b) - dense_ip.sum()) > 1e-10 * max(1.0, abs(dense_ip.sum())):
            issues.append(f"inner oracle d={d}")
    report(1, not issues, f"algebra checks on {len(cases)} cases: {issues or 'all ok'}", time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# criterion 2: splitting exactness

def test_criterion_2_splitting_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        dom = torus_domain(d, 17)
        ranks = (1, 2, 1) if d == 2 else (1, 2, 2, 1)
        u = random_ftt(dom, ranks, rng)
        v = random_ftt(dom, ranks, rng)
        out = lie_trotter_step(u, add(v, scale(u, -1.0)))
        worst = max(worst, norm(add(out, scale(v, -1.0))) / norm(v))
    report(2, worst <= 1e-10, f"100 trials, worst relative error {worst:.2e}", time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# criterion 3: one-step consistency between splitting and step-truncation

def test_criterion_3_consistency_slope():
    t0 = time.perf_counter()
    prob = advection2d(n=81)
    # evolve to a representative state first: at the initial condition the
    # velocity is exactly tangent (Fourier-mode bases), which pushes the
    # one-step difference into a higher-order regime
    cfg = IntegratorConfig(dt=1e-3, dec_period=0)
    state = AdaptiveState.initial(prob.initial)
    for _ in range(1000):
        state = adaptive_step(state, prob.rhs, cfg)
    u = state.u
    dts = [1e-2, 3e-3, 1e-3, 3e-4]
    diffs = []
    for dt in dts:
        g = eval_rhs(prob.rhs, u)
        lie = lie_trotter_step(u, scale(g, dt))
        st = truncated_step(u, scale(g, dt), 0.0, max_ranks=u.ranks)
        diffs.append(norm(add(lie, scale(st, -1.0))))
    slope = float(np.polyfit(np.log(dts), np.log(diffs), 1)[0])
    report(3, 1.8 <= slope <= 2.2, f"fitted slope {slope:.3f} over dt={dts}", time.perf_counter() - t0, 120)


# ---------------------------------------------------------------------------
# criterion 4: order of the adaptive scheme

def test_criterion_4_adaptive_order():
    t0 = time.perf_counter()
    prob = advection2d(n=81)
    reference = advection2d(n=81).reference
    reference.dt_ref = 1e-4  # set before the first request
    ref = reference.solution(0.1)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    errs = []
    for dt in dts:
        cfg = IntegratorConfig(dt=dt, eps_inc=100.0 * dt, eps_dec=1e-12, dec_period=100)
        state = AdaptiveState.initial(prob.initial)
        for _ in range(int(round(0.1 / dt))):
            state = adaptive_step(state, prob.rhs, cfg)
        errs.append(l2_error(to_full(state.u), ref, prob.domain))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    report(4, 0.8 <= slope <= 1.2, f"global-error slope {slope:.3f} at t=0.1", time.perf_counter() - t0, 300)


# ---------------------------------------------------------------------------
# criterion 5: backward-difference estimator orders

def test_criterion_5_bdf_orders():
    t0 = time.perf_counter()
    dom = torus_domain(2, 9)
    rng = np.random.default_rng(505)
    w = random_ftt(dom, (1, 1, 1), rng)
    dts = [1e-2, 1e-3, 1e-4]
    slopes = {}
    for p in (2, 3):
        errs = []
        for dt in dts:
            history = [scale(w, math.exp(k * dt)) for k in range(-(p - 1), 1)]
            est = bdf_tangent_estimate(history, p, dt)
            errs.append(norm(add(est, scale(w, -1.0))) / norm(w))
        slopes[p] = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(slopes[2] - 1.0) <= 0.2 and abs(slopes[3] - 2.0) <= 0.2
    report(5, ok, f"observed orders p=2: {slopes[2]:.3f}, p=3: {slopes[3]:.3f}", time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# criterion 6: advection benchmark

def test_criterion_6_advection_benchmark(advection_runs):
    s = advection_runs["summaries"]
    err_fixed = s["advection2d_fixed"]["final_error"]
    err_e1 = s["advection2d_inc1e-1"]["final_error"]
    err_e2 = s["advection2d_inc1e-2"]["final_error"]
    r1_e1 = s["advection2d_inc1e-1"]["final_ranks"][1]
    r1_e2 = s["advection2d_inc1e-2"]["final_ranks"][1]
    checks = []
    if not (err_e2 < err_e1 < err_fixed):
        checks.append(
            f"error ordering not strict: eps1e-2={err_e2:.3e}, eps1e-1={err_e1:.3e}, fixed={err_fixed:.3e}"
        )
    if not (r1_e1 > 15 and r1_e2 > 15):
        checks.append(f"no rank growth past 15: r1(eps1e-1)={r1_e1}, r1(eps1e-2)={r1_e2}")
    if not err_e2 <= 1e-2:
        checks.append(f"absolute error bound violated: {err_e2:.3e} > 1e-2")
    detail = (
        f"errors fixed={err_fixed:.3e} eps1e-1={err_e1:.3e} eps1e-2={err_e2:.3e}, "
        f"final r1: {r1_e1}/{r1_e2}; "
        + (
            "; ".join(checks)
            + " -- the estimated normal component never exceeds the thresholds on this "
            "problem: the exact normal stays below ~6e-4 through t=1 (the profile is "
            "numerically rank-15 for the whole run) and the two-point estimate sits at "
            "its difference-noise floor ~3.5e-3"
            if checks
            else "all conditions met"
        )
    )
    report(6, not checks, detail, advection_runs["elapsed"], 900)


# ---------------------------------------------------------------------------
# criterion 7: Kuramoto-Sivashinsky benchmark

def test_criterion_7_kse_benchmark(kse_runs):
    root = kse_runs["root"]
    s = kse_runs["summaries"]
    adaptive = s["kse2d_inc1e-2"]
    fixed2 = s["kse2d_rank2"]
    err_adaptive = adaptive["final_error"]
    err_fixed2 = math.inf if fixed2["status"] != "ok" else fixed2["final_error"]
    lines = (root / "kse2d_inc1e-2" / "timeseries.csv").read_text().splitlines()[1:]
    late_events = []
    for line in lines:
        parts = line.split(",")
        t, event = float(parts[0]), parts[-1]
        if t > 0.8 * 0.5 and event != "none":
            late_events.append((t, event))
    checks = []
    if late_events:
        checks.append(
            f"rank events inside the last 20% of the run: {late_events} -- the rank "
            "staircase finishes only at about t=0.5 on this horizon, so the final "
            "window is not guaranteed event-free"
        )
    if not err_fixed2 >= 10.0 * err_adaptive:
        checks.append(f"instability margin: fixed-2 {err_fixed2:.3e} < 10x adaptive {err_adaptive:.3e}")
    detail = (
        f"adaptive err={err_adaptive:.3e} (final ranks {adaptive['final_ranks']}), "
        f"fixed-2 err={err_fixed2:.3e}; " + ("; ".join(checks) if checks else "all conditions met")
    )
    report(7, not checks, detail, kse_runs["elapsed"], 1800)


# ---------------------------------------------------------------------------
# criterion 8: Fokker-Planck benchmark

def test_criterion_8_fp_benchmark(fp_runs):
    root = fp_runs["root"]
    s = fp_runs["summaries"]
    t0 = time.perf_counter()
    err_fixed = s["fp4d_fixed"]["final_error"]
    err_e2 = s["fp4d_inc1e-2"]["final_error"]
    err_e3 = s["fp4d_inc1e-3"]["final_error"]
    checks = []
    if not (err_e3 <= err_e2 <= err_fixed):
        checks.append(f"error ordering: eps1e-3={err_e3:.3e}, eps1e-2={err_e2:.3e}, fixed={err_fixed:.3e}")
    if not s["fp4d_inc1e-3"]["inc_events"] >= 1:
        checks.append("no rank-increase event for eps1e-3")

    # conservation along the adaptive trajectory, checked at every step
    prob = fp4d(n=21)
    cfg = IntegratorConfig(dt=1e-3, eps_inc=1e-3, eps_dec=1e-8, dec_period=25)
    state = AdaptiveState.initial(prob.initial)
    base = F.integral(prob.initial)
    drift = 0.0
    for _ in range(200):
        state = adaptive_step(state, prob.rhs, cfg)
        drift = max(drift, abs(F.integral(state.u) - base))
    if drift > 1e-8:
        checks.append(f"integral drift {drift:.2e} > 1e-8")

    # marginal of the final adaptive state against the dense reference
    final = snapshots.load(root / "fp4d_inc1e-3" / "snapshot_00000200.fttsnap")
    ref = prob.reference.solution(0.2)
    w = prob.domain.axes[0].weights
    marg_ref = np.tensordot(np.tensordot(ref, w, axes=(3, 0)), w, axes=(2, 0))
    dom2 = Domain(axes=prob.domain.axes[:2])
    marg_err = l2_error(marginal_2d(final, (0, 1)), marg_ref, dom2)
    if not marg_err <= 2.0 * err_e3:
        checks.append(f"marginal error {marg_err:.3e} > 2x full error {err_e3:.3e}")

    elapsed = fp_runs["elapsed"] + (time.perf_counter() - t0)
    detail = (
        f"errors fixed={err_fixed:.3e} eps1e-2={err_e2:.3e} eps1e-3={err_e3:.3e}, "
        f"inc events={s['fp4d_inc1e-3']['inc_events']}, dec events={s['fp4d_inc1e-3']['dec_events']}, "
        f"max integral drift={drift:.2e}, marginal err={marg_err:.3e}; "
        + ("; ".join(checks) if checks else "all conditions met")
    )
    report(8, not checks, detail, elapsed, 3600)


def test_fp_runner_reports_both_event_kinds(fp_runs):
    # the adaptive 1e-3 run exercises both mode addition and removal
    s = fp_runs["summaries"]["fp4d_inc1e-3"]
    assert s["inc_events"] >= 1
    assert s["dec_events"] >= 1


# ---------------------------------------------------------------------------
# criterion 9: determinism

def test_criterion_9_determinism(advection_runs, tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config(preset_path("advection2d_inc1e-2"))
    run_experiment(cfg, output_dir=tmp_path / "repeat")
    a = (advection_runs["root"] / "advection2d_inc1e-2" / "timeseries.csv").read_bytes()
    b = (tmp_path / "repeat" / "timeseries.csv").read_bytes()
    ok = a == b
    report(9, ok, f"repeated run produced {'identical' if ok else 'DIFFERENT'} timeseries.csv ({len(a)} bytes)", time.perf_counter() - t0, 900)
