"""Traced-run mode: spans around the package's public functions, recorded
from outside the package.

``Tracer.install`` replaces each traced function at every module binding
that holds it (``truncate`` is bound in ``ftt``, ``operators``,
``integrators``, ``problems`` and ``runner``), so calls made through any of
those names are recorded. Spans live in memory as
``[name, site, start, end, parent, extra]`` and are written out by ``dump``
when the run ends; ``layer_metrics`` turns them into per-layer numbers.

Byte and flop counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

MODULES = ("grids", "ftt", "operators", "integrators", "problems", "snapshots", "runner")

# defining module -> traced public functions
TRACED = {
    "grids": ("make_periodic_grid",),
    "ftt": (
        "truncate", "qr_core", "orthogonalize", "norm", "add", "scale",
        "hadamard", "zero_pad", "to_full", "from_full",
    ),
    "operators": ("eval_rhs", "apply_separable", "apply_separable_dense"),
    "integrators": (
        "adaptive_step", "lie_trotter_step", "bdf_tangent_estimate", "normal_component",
    ),
    "problems": ("build_problem", "l2_error"),
    "snapshots": ("save",),
    "runner": ("run_experiment",),
}


def svd_flops(m: int, n: int) -> int:
    """Model flop count of a thin SVD returning U, S and V of an m x n matrix
    (R-SVD, Golub & Van Loan, Matrix Computations, table 5.4.1)."""
    a, b = max(m, n), min(m, n)
    return 6 * a * b * b + 20 * b ** 3


def _truncate_extra(args, out):
    u = args[0]
    rounded, schmidt = out
    if schmidt[0].size == 1 and schmidt[0][0] == 0.0:
        return {"in_rank_max": max(u.ranks), "svd_flops": 0}  # zero train: no SVD
    ns = u.domain.shape
    d = len(ns)
    # ranks after the right-orthogonalization sweep that precedes the SVDs
    rp = list(u.ranks)
    for k in range(d - 1, 0, -1):
        rp[k] = min(rp[k], ns[k] * rp[k + 1])
    flops = sum(svd_flops(rounded.ranks[k] * ns[k], rp[k + 1]) for k in range(d - 1))
    return {"in_rank_max": max(u.ranks), "svd_flops": flops}


def _bytes_out(args, out):
    return {"bytes_out": sum(c.nbytes for c in out.cores)}


def _save_extra(args, out):
    return {"bytes": os.path.getsize(args[1])}


def _step_extra(args, out):
    rec = out.logs[-1]
    return {"added": rec.added, "removed": rec.removed}


EXTRAS = {
    "ftt.truncate": _truncate_extra,
    "ftt.add": _bytes_out,
    "ftt.scale": _bytes_out,
    "snapshots.save": _save_extra,
    "integrators.adaptive_step": _step_extra,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out

        return traced

    def count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        mods = {m: importlib.import_module(f"fttpde.{m}") for m in MODULES}
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(mods[home], fname)
                for site, mod in mods.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, self.wrap(original, f"{home}.{fname}", site))
        problems = mods["problems"]
        for cls in (problems.DenseRk4Reference, problems.CharacteristicsReference):
            cls.solution = self.wrap(cls.solution, "problems.reference", "problems")
        # steps of the dense reference are counted, not spanned, so that the
        # reference span keeps their time as its own
        problems.rk4_dense_step = self.count(problems.rk4_dense_step, "problems.reference.rk4_steps")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "site", "start", "end", "parent", "extra"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _under(spans, idx: int, name: str) -> bool:
    p = spans[idx][4]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][4]
    return False


def _spurious(steps, dec_period: int) -> int:
    """Modes added and then removed by the next removal sweep: per sweep
    window, the smaller of the modes added in it and the modes the sweep
    removed. Additions after the last sweep are not counted."""
    spurious = window = 0
    for i, (added, removed) in enumerate(steps, start=1):
        window += added
        if dec_period > 0 and i % dec_period == 0:
            spurious += min(window, removed)
            window = 0
    return spurious


def layer_metrics(spans, counts, dec_period: int) -> dict:
    """Per-layer numbers of one traced run; dec_period is 0 when the scheme
    has no removal sweeps."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[0]] += 1
        self_s[s[0]] += t

    round_s = 0.0
    raw_rank_max = truncate_rank_max = flops = 0
    bytes_out: Counter = Counter()
    save_bytes = 0
    steps = []
    for i, s in enumerate(spans):
        name, site, extra = s[0], s[1], s[5]
        if name == "ftt.truncate":
            truncate_rank_max = max(truncate_rank_max, extra["in_rank_max"])
            flops += extra["svd_flops"]
            if _under(spans, i, "operators.eval_rhs"):
                round_s += s[3] - s[2]
                if site == "operators" and spans[s[4]][0] == "operators.eval_rhs":
                    raw_rank_max = max(raw_rank_max, extra["in_rank_max"])
        elif name in ("ftt.add", "ftt.scale"):
            bytes_out[name] += extra["bytes_out"]
        elif name == "snapshots.save":
            save_bytes += extra["bytes"]
        elif name == "integrators.adaptive_step":
            steps.append((extra["added"], extra["removed"]))

    n_steps = max(len(steps), 1)
    out = {
        "operators.eval_rhs.calls": calls["operators.eval_rhs"],
        "operators.eval_rhs.round_s": round_s,
        "operators.eval_rhs.raw_rank_max": raw_rank_max,
        "integrators.rhs_evals_per_step": calls["operators.eval_rhs"] / n_steps,
        "ftt.truncate.calls": calls["ftt.truncate"],
        "ftt.truncate.in_rank_max": truncate_rank_max,
        "ftt.truncate.svd_flops": flops,
        "ftt.qr_core.calls": calls["ftt.qr_core"],
        "ftt.norm.calls": calls["ftt.norm"],
        "ftt.add.bytes_out": bytes_out["ftt.add"],
        "ftt.scale.bytes_out": bytes_out["ftt.scale"],
        "ftt.zero_pad.calls": calls["ftt.zero_pad"],
        "integrators.modes_added": sum(a for a, _ in steps),
        "integrators.modes_removed": sum(r for _, r in steps),
        "integrators.spurious_modes": _spurious(steps, dec_period),
        "problems.reference.rk4_steps": counts.get("problems.reference.rk4_steps", 0),
        "snapshots.save.bytes": save_bytes,
    }
    for name in (
        "operators.eval_rhs", "operators.apply_separable", "operators.apply_separable_dense",
        "ftt.truncate", "ftt.qr_core", "ftt.orthogonalize", "ftt.norm", "ftt.add",
        "ftt.scale", "ftt.hadamard", "ftt.zero_pad", "ftt.to_full",
        "integrators.adaptive_step", "integrators.lie_trotter_step",
        "integrators.bdf_tangent_estimate", "integrators.normal_component",
        "problems.reference", "problems.l2_error", "problems.build_problem",
        "snapshots.save", "runner.run_experiment", "grids.make_periodic_grid",
    ):
        out[f"{name}.self_s"] = self_s[name]
    return out
