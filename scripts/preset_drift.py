#!/usr/bin/env python3
"""Compare every shipped preset between two source trees.

    python3 scripts/preset_drift.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `fttpde` package (a checkout's `src/`).
Every preset of CHANGE_SRC runs once from each tree, in its own process
with OPENBLAS_NUM_THREADS=1, keeping every key of that tree's preset file
except `t_final`.  Both sides run the same number of steps: 3 * dec_period
of PARENT_SRC's preset (of CHANGE_SRC's where the parent has none), or
FIXED_RANK_STEPS where that dec_period is 0, so that a preset whose removal
settings change still runs as long on both sides.  For each preset the
report says which `timeseries.csv` columns are byte-identical
between the trees, the largest relative row difference of each column that
is not (for `event`, the first step whose event differs, with each side's
event, `normal_norm` and margin |normal_norm - eps_inc| / eps_inc, eps_inc
as that side's `run.log` echoes it, so that an event decided at the
threshold's roundoff reads apart from one far from it), whether
`singular_values.csv` is byte-identical and, if not, the same per-column
difference for it, the relative change in `final_error`,
and the `summary.json` fields of SUMMARY_FIELDS (the step count, final
time and ranks, and the event, evaluation and spurious-mode counts) that
differ, with both sides' values, whether both runs wrote the same
snapshot files byte for byte, and whether both `run.log` files hold the same
set of `key = value` lines in any order (with the lines only one side
holds), so that a reordered `run.log` reads apart from a changed value.
It reports each side's peak interior rank, the largest of r1..r_{d-1} over
the rows of `timeseries.csv`, as perfbench reads `peak_rank`, and next to
it each side's `min_threshold_margin` and its step from `summary.json`, so
that a report shows how close the nearest rank decision came to its
threshold.  It also
reports each side's cost: `wall_time_s`, `reference_s` (the time spent in
the reference solution) and `phase_s` (the time per step phase) from its
`summary.json`, and the peak RSS of its own process in MB (from that
process's rusage).  The two sides run at the same time, so the times are
indicative only.  Before the presets it prints each tree's `src_lines`, the
line count of its `fttpde/*.py` (as `wc -l` counts them), so that one
command shows both whether a change kept the bytes and how many lines it
added or removed.  Exits 1 if any run failed, else 0.
"""

import argparse
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUMMARY_FIELDS = (
    "steps_completed", "final_t", "final_ranks", "inc_events", "dec_events",
    "modes_added", "modes_removed", "rhs_evals", "g_rank_max", "spurious_modes",
)

# the horizon of a preset that never removes modes (dec_period = 0)
FIXED_RANK_STEPS = 300


def preset_keys(preset: Path) -> dict[str, str]:
    return dict(re.findall(r"^\s*(\w+)\s*=\s*(\S+)", preset.read_text(), flags=re.M))


def horizon_steps(preset: Path) -> int:
    """3 * dec_period steps of the preset, or FIXED_RANK_STEPS if that is 0."""
    return 3 * int(preset_keys(preset)["dec_period"]) or FIXED_RANK_STEPS


def shortened_config(preset: Path, steps: int) -> str:
    """The preset's text with t_final set to steps * dt."""
    t_final = steps * float(preset_keys(preset)["dt"])
    return re.sub(r"^\s*t_final\s*=.*$", f"t_final = {t_final!r}", preset.read_text(), flags=re.M)


def run_preset(src: Path, name: str, steps: int, work: Path) -> tuple[Path, float] | None:
    """Run one preset from one tree for the given number of steps; return its
    output directory and the run's peak RSS in MB, or None if the preset is
    missing there or the run failed."""
    preset = src / "fttpde" / "presets" / f"{name}.cfg"
    if not preset.is_file():
        return None
    work.mkdir(parents=True)
    cfg = work / f"{name}.cfg"
    cfg.write_text(shortened_config(preset, steps))
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in THREAD_ENV})
    out = work / "out"
    log = work / "stderr.txt"
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fttpde.cli", "run", str(cfg), "--output-dir", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        # this child's own rusage; RUSAGE_CHILDREN would mix in the other side
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{name}: run from {src} exited {proc.returncode}\n{log.read_text()}", file=sys.stderr)
        return None
    return out, usage.ru_maxrss / 1024  # kB on Linux


def columns(csv_path: Path) -> dict[str, list[str]]:
    header, *rows = csv_path.read_text().splitlines()
    names = header.split(",")
    return {n: [row.split(",")[i] for row in rows] for i, n in enumerate(names)}


def max_rel_diff(xs: list[str] | None, ys: list[str] | None) -> float | None:
    """Largest |y - x| / |x| over the rows of one column, or None when the
    column is missing on one side, lengths differ, or a value is not a
    nonzero number."""
    if xs is None or ys is None or len(xs) != len(ys):
        return None
    try:
        return max(abs(float(y) - float(x)) / abs(float(x)) for x, y in zip(xs, ys) if x != y)
    except (ValueError, ZeroDivisionError):
        return None


def column_diffs(a: dict[str, list[str]], b: dict[str, list[str]]) -> tuple[list, dict]:
    """The columns equal on both sides, and the largest relative row
    difference of each other one."""
    names = list(a) + [c for c in b if c not in a]
    identical = [c for c in names if a.get(c) == b.get(c)]
    return identical, {c: max_rel_diff(a.get(c), b.get(c)) for c in names if c not in identical}


def peak_rank(series: dict[str, list[str]]) -> int:
    """The largest interior rank r1..r_{d-1} over the rows of one timeseries."""
    interior = [c for c in series if c[0] == "r" and c[1:].isdigit()][1:-1]
    return max((int(x) for c in interior for x in series[c]), default=0)


def first_event_difference(a: dict, b: dict, eps_inc: tuple[float, float]) -> dict | None:
    """The first step whose `event` differs between two timeseries, with
    each side's `event`, `normal_norm` and relative margin |normal_norm -
    eps_inc| / eps_inc, or None when the common rows agree.  A margin is None
    where eps_inc is not positive and finite or normal_norm is empty."""
    for step, events in enumerate(zip(a["event"], b["event"])):
        if events[0] != events[1]:
            break
    else:
        return None
    norms = [float(x) if x else None for x in (a["normal_norm"][step], b["normal_norm"][step])]
    return {
        "step": step,
        "event": list(events),
        "normal_norm": norms,
        "margin": [
            abs(x - eps) / eps if x is not None and 0 < eps < math.inf else None
            for x, eps in zip(norms, eps_inc)
        ],
    }


def run_log_value(out: Path, key: str) -> str:
    """The value `run.log` echoes for one configuration key."""
    prefix = f"{key} = "
    return next(
        line[len(prefix):] for line in (out / "run.log").read_text().splitlines()
        if line.startswith(prefix)
    )


def same_snapshots(a: Path, b: Path) -> bool:
    files = [sorted(out.glob("snapshot_*.fttsnap")) for out in (a, b)]
    return [f.name for f in files[0]] == [f.name for f in files[1]] and all(
        x.read_bytes() == y.read_bytes() for x, y in zip(*files)
    )


def compare(name: str, parent: tuple[Path, float], change: tuple[Path, float]) -> dict:
    (parent_out, rss_a), (change_out, rss_b) = parent, change
    series = [columns(out / "timeseries.csv") for out in (parent_out, change_out)]
    identical, differ = column_diffs(*series)
    if "event" in differ:
        eps_inc = tuple(float(run_log_value(out, "eps_inc")) for out in (parent_out, change_out))
        differ["event"] = first_event_difference(*series, eps_inc)
    sv_a, sv_b = (out / "singular_values.csv" for out in (parent_out, change_out))
    sum_a = json.loads((parent_out / "summary.json").read_text())
    sum_b = json.loads((change_out / "summary.json").read_text())
    err_a, err_b = sum_a["final_error"], sum_b["final_error"]
    log_a, log_b = (
        set((out / "run.log").read_text().splitlines()) for out in (parent_out, change_out)
    )
    return {
        "preset": name,
        "identical": identical,
        "differ": differ,
        "singular_values_identical": sv_a.read_bytes() == sv_b.read_bytes(),
        "singular_values_differ": column_diffs(columns(sv_a), columns(sv_b))[1],
        "snapshots_identical": same_snapshots(parent_out, change_out),
        "run_log_same_lines": log_a == log_b,
        "run_log_differ": [sorted(log_a - log_b), sorted(log_b - log_a)],
        "summary_differ": {
            k: [sum_a.get(k), sum_b.get(k)] for k in SUMMARY_FIELDS if sum_a.get(k) != sum_b.get(k)
        },
        "peak_rank": [peak_rank(s) for s in series],
        # [margin, step] per side: how close the nearest rank decision was;
        # not in SUMMARY_FIELDS, since it drifts at roundoff
        "min_threshold_margin": [
            [s.get("min_threshold_margin"), s.get("min_threshold_margin_step")]
            for s in (sum_a, sum_b)
        ],
        "final_error": [err_a, err_b],
        "final_error_rel_change": (
            abs(err_b - err_a) / abs(err_a) if err_a and err_b is not None else None
        ),
        "wall_time_s": [sum_a["wall_time_s"], sum_b["wall_time_s"]],
        "reference_s": [sum_a.get("reference_s"), sum_b.get("reference_s")],
        "phase_s": [sum_a.get("phase_s"), sum_b.get("phase_s")],
        "peak_rss_mb": [rss_a, rss_b],
    }


def src_lines(src: Path) -> int:
    """Line count of the tree's `fttpde/*.py`."""
    return sum(f.read_bytes().count(b"\n") for f in (src / "fttpde").glob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    args = ap.parse_args()
    trees = (args.parent_src.resolve(), args.change_src.resolve())
    names = sorted(p.stem for p in (trees[1] / "fttpde" / "presets").glob("*.cfg"))
    print(json.dumps({"src_lines": [src_lines(tree) for tree in trees]}), flush=True)
    failed = False
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for name in names:
            presets = [tree / "fttpde" / "presets" / f"{name}.cfg" for tree in trees]
            steps = horizon_steps(presets[0] if presets[0].is_file() else presets[1])
            outs = list(pool.map(
                lambda i: run_preset(trees[i], name, steps, Path(tmp) / str(i) / name), (0, 1)
            ))
            if None in outs:
                failed = True
                print(json.dumps({"preset": name, "failed": True}))
                continue
            print(json.dumps(compare(name, *outs)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
