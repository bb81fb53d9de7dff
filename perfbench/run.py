"""fttpde benchmark: time to solution, step latency and accuracy of preset
workloads, and per-module self time from a traced run.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src``.
Each run is a separate process (child.py) with BLAS pinned to one thread,
and runs go one at a time. Without ``--workload`` every workload runs, in an
order shuffled by ``--seed``; the presets are deterministic, so the seed
changes nothing else. Progress lines go to stdout, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``, named and with the units that BENCHMARK.json gives.
Everything measured, with an environment record, is written to
``.bench_out/<workload>-trace<t>/results.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MIN_RUNS, TAIL_SAMPLES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# set-up probes run in batches: one before every full run and one after the last
PROBES_PER_BATCH = 6
# a whole invocation must end within 180 s; no run is started past this
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_min: int) -> float:
    """Highest percentile with at least TAIL_SAMPLES of n_min samples beyond it."""
    if n_min <= TAIL_SAMPLES:
        return 100.0
    return math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n_min)) / 10.0


def _git_commit() -> str | None:
    """HEAD of the repository rooted at ROOT; None when ROOT is not one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the package sources and presets, to identify the code
    measured when there is no git commit."""
    digest = hashlib.sha256()
    pkg = SRC / "fttpde"
    for path in sorted(pkg.rglob("*.py")) + sorted(pkg.rglob("*.cfg")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads_pinned": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "seed_effect": "shuffles the workload order when several workloads run; "
                       "the presets are deterministic, so inputs do not depend on it",
    }


class Runner:
    """Starts child runs one at a time; none may run past ``deadline``, a
    ``time.monotonic()`` reading shared by every workload of an invocation."""

    def __init__(self, name: str, out_root: Path, steps: int | None, deadline: float):
        self.name = name
        self.out_root = out_root
        self.steps = steps
        self.deadline = deadline
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str) -> dict:
        """One run; returns its measurements, or an ``error`` entry."""
        self.count += 1
        out = self.out_root / f"{self.count:03d}-{mode}"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.name,
               "--mode", mode, "--out", str(out)]
        if self.steps is not None:
            cmd += ["--steps", str(self.steps)]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "out": out, "error": f"timed out after {timeout:.0f} s"}
        measure = out / "measure.json"
        if proc.returncode != 0 or not measure.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"mode": mode, "out": out, "error": f"exit {proc.returncode}: {tail}"}
        result = json.loads(measure.read_text())
        result["out"] = out
        return result


def check_run(run: dict, bound: float) -> list[str]:
    """Correctness gate on one full run's outputs; returns what failed."""
    if "error" in run:
        return [run["error"]]
    if run["mode"] == "setup":
        return []
    out = run["out"]
    try:
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "timeseries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        run["error"] = f"unreadable outputs: {exc}"
        return [run["error"]]
    problems = []
    n_steps = run["n_steps"]
    if summary["status"] != "ok":
        problems.append(f"status {summary['status']}")
    if len(rows) != n_steps + 1:
        problems.append(f"timeseries.csv has {len(rows)} rows, expected {n_steps + 1}")
    err = summary["final_error"]
    if err is None or not err <= bound:
        problems.append(f"l2_error {err} above bound {bound}")
    if "layers" in run:
        expected = n_steps + (summary["inc_events"] if run["scheme"] == "lie_trotter" else 0)
        calls = run["layers"]["operators.eval_rhs.calls"]
        if calls != expected:
            problems.append(f"eval_rhs calls {calls}, expected {expected}")
    rank_cols = [k for k in rows[0] if k[0] == "r" and k[1:].isdigit()][1:-1] if rows else []
    run["peak_rank"] = max((int(r[c]) for r in rows for c in rank_cols), default=0)
    run["l2_error"] = err
    return problems


def _fits(runner: Runner, seconds: float, runs: list[dict]) -> bool:
    """Whether one more full run, with the probe batches that go with it, is
    expected to end within the budget and before the deadline."""
    ok = [r for r in runs if "error" not in r]
    full = [r["tts_s"] + r["setup_s"] for r in ok if r["tts_s"] is not None]
    probes = [r["setup_s"] for r in ok if r["tts_s"] is None]
    estimate = statistics.median(full) if full else 0.0
    if probes:
        estimate += 2 * PROBES_PER_BATCH * statistics.median(probes)
    return (runner.elapsed() + estimate <= seconds
            and time.monotonic() + estimate < runner.deadline)


def measure_untraced(runner: Runner, seconds: float) -> list[dict]:
    """Full runs with batches of set-up probes around them, so the probes are
    spread over the whole measurement, as the full runs are."""
    # the first probe compiles bytecode and fills the file cache; its set-up
    # time is not used
    runs = [runner.child("setup")]
    while sum(r["mode"] == "run" for r in runs) < MIN_RUNS or _fits(runner, seconds, runs):
        runs += [runner.child("setup") for _ in range(PROBES_PER_BATCH)]
        runs.append(runner.child("run"))
    return runs + [runner.child("setup") for _ in range(PROBES_PER_BATCH)]


def measure_traced(runner: Runner, seconds: float) -> list[dict]:
    # MIN_RUNS untraced runs give the step latencies
    runs = [runner.child("run"), runner.child("trace")]
    while sum(r["mode"] == "run" for r in runs) < MIN_RUNS or _fits(runner, seconds, runs):
        runs.append(runner.child("run" if runs[-1]["mode"] == "trace" else "trace"))
    return runs


def step_latency(ok: list[dict]) -> tuple[dict, dict]:
    """Median and tail ``adaptive_step`` latency, pooled over the runs."""
    steps_ms = [s * 1e3 for r in ok for s in r["step_s"]]
    q = tail_percentile(MIN_RUNS * ok[0]["n_steps"])
    metrics = {
        "integrators.adaptive_step.p50_ms": statistics.median(steps_ms),
        "integrators.adaptive_step.tail_ms": percentile(steps_ms, q),
    }
    return metrics, {"step_samples": len(steps_ms), "step_tail_percentile": q}


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    ok = [r for r in runs if r["mode"] == "run" and "error" not in r]
    probes = [r for r in runs if r["mode"] == "setup" and "error" not in r][1:]
    setups = [r["setup_s"] for r in probes + ok]
    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        "setup_s": statistics.median(setups),
        "time_to_solution_s": statistics.median(r["tts_s"] for r in ok),
        "l2_error": statistics.median(r["l2_error"] for r in ok),
        "peak_rank": max(r["peak_rank"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
        "pass_rate": (len(runs) - failed) / len(runs),
    }
    steps, info = step_latency(ok)
    info.update(steps)
    info.update({"full_runs": len(ok), "setup_samples": len(setups),
                 "fail_rate": failed / len(runs)})
    return metrics, info


def per_layer(runs: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in runs if r["mode"] == "trace" and "error" not in r]
    plain = [r for r in runs if r["mode"] == "run" and "error" not in r]
    # times are medians over the traced runs; counts repeat, so they are the first run's
    metrics = {
        key: statistics.median(r["layers"][key] for r in traced) if key.endswith("_s") else value
        for key, value in traced[0]["layers"].items()
    }
    steps, info = step_latency(plain)
    metrics.update(steps)
    metrics["trace.overhead_s"] = (statistics.median(r["tts_s"] for r in traced)
                                   - statistics.median(r["tts_s"] for r in plain))
    counts_repeat = all(
        r["layers"][k] == traced[0]["layers"][k]
        for r in traced for k in traced[0]["layers"] if not k.endswith("_s")
    )
    info.update({"traced_runs": len(traced), "untraced_runs": len(plain),
                 "counts_repeat": counts_repeat})
    return metrics, info


def bench_workload(name: str, seed: int, seconds: float, trace: bool, steps: int | None,
                   deadline: float) -> dict:
    wl = WORKLOADS[name]
    # smoke runs get their own directory, so they never clobber a measurement
    smoke = "" if steps is None else f"-steps{steps}"
    out_root = OUT / f"{name}-trace{int(trace)}{smoke}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    env = environment(seed)
    runner = Runner(name, out_root, steps, deadline)
    runs = measure_traced(runner, seconds) if trace else measure_untraced(runner, seconds)

    for run in runs:
        run["problems"] = check_run(run, wl.l2_bound)
        if run["mode"] == "setup" and not run["problems"]:
            continue
        status = "ok" if not run["problems"] else "FAILED " + "; ".join(run["problems"])
        tts = f"{run['tts_s']:.3f} s" if run.get("tts_s") is not None else "-"
        print(f"{name} {run['out'].name}: time to solution {tts}, {status}", flush=True)

    complete = {r["mode"] for r in runs if "error" not in r}
    values, info = {}, {}
    if complete >= ({"run", "trace"} if trace else {"run", "setup"}):
        values, info = per_layer(runs) if trace else end_to_end(runs)
        env.update(next(r["env"] for r in runs if "error" not in r))
    failed = sum(1 for r in runs if r["problems"])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec if values},
    }
    record = {
        "workload": name, "preset": wl.preset, "t_final": wl.t_final,
        "l2_bound": wl.l2_bound, "trace": trace, "seconds": seconds,
        "elapsed_s": runner.elapsed(), "environment": env, "info": info,
        "runs": [{k: (str(v) if k == "out" else v) for k, v in r.items() if k != "step_s"}
                 for r in runs],
        "result": result,
    }
    (out_root / "results.json").write_text(json.dumps(record, indent=1))
    # keep the record, the outputs of the last run and the spans of the last traced run
    keep = [runs[-1]["out"]] + [r["out"] for r in runs if r["mode"] == "trace"][-1:]
    for run in runs:
        if run["out"] not in keep:
            shutil.rmtree(run["out"], ignore_errors=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="smoke mode: run each workload for this many steps only")
    args = ap.parse_args(argv)

    if not (SRC / "fttpde" / "runner.py").is_file():
        print(f"no fttpde source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    if not args.workload:
        random.Random(args.seed).shuffle(names)
    results = {name: bench_workload(name, args.seed, args.seconds, bool(args.trace), args.steps,
                                    deadline)
               for name in names}

    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
