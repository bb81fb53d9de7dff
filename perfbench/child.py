"""One benchmark run in its own process: a workload through the public
``fttpde.runner.run_experiment`` entry, written to ``--out``.

run.py starts this script with ``PYTHONPATH`` set to the checkout's ``src``
and BLAS pinned to one thread. Modes:

- ``run``: times set-up, every ``adaptive_step`` call and the time to
  solution;
- ``setup``: stops at the first step, so only set-up is timed;
- ``trace``: as ``run``, with spans around the package's public functions
  (see tracing.py).

Set-up is measured from ``--spawned-at``, the parent's ``time.monotonic()``
just before it started this process, to the first step. The measurements
go to ``<out>/measure.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    pass


def _blas_version(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--steps", type=int, default=None)
    args = ap.parse_args()

    import numpy as np
    import fttpde
    from fttpde import runner
    from workloads import WORKLOADS

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(fttpde.__file__).resolve().parents:
        print(f"fttpde imported from {fttpde.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    config = runner.parse_config(src / "fttpde" / "presets" / f"{wl.preset}.cfg")
    if wl.t_final is not None:
        config = dataclasses.replace(config, t_final=wl.t_final)
    if args.steps is not None:
        config = dataclasses.replace(config, t_final=args.steps * config.dt)

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    clock = time.monotonic
    step_s: list[float] = []
    first_step: list[float] = []
    inner_step = runner.adaptive_step

    def timed_step(state, rhs, cfg):
        t0 = clock()
        if not first_step:
            first_step.append(t0)
            if args.mode == "setup":
                raise _SetupDone
        out = inner_step(state, rhs, cfg)
        step_s.append(clock() - t0)
        return out

    runner.adaptive_step = timed_step
    out_dir = Path(args.out)
    try:
        summary = runner.run_experiment(config, output_dir=out_dir)
    except _SetupDone:
        summary = None
    done = clock()

    result = {
        "mode": args.mode,
        "setup_s": first_step[0] - args.spawned_at,
        "tts_s": None if summary is None else done - first_step[0],
        "step_s": step_s,
        "n_steps": int(round(config.t_final / config.dt)),
        "scheme": config.scheme,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_version(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        tracer.dump(out_dir / "spans.json")
        dec_period = config.dec_period if config.scheme == "lie_trotter" else 0
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, dec_period)
    (out_dir / "measure.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
