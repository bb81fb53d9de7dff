"""Command-line interface: run experiments, list presets, inspect snapshots."""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys
import traceback
from importlib import resources
from pathlib import Path

from .runner import ConfigError, parse_config, run_experiment
from . import snapshots


def preset_names() -> list[str]:
    root = resources.files("fttpde") / "presets"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def preset_path(name: str) -> Path:
    path = resources.files("fttpde") / "presets" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; see 'fttpde presets list'")
    return Path(str(path))


def _run_one(config_path: str, output_dir: str | None) -> dict:
    config = parse_config(config_path)
    return run_experiment(config, output_dir=output_dir)


def _report(cfg_path: str, result) -> int:
    """Print one job's summary, or its error on stderr; return 1 if the job
    failed, 2 if it ended with a status other than ok, 0 otherwise."""
    try:
        summary = result()
    except Exception as exc:  # one job's failure must not stop the others
        if not isinstance(exc, ConfigError):
            traceback.print_exc()
        print(f"error: {cfg_path}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["status"] == "ok" else 2


def _cmd_run(args) -> int:
    jobs = []
    multi = len(args.config) > 1
    for cfg_path in args.config:
        out = args.output_dir
        if out is not None and multi:
            out = str(Path(out) / Path(cfg_path).stem)
        jobs.append((cfg_path, out))
    if args.jobs > 1 and multi:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(_run_one, c, o): c for c, o in jobs}
            done = concurrent.futures.as_completed(futures)
            codes = [_report(futures[f], f.result) for f in done]
    else:
        codes = [_report(c, functools.partial(_run_one, c, o)) for c, o in jobs]
    return 1 if 1 in codes else 2 if 2 in codes else 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
    return 0


def _cmd_snapshot(args) -> int:
    if args.action == "info":
        print(json.dumps(snapshots.describe(args.file), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fttpde",
        description="Rank-adaptive tensor-train integration of periodic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one or more run configs")
    p_run.add_argument("config", nargs="+", help="flat key=value config file(s)")
    p_run.add_argument("--output-dir", default=None, help="directory for run outputs")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel runs across configs")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="preset configurations")
    p_presets.add_argument("action", choices=["list"])
    p_presets.set_defaults(func=_cmd_presets)

    p_snap = sub.add_parser("snapshot", help="inspect snapshot files")
    p_snap.add_argument("action", choices=["info"])
    p_snap.add_argument("file")
    p_snap.set_defaults(func=_cmd_snapshot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
