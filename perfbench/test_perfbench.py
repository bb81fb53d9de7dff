"""The benchmark's own tests. Run from the root of the repository:

    python3 -m pytest perfbench

The smoke tests run every workload for a few steps only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import Runner  # noqa: E402
from tracing import _spurious, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_are_those_of_the_spec():
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--trace", str(trace), "--steps", "3",
                  "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_computed_counts_repeat_across_traced_runs(workload, tmp_path):
    runner = Runner(workload, tmp_path, steps=5, deadline=time.monotonic() + 170)
    first, second = runner.child("trace"), runner.child("trace")
    assert "error" not in first and "error" not in second
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    assert counts["ftt.truncate.svd_flops"] > 0
    assert counts["ftt.add.bytes_out"] > 0
    assert counts["integrators.rhs_evals_per_step"] >= 1.0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", "m", 0.0, 10.0, -1, None],
        ["b", "m", 1.0, 4.0, 0, None],
        ["c", "m", 2.0, 3.0, 1, None],
        ["b", "m", 5.0, 6.0, 0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_spurious_modes_counted_per_removal_window():
    # (added, removed) per step; sweeps after steps 3 and 6
    steps = [(2, 0), (1, 0), (0, 2), (4, 0), (0, 0), (1, 9), (3, 0)]
    # window 1: 3 added, 2 removed -> 2; window 2: 5 added, 9 removed -> 5;
    # the last addition has not met a sweep yet
    assert _spurious(steps, dec_period=3) == 7
