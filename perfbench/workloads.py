"""The benchmark's workloads: shipped presets, some with a shortened horizon.

Every key of a preset is kept except ``t_final``. The presets are
deterministic, so a workload's inputs do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    preset: str
    # None keeps the preset's own horizon
    t_final: float | None
    # correctness gate on summary["final_error"] against the trusted reference;
    # about 2.5x the error measured at the commit that defined the benchmark
    l2_bound: float


# The names are those of BENCHMARK.json's workloads.
WORKLOADS = {
    # large ranks: rounding of the rank-9r train in eval_rhs, taken twice on
    # almost every step because modes are added; 30 steps cross the
    # dec_period=25 sweep, middle rank climbs past 100 and drops
    "fp4d-sawtooth": Workload("fp4d_inc1e-3", t_final=0.03, l2_bound=1e-4),
    # rank 1, so TT work is trivial; the dense 4D RK4 reference dominates
    "fp4d-fixed-ref": Workload("fp4d_fixed", t_final=None, l2_bound=4e-3),
}

# Every untraced measurement makes at least this many full runs, so the tail
# percentile can be fixed per workload from the guaranteed sample count.
MIN_RUNS = 2
# The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES = 10
