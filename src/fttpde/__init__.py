"""Rank-adaptive functional tensor-train integration of periodic PDEs."""

from .grids import Domain, Grid1D, make_periodic_grid, torus_domain
from .ftt import (
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
    to_full,
    truncate,
    zero_pad,
)
from .operators import (
    SeparableOperator,
    apply_separable,
    apply_separable_dense,
    eval_rhs,
    separable,
)
from .integrators import (
    AdaptiveState,
    IntegratorConfig,
    adaptive_step,
    bdf_tangent_estimate,
    lie_trotter_step,
    normal_component,
    rk4_dense_step,
)
from .problems import (
    ProblemSpec,
    advection2d,
    build_problem,
    fp4d,
    kse2d,
    l2_error,
    marginal_2d,
)
from .runner import RunConfig, parse_config, run_experiment
from . import snapshots
