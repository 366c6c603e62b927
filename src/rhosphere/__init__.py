"""Solver toolkit for periodic shallow-water wave breaking in flow-map coordinates.

The state variable is the square root of the flow-map slope together with its
time derivative, evolved on the unit sphere of L2([0,1)).  Submodules:

grid         uniform periodic grid with quadrature, integration and Helmholtz ops
scenarios    initial conditions (constant, sine, Fourier, peakon pair)
lagrangian   velocity, kernel fields (pressure, its gradient), vector field, energy
integrate    RK4 with sphere projection (fixed or error-controlled steps), breaking events, records
reconstruct  flow map, inversion, velocity/slope reconstruction, weak residual
oracle       independent pseudospectral solver in physical coordinates
validate     identity and property suite over pseudorandom states
cli          simulate / validate / compare / sweep entry points
"""

__version__ = "0.1.0"

from .grid import PeriodicGrid, greens_function
from .lagrangian import (
    FieldEval,
    LagrangianState,
    apriori_bound,
    energy,
    evaluate,
    kernel_fields,
    lagrangian_velocity,
    pressure,
)
from .integrate import (
    BreakingEvent,
    IntegratorConfig,
    SimulationRecord,
    StepFailure,
    TimeSeries,
    default_dt,
    evolve,
    gronwall_check,
    project,
)
from .reconstruct import (
    EulerianField,
    FlowMap,
    TestFunction,
    bump_test,
    eulerian_velocity,
    field_energy,
    flow_map,
    slope_field,
    smoothness_diagnostic,
    state_at,
    weak_residual,
)
from .oracle import (
    EulerianTrajectory,
    compare,
    eulerian_evolve,
    eulerian_rhs,
    profile_distance,
    resample_profile,
    sample_trajectory,
)
from .scenarios import InitialSpec, initial_state, lagrangian_initial, make_initial
from .validate import CheckResult, full_validation, random_state, run_identity_suite

__all__ = [
    "BreakingEvent",
    "CheckResult",
    "EulerianField",
    "EulerianTrajectory",
    "FieldEval",
    "FlowMap",
    "InitialSpec",
    "IntegratorConfig",
    "LagrangianState",
    "PeriodicGrid",
    "SimulationRecord",
    "StepFailure",
    "TestFunction",
    "TimeSeries",
    "apriori_bound",
    "bump_test",
    "compare",
    "default_dt",
    "energy",
    "eulerian_evolve",
    "eulerian_rhs",
    "eulerian_velocity",
    "evaluate",
    "evolve",
    "field_energy",
    "flow_map",
    "full_validation",
    "greens_function",
    "gronwall_check",
    "initial_state",
    "kernel_fields",
    "lagrangian_initial",
    "lagrangian_velocity",
    "make_initial",
    "pressure",
    "profile_distance",
    "project",
    "random_state",
    "resample_profile",
    "run_identity_suite",
    "sample_trajectory",
    "slope_field",
    "smoothness_diagnostic",
    "state_at",
    "weak_residual",
]
