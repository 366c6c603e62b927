"""Solver toolkit for periodic shallow-water wave breaking in flow-map coordinates.

The state variable is the square root of the flow-map slope together with its
time derivative, evolved on the unit sphere of L2([0,1)).  Submodules:

grid         uniform periodic grid with quadrature, integration and Helmholtz ops
scenarios    initial conditions (constant, sine, Fourier, peakon pair) and their lift
lagrangian   velocity, kernel fields (pressure, its gradient), vector field, energy
integrate    RK4 with sphere projection (fixed or error-controlled steps), breaking events, records
reconstruct  flow map, inversion, velocity/slope reconstruction, weak residual
oracle       independent pseudospectral solver in physical coordinates
validate     identity and property suite over pseudorandom states
config       flat key = value run configuration
cli          simulate / validate / compare / sweep entry points

The package exports what a caller builds a run from and reads it with.  The
result types callers receive but never construct (FlowMap, SimulationRecord,
CheckResult, ...) and the helpers of the tests and the benchmark (pressure,
random_state, eulerian_rhs, ...) stay in their modules under the same names.
"""

__version__ = "0.1.0"

from .grid import PeriodicGrid
from .lagrangian import LagrangianState, energy, kernel_fields, lagrangian_velocity
from .integrate import IntegratorConfig, StepFailure, default_dt, evolve, gronwall_check
from .reconstruct import (
    bump_test,
    eulerian_velocity,
    flow_map,
    slope_field,
    smoothness_diagnostic,
    state_at,
    weak_residual,
)
from .oracle import compare, eulerian_evolve
from .scenarios import InitialSpec, initial_state, make_initial
from .validate import full_validation

__all__ = [
    "InitialSpec",
    "IntegratorConfig",
    "LagrangianState",
    "PeriodicGrid",
    "StepFailure",
    "bump_test",
    "compare",
    "default_dt",
    "energy",
    "eulerian_evolve",
    "eulerian_velocity",
    "evolve",
    "flow_map",
    "full_validation",
    "gronwall_check",
    "initial_state",
    "kernel_fields",
    "lagrangian_velocity",
    "make_initial",
    "slope_field",
    "smoothness_diagnostic",
    "state_at",
    "weak_residual",
]
