"""Self-verification battery: exact identities, then short-run dynamics.

Two layers.  The identity suite drives the field evaluation with a batch
of pseudorandom band-limited on-sphere states and checks relations that
the discretisation is supposed to satisfy to round-off (route agreement,
quadrature identities) or to spectral accuracy (derivative identities).
The evolution suite runs a short smooth trajectory and checks conserved
quantities, constraint maintenance, time reversibility, the pointwise
lower-bound diagnostic and the flow-map round trip.

Both layers return CheckResult rows; the command-line ``validate`` prints
them and fails the process when any row fails.

``full_validation`` runs the identity suite and the envelope check in a
forked child while this process makes the evolution suite's forward run,
and the offset slope series in a second child while this process makes
the time-reversal run (`_parallel.Children`).  With one CPU, no fork or
other threads running, everything runs here instead.  The rows come back
in the same order either way, so the output does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import Children
from .grid import PeriodicGrid
from .integrate import IntegratorConfig, evolve, gronwall_check, project
from .lagrangian import LagrangianState, apriori_bound, evaluate, kernel_fields, lagrangian_velocity
from .reconstruct import flow_map
from .scenarios import InitialSpec, initial_state


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "ok  " if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{tag} {self.name:34s} {self.value:12.4e} <= {self.tol:.1e}{extra}"


def _result(name, value, tol, detail=""):
    return CheckResult(name, float(value), float(tol), bool(value <= tol), detail)


# Derivative identities compare a spectral derivative of the kernel fields
# against products of grid functions; their floor is the spectral tail of
# the fields at the Nyquist mode, which shrinks fast with n (band-limited
# random states, modes up to min(8, n // 8)).  Worst cases over 200 seeds:
# 5.0e-6 (n=16), 7.2e-9 (n=32), 7.3e-12 (n=64), ~3e-13 (n>=128).
DERIVATIVE_TOL = {16: 2e-5, 32: 5e-8, 64: 5e-11}
DERIVATIVE_TOL_DEFAULT = 1e-8


def derivative_tol(n: int) -> float:
    return DERIVATIVE_TOL.get(n, DERIVATIVE_TOL_DEFAULT)


def random_state(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    amp_rho: float = 0.12,
    amp_rho_t: float = 0.35,
) -> LagrangianState:
    """Band-limited pseudorandom state, projected onto sphere and tangency.

    Mode amplitudes fall off like 1/k^2 so the states are smooth enough for
    the spectral derivative identities to hold near round-off at moderate n.
    """
    if kmax is None:
        kmax = min(8, grid.n // 8)
    kmax = max(1, kmax)

    k = np.arange(1, kmax + 1)
    phase = (2.0 * np.pi * k)[:, None] * grid.x
    cos, sin = np.cos(phase), np.sin(phase)

    def field(amp):
        # one draw of all (a_k, b_k) pairs is the same stream as a draw per
        # mode; the sum still runs mode by mode, so the state is unchanged
        coeffs = rng.standard_normal((kmax, 2)) * amp / (k * k)[:, None]
        out = np.zeros(grid.n)
        for (a, b), c, s in zip(coeffs, cos, sin):
            out += a * c + b * s
        return out

    state = LagrangianState(1.0 + field(amp_rho), field(amp_rho_t), 0.0, 0.0)
    return project(grid, state)


def run_identity_suite(
    n: int = 128,
    seed: int = 2026,
    n_states: int = 100,
    flip_h_sign: bool = False,
) -> list[CheckResult]:
    """Field-evaluation identities over a batch of pseudorandom states.

    flip_h_sign negates the gradient field before checking, which must trip
    the slope identities; it exists so the battery can prove it would catch
    a sign-convention regression.
    """
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    worst = {key: 0.0 for key in (
        "dual_press", "dual_grad", "norm", "mean", "grad_mean", "cubic", "slope_f", "slope_h")}
    for _ in range(n_states):
        state = random_state(grid, rng)
        mu = float(rng.uniform(-0.5, 0.5))
        vel = lagrangian_velocity(grid, state, mu)
        rho2 = state.rho**2
        w = rho2 * vel**2 + 2.0 * state.rho_t**2
        pf, hf = kernel_fields(grid, state, vel, mode="fast")
        pd, hd = kernel_fields(grid, state, vel, mode="direct")
        if flip_h_sign:
            hf, hd = -hf, -hd
        worst["dual_press"] = max(worst["dual_press"], float(np.max(np.abs(pf - pd))))
        worst["dual_grad"] = max(worst["dual_grad"], float(np.max(np.abs(hf - hd))))
        worst["norm"] = max(worst["norm"], abs(grid.quad(rho2 * pf) - grid.quad(w)) / grid.quad(w))
        worst["mean"] = max(worst["mean"], abs(grid.quad(vel * rho2) - mu))
        worst["grad_mean"] = max(worst["grad_mean"], abs(grid.quad(hf * rho2)))
        worst["cubic"] = max(worst["cubic"], abs(grid.quad(6.0 * state.rho * state.rho_t * vel**2)))
        worst["slope_f"] = max(worst["slope_f"], float(np.max(np.abs(grid.deriv(pf) - rho2 * hf))))
        worst["slope_h"] = max(worst["slope_h"], float(np.max(np.abs(grid.deriv(hf) - (rho2 * pf - w)))))
    dtol = derivative_tol(n)
    batch = f"n={n}, {n_states} states, seed {seed}"
    return [
        _result("pressure_dual_route", worst["dual_press"], 1e-12, batch),
        _result("pressure_gradient_dual_route", worst["dual_grad"], 1e-12, batch),
        _result("kernel_normalization", worst["norm"], 1e-10, "relative"),
        _result("mean_velocity_exactness", worst["mean"], 1e-12),
        _result("pressure_gradient_mean", worst["grad_mean"], 1e-10),
        _result("velocity_cube_flux", worst["cubic"], 1e-12, "mean of d/dx vel^3"),
        _result("pressure_slope_identity", worst["slope_f"], dtol, "d/dx press = rho^2 grad"),
        _result("gradient_slope_identity", worst["slope_h"], dtol, "d/dx grad = rho^2 press - source"),
    ]


def run_envelope_check(n: int = 128, seed: int = 7, n_states: int = 50) -> CheckResult:
    """Norm envelope for the field gap, in its regime of validity.

    The envelope from apriori_bound only dominates max|vel^2 - press| for
    small transverse amplitude and small mean; outside that regime it can
    be undercut (a unit-amplitude sine already does), so the check draws
    states with |rho_t| <= 0.2 and |mu| <= 0.25 and reports the worst
    gap / envelope ratio, which must stay at or below 1.
    """
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        state = random_state(grid, rng, amp_rho=0.05, amp_rho_t=0.1)
        nt = math.sqrt(grid.quad(state.rho_t**2))
        if nt > 0.2:
            state = LagrangianState(state.rho, state.rho_t * (0.2 / nt), 0.0, 0.0)
        mu = float(rng.uniform(-0.25, 0.25))
        gap = float(np.max(np.abs(evaluate(grid, state, mu).gap)))
        worst = max(worst, gap / apriori_bound(grid, state))
    return _result("field_gap_envelope", worst, 1.0, "small-amplitude regime")


def _offset_slope_check(grid: PeriodicGrid, rec, mu: float, dt: float) -> CheckResult:
    """d/dt of vel at label 0, by central differences over the stored
    snapshots, against -grad at label 0."""
    times = np.array([snap.t for snap in rec.snapshots])
    c_series = np.zeros(times.size)
    h_series = np.zeros(times.size)
    for i, snap in enumerate(rec.snapshots):
        vel = lagrangian_velocity(grid, snap, mu)
        c_series[i] = vel[0]
        h_series[i] = kernel_fields(grid, snap, vel)[1][0]
    dc = (c_series[2:] - c_series[:-2]) / (times[2:] - times[:-2])
    slope_err = float(np.max(np.abs(dc + h_series[1:-1])))
    return _result("offset_slope_check", slope_err, 100.0 * dt * dt, "central difference")


def run_evolution_checks(n: int = 64, dt: float = 1e-3, t_end: float = 0.5) -> list[CheckResult]:
    """Short smooth run: conservation, constraints, reversal, round trips.

    The profile deliberately has no odd symmetry, otherwise the offset
    slope check would compare zero against zero.  The offset slope series
    runs in a forked child beside the time-reversal run, where that can
    help (see the module docstring).
    """
    grid, state0, mu = initial_state(InitialSpec(
        kind="fourier", n=n, mean=0.05, cos_coeffs=(0.2, 0.05), sin_coeffs=(0.15,)))
    cfg = IntegratorConfig(dt=dt, t_end=t_end, snapshot_stride=1)
    rec = evolve(grid, state0, mu, cfg)
    s = rec.series

    out = [
        _result("energy_conservation", rec.energy_drift, 1e-10, "relative drift"),
        _result("sphere_constraint", float(np.max(s.sphere_defect)), 1e-13),
        _result("tangency_constraint", float(np.max(s.tangency_defect)), 1e-13),
        _result("mean_velocity_conservation", float(np.max(np.abs(s.mu_check - mu))), 1e-13),
    ]

    ok, margin = gronwall_check(rec)
    out.append(CheckResult("pointwise_lower_bound", margin, math.inf, ok, "margin >= 1 required"))

    # reversal: negate rho_t and the mean, march the same horizon back
    final = rec.snapshots[-1]
    back0 = LagrangianState(final.rho, -final.rho_t, final.k0, 0.0)
    with Children() as children:
        slope_check = children.start("offset slope series", _offset_slope_check, grid, rec, mu, dt)
        rec_b = evolve(grid, back0, -mu, IntegratorConfig(dt=dt, t_end=t_end, snapshot_stride=10**9))
        slope_result = slope_check()
    back = rec_b.snapshots[-1]
    rev = max(
        float(np.max(np.abs(back.rho - state0.rho))),
        float(np.max(np.abs(-back.rho_t - state0.rho_t))),
        abs(back.k0 - state0.k0),
    )
    out.append(_result("time_reversal", rev, 1e-9, f"dt={dt:g}, t={t_end:g}"))
    out.append(slope_result)

    fmap = flow_map(grid, final)
    xs = np.linspace(-0.3, 1.7, 401)
    out.append(_result(
        "flow_map_round_trip",
        float(np.max(np.abs(fmap.invert(fmap(xs)) - xs))),
        1e-12,
    ))
    return out


def _identity_checks(n: int, seed: int, n_states: int, flip_h_sign: bool) -> list[CheckResult]:
    return [*run_identity_suite(n=n, seed=seed, n_states=n_states, flip_h_sign=flip_h_sign),
            run_envelope_check()]


def full_validation(n: int = 128, seed: int = 2026, n_states: int = 100,
                    flip_h_sign: bool = False) -> list[CheckResult]:
    """The identity suite, the envelope check and the evolution checks, in
    that order, the first two and the offset slope series in forked
    children where that can help (see the module docstring)."""
    with Children() as children:
        identities = children.start("identity suite", _identity_checks, n, seed, n_states, flip_h_sign)
        evolution = run_evolution_checks()
        return identities() + evolution
