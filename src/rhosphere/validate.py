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

``full_validation`` makes the evolution suite's forward run, then forks
one child that runs the identity suite, the envelope check, the offset
slope series and the flow-map round trip on it while this process makes
the time-reversal run.  `_affinity.can_fork` decides whether to fork,
and `_affinity.child` makes the child and keeps it off this process's
CPU; that module says why.  Where it may not fork, all of it runs in this
process.  The rows come back in the same order and with the same bits
either way.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import _affinity
from .grid import PeriodicGrid
from .integrate import IntegratorConfig, evolve, gronwall_check, project
from .lagrangian import (LagrangianState, apriori_bound, evaluate, kernel_fields, lagrangian_velocity,
                         velocity_and_gradient)
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
        vel, pgrad = velocity_and_gradient(grid, snap, mu)
        c_series[i] = vel[0]
        h_series[i] = pgrad[0]
    dc = (c_series[2:] - c_series[:-2]) / (times[2:] - times[:-2])
    slope_err = float(np.max(np.abs(dc + h_series[1:-1])))
    return _result("offset_slope_check", slope_err, 100.0 * dt * dt, "central difference")


# the evolution checks' grid, step and horizon in the full battery
EVOLUTION_N, EVOLUTION_DT, EVOLUTION_T_END = 64, 1e-3, 0.5


def _forward_run(n: int, dt: float, t_end: float):
    """The evolution checks' profile and its run with a snapshot every
    step: (grid, initial state, mu, record).

    The profile deliberately has no odd symmetry, otherwise the offset
    slope check would compare zero against zero.
    """
    grid, state0, mu = initial_state(InitialSpec(
        kind="fourier", n=n, mean=0.05, cos_coeffs=(0.2, 0.05), sin_coeffs=(0.15,)))
    return grid, state0, mu, evolve(grid, state0, mu, IntegratorConfig(dt=dt, t_end=t_end, snapshot_stride=1))


def _record_checks(rec, mu: float) -> list[CheckResult]:
    """Conservation, constraints and the lower bound, read off the record."""
    s = rec.series
    ok, margin = gronwall_check(rec)
    return [
        _result("energy_conservation", rec.energy_drift, 1e-10, "relative drift"),
        _result("sphere_constraint", float(np.max(s.sphere_defect)), 1e-13),
        _result("tangency_constraint", float(np.max(s.tangency_defect)), 1e-13),
        _result("mean_velocity_conservation", float(np.max(np.abs(s.mu_check - mu))), 1e-13),
        CheckResult("pointwise_lower_bound", margin, math.inf, ok, "margin >= 1 required"),
    ]


def _time_reversal(grid: PeriodicGrid, state0: LagrangianState, rec, mu: float, dt: float,
                   t_end: float) -> CheckResult:
    """Negate rho_t and the mean of the final state, march the same horizon
    back and compare with the initial state."""
    final = rec.snapshots[-1]
    back0 = LagrangianState(final.rho, -final.rho_t, final.k0, 0.0)
    rec_b = evolve(grid, back0, -mu, IntegratorConfig(dt=dt, t_end=t_end, snapshot_stride=10**9))
    back = rec_b.snapshots[-1]
    rev = max(
        float(np.max(np.abs(back.rho - state0.rho))),
        float(np.max(np.abs(-back.rho_t - state0.rho_t))),
        abs(back.k0 - state0.k0),
    )
    return _result("time_reversal", rev, 1e-9, f"dt={dt:g}, t={t_end:g}")


def _flow_map_round_trip(grid: PeriodicGrid, final: LagrangianState) -> CheckResult:
    fmap = flow_map(grid, final)
    xs = np.linspace(-0.3, 1.7, 401)
    return _result("flow_map_round_trip", float(np.max(np.abs(fmap.invert(fmap(xs)) - xs))), 1e-12)


def run_evolution_checks(n: int = EVOLUTION_N, dt: float = EVOLUTION_DT,
                         t_end: float = EVOLUTION_T_END) -> list[CheckResult]:
    """Short smooth run: conservation, constraints, reversal, round trips."""
    grid, state0, mu, rec = _forward_run(n, dt, t_end)
    return [*_record_checks(rec, mu), _time_reversal(grid, state0, rec, mu, dt, t_end),
            _offset_slope_check(grid, rec, mu, dt), _flow_map_round_trip(grid, rec.snapshots[-1])]


def _beside(child, parent):
    """(child(), parent()), child run in one forked child process while this
    process runs parent, where `_affinity.can_fork` allows; the child is
    made by `_affinity.child` (see the module docstring).

    The child's value comes back pickled over a pipe; a child that raises
    is a RuntimeError that carries its traceback.  The child is reaped
    before this returns, and killed first if parent raises.
    """
    if not _affinity.can_fork():
        return child(), parent()
    read, write = os.pipe()
    process = _affinity.child(_reply, (child, read, write), "validation child")
    with open(read, "rb") as pipe:
        try:
            process.start()
        finally:
            os.close(write)
        try:
            here = parent()
            sent = pipe.read()
        except BaseException:
            process.kill()
            raise
        finally:
            process.join()
    if not sent:
        raise RuntimeError(f"the validation child (pid {process.pid}) exited with code {process.exitcode} "
                           "before it sent its rows")
    ok, value = pickle.loads(sent)
    if not ok:
        raise RuntimeError(f"the validation child (pid {process.pid}) raised:\n{value}")
    return value, here


def _reply(child, read: int, write: int) -> None:
    """The validation child: child()'s value, or the traceback it raised,
    pickled down the pipe write."""
    os.close(read)
    try:
        reply = (True, child())
    except BaseException:
        import traceback

        reply = (False, traceback.format_exc())
    with open(write, "wb") as pipe:
        pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)


def full_validation(n: int = 128, seed: int = 2026, n_states: int = 100,
                    flip_h_sign: bool = False) -> list[CheckResult]:
    """The identity suite, the envelope check and the evolution checks, in
    that order; all but the evolution checks' forward and reversal runs in
    one forked child where that can help (see the module docstring)."""
    dt, t_end = EVOLUTION_DT, EVOLUTION_T_END
    grid, state0, mu, rec = _forward_run(EVOLUTION_N, dt, t_end)

    def child():
        return ([*run_identity_suite(n=n, seed=seed, n_states=n_states, flip_h_sign=flip_h_sign),
                 run_envelope_check()],
                [_offset_slope_check(grid, rec, mu, dt), _flow_map_round_trip(grid, rec.snapshots[-1])])

    (head, tail), reversal = _beside(child, lambda: _time_reversal(grid, state0, rec, mu, dt, t_end))
    return [*head, *_record_checks(rec, mu), reversal, *tail]
