"""Back to Eulerian variables: flow map, velocity profiles, weak residual.

The solver state lives on labels x in [0, 1); the physical point carrying
label x is K(x) = k0 + integral of rho^2 from 0 to x.  K is monotone
(rho^2 >= 0) but can have flat intervals where rho vanishes, which is
exactly where the Eulerian slope u_x blows up.  Everything in this module
is about evaluating through, or quantifying, that degeneracy:

* ``flow_map`` builds K on the nodes (trapezoid prefix sum, so the full
  period is the plain grid mean) together with the maximal flat intervals.
* ``FlowMap.invert`` sends an Eulerian point back to its label by binary
  search plus linear interpolation; a point swallowed by a flat interval
  maps to the interval midpoint.
* ``eulerian_velocity`` samples u = vel(label) and u_x = 2 rho_t / rho at
  the preimages of a uniform Eulerian grid, clamping the slope and
  flagging nodes where the value is not trustworthy.
* ``weak_residual`` checks the reconstructed fields against the
  divergence-form momentum balance with a smooth space-time bump: the
  nonlocal pressure is rebuilt on the physical grid by applying the
  inverse Helmholtz operator to u^2 + u_x^2 / 2, so the residual is a
  statement about the Eulerian fields alone, not about solver internals.
* ``smoothness_diagnostic`` fits the spectral decay exponent of K - x - k0,
  a scalar that collapses when a genuine slope singularity forms and does
  not when the data was mollified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import PeriodicGrid
from .integrate import _dense_state
from .lagrangian import LagrangianState, evaluate, kernel_fields, lagrangian_velocity

FLAT_EPS_REL = 1e-8
SLOPE_CLAMP = 1.0 / FLAT_EPS_REL


@dataclass
class FlowMap:
    """Nodal flow map K with its flat structure.

    knots holds K at the n + 1 label nodes 0, h, ..., 1; the last entry
    exceeds the first by the period (exactly 1 on the unit sphere).
    flat_intervals are (start, end) label pairs, end >= start, end possibly
    past 1 when a run wraps; a single flat node gives a degenerate pair.
    """

    grid: PeriodicGrid
    k0: float
    knots: np.ndarray
    flat_intervals: list[tuple[float, float]]
    _cell_mid: np.ndarray

    @property
    def period(self) -> float:
        return float(self.knots[-1] - self.knots[0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        m = np.floor(x)
        pos = (x - m) * self.grid.n
        j = np.minimum(pos.astype(int), self.grid.n - 1)
        frac = pos - j
        val = self.knots[j] + frac * (self.knots[j + 1] - self.knots[j]) + m * self.period
        return float(val) if val.ndim == 0 else val

    def invert(self, y):
        """Labels x with K(x) = y; flat intervals resolve to their midpoint."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        m = np.floor((y - self.knots[0]) / self.period)
        yr = y - m * self.period
        right = np.searchsorted(self.knots, yr, side="right")
        j = np.clip(right - 1, 0, self.grid.n - 1)
        dk = self.knots[j + 1] - self.knots[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(dk > 0.0, (yr - self.knots[j]) / dk, 0.5)
        x = (j + np.clip(frac, 0.0, 1.0)) * self.grid.h
        mid = self._cell_mid[j]
        x = np.where(np.isnan(mid), x, mid)
        # a query tying several equal knots sits on a collapsed image; send
        # it to the midpoint of the labels it ties with
        left = np.searchsorted(self.knots, yr, side="left")
        tie = right - left >= 2
        if np.any(tie):
            x = np.where(tie, 0.5 * (left + right - 1) * self.grid.h, x)
        x = x + m
        return float(x[0]) if scalar else x


def _flat_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start, length)."""
    n = flags.size
    if flags.all():
        return [(0, n)]
    if not flags.any():
        return []
    ext = np.concatenate([flags, flags])
    runs = []
    i = 0
    while i < n:
        if ext[i] and not ext[i - 1]:
            length = 1
            while ext[i + length]:
                length += 1
            runs.append((i, length))
            i += length
        else:
            i += 1
    return runs


def flow_map(grid: PeriodicGrid, state: LagrangianState, flat_eps: float | None = None) -> FlowMap:
    rho2 = state.rho * state.rho
    if flat_eps is None:
        flat_eps = FLAT_EPS_REL * float(rho2.max())
    if rho2.max() <= 0.0:
        raise ValueError("flow map of an identically flat state is degenerate")
    wrapped = np.concatenate([rho2, rho2[:1]])
    knots = state.k0 + np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (wrapped[:-1] + wrapped[1:]))])

    flags = rho2 < flat_eps
    runs = _flat_runs(flags)
    intervals = [(a * grid.h, (a + ln - 1) * grid.h) for a, ln in runs]
    cell_mid = np.full(grid.n, np.nan)
    for a, ln in runs:
        mid = (a + 0.5 * (ln - 1)) * grid.h
        for c in range(a, a + ln - 1):
            cell_mid[c % grid.n] = mid - (1.0 if c >= grid.n else 0.0)
    return FlowMap(grid, state.k0, knots, intervals, cell_mid)


@dataclass
class EulerianField:
    """Velocity sampled on a uniform physical grid at one instant."""

    t: float
    y: np.ndarray
    u: np.ndarray
    ux: np.ndarray
    valid_ux: np.ndarray


def slope_field(state: LagrangianState, flat_eps: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodal u_x along particles, 2 rho_t / rho, clamped; with validity flags.

    A node is invalid where rho^2 sits under the flat threshold or the
    ratio exceeds the clamp; the returned value there is the clamped one.
    """
    rho2 = state.rho * state.rho
    if flat_eps is None:
        flat_eps = FLAT_EPS_REL * float(rho2.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = 2.0 * state.rho_t / state.rho
    raw = np.nan_to_num(raw, nan=0.0, posinf=SLOPE_CLAMP, neginf=-SLOPE_CLAMP)
    clamped = np.clip(raw, -SLOPE_CLAMP, SLOPE_CLAMP)
    valid = (rho2 >= flat_eps) & (np.abs(raw) < SLOPE_CLAMP)
    return clamped, valid


def _interp_nodes(values: np.ndarray, pos: np.ndarray, n: int):
    j = np.minimum((pos % 1.0 * n).astype(int), n - 1)
    frac = pos % 1.0 * n - j
    jp = (j + 1) % n
    return (1.0 - frac) * values[j] + frac * values[jp], j, jp


def eulerian_velocity(
    grid: PeriodicGrid,
    state: LagrangianState,
    mu: float,
    m: int | None = None,
    flat_eps: float | None = None,
) -> EulerianField:
    """u and u_x on the uniform m-point physical grid at the state's time."""
    m = m if m is not None else grid.n
    fmap = flow_map(grid, state, flat_eps)
    vel = lagrangian_velocity(grid, state, mu)
    slopes, node_ok = slope_field(state, flat_eps)
    y = np.arange(m) / m
    x = fmap.invert(y)
    u, j, jp = _interp_nodes(vel, x, grid.n)
    ux, _, _ = _interp_nodes(slopes, x, grid.n)
    valid = node_ok[j] & node_ok[jp] & np.isnan(fmap._cell_mid[j])
    return EulerianField(state.t, y, u, np.clip(ux, -SLOPE_CLAMP, SLOPE_CLAMP), valid)


def field_energy(field: EulerianField, valid_only: bool = True) -> float:
    """Grid mean of u^2 + u_x^2 over the sampled field.

    With valid_only the nodes whose slope is clamped are dropped from the
    mean; without it the clamp values enter and the number diverges as
    breaking approaches, by design.
    """
    dens = field.u**2 + field.ux**2
    if valid_only and not field.valid_ux.all():
        if not field.valid_ux.any():
            return math.inf
        dens = dens[field.valid_ux]
    return float(np.mean(dens))


@dataclass
class TestFunction:
    """Smooth space-time test function, compactly supported in (t0, t1)."""

    t0: float
    t1: float
    phi: Callable[[np.ndarray, float], np.ndarray]
    phi_t: Callable[[np.ndarray, float], np.ndarray]
    phi_x: Callable[[np.ndarray, float], np.ndarray]


def _bump(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _bump_prime(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * si / (q * q))
    return out


def bump_test(center: float, width: float, t0: float, t1: float) -> TestFunction:
    """Product of a periodic spatial bump and a temporal bump over (t0, t1)."""
    if not (0.0 < width <= 0.5) or t1 <= t0:
        raise ValueError("need 0 < width <= 0.5 and t1 > t0")

    def s_space(y):
        return (np.mod(y - center + 0.5, 1.0) - 0.5) / width

    def s_time(t):
        return (2.0 * t - t0 - t1) / (t1 - t0)

    def phi(y, t):
        return _bump(s_space(y)) * _bump(np.asarray(s_time(t)))

    def phi_t(y, t):
        return _bump(s_space(y)) * _bump_prime(np.asarray(s_time(t))) * (2.0 / (t1 - t0))

    def phi_x(y, t):
        return _bump_prime(s_space(y)) * (1.0 / width) * _bump(np.asarray(s_time(t)))

    return TestFunction(t0, t1, phi, phi_t, phi_x)


def state_at(record, t: float) -> LagrangianState:
    """State at time t, from the cubic Hermite interpolant between the
    bracketing snapshots, the one `evolve` uses inside a step; its slopes
    come from evaluating the fields at both snapshots.

    The interpolant drifts off the constraint manifold at fourth order in
    the snapshot spacing, so it is projected back; without that the
    reconstructed velocity picks up a spurious non-periodic part.
    """
    times = np.array([s.t for s in record.snapshots])
    if not (times[0] <= t <= times[-1]):
        raise ValueError(f"t = {t} outside the recorded snapshot span")
    if times.size == 1:
        return record.snapshots[0]
    j = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2))
    a, b = record.snapshots[j], record.snapshots[j + 1]
    if t == a.t:
        return a
    if t == b.t:
        return b
    grid = PeriodicGrid(a.rho.size)
    return _dense_state(grid, a, evaluate(grid, a, record.mu), b, evaluate(grid, b, record.mu), t, True)


def weak_residual(
    record,
    mu: float,
    test_fn: TestFunction,
    m: int | None = None,
    times: int | None = None,
    route: str = "helmholtz",
) -> float:
    """Space-time integral of u phi_t + (u^2 / 2) phi_x - p_x phi.

    The fields are reconstructed on m uniform physical nodes at `times`
    uniformly spaced instants inside the test support (states between
    snapshots come from `state_at`); the integral uses the
    grid mean in space and the trapezoid rule in time, whose endpoint
    values vanish by compact support.  For a genuine weak solution the
    value tends to zero under refinement.

    The pressure slope comes from applying the inverse Helmholtz operator
    to u^2 + u_x^2 / 2 built from the sampled fields (route "helmholtz").
    Route "label" instead samples the label-space gradient field at the
    preimages; it involves no clamped slopes, stays tame arbitrarily close
    to breaking, and serves as a cross-check of the default.
    """
    if route not in ("helmholtz", "label"):
        raise ValueError(f"unknown pressure route {route!r}")
    end = float(record.series.t[-1])
    if not (0.0 < test_fn.t0 < test_fn.t1 < end):
        raise ValueError("test function must be compactly supported inside (0, t_end)")
    probe = np.array([0.0, 1.0])
    tmid = 0.5 * (test_fn.t0 + test_fn.t1)
    for part in (test_fn.phi, test_fn.phi_x):
        vals = part(probe, tmid)
        if abs(vals[0] - vals[1]) > 1e-10 * (1.0 + np.max(np.abs(vals))):
            raise ValueError("test function must be periodic in space")

    n = record.snapshots[0].rho.size
    grid = PeriodicGrid(n)
    m = m if m is not None else n
    egrid = PeriodicGrid(m)
    y = np.arange(m) / m

    snap_times = np.array([s.t for s in record.snapshots])
    if times is None:
        inside = np.count_nonzero((snap_times > test_fn.t0) & (snap_times < test_fn.t1))
        times = max(8, int(inside))
    h = (test_fn.t1 - test_fn.t0) / (times + 1)
    total = 0.0
    for i in range(1, times + 1):
        t = test_fn.t0 + i * h
        st = state_at(record, t)
        fmap = flow_map(grid, st)
        vel = lagrangian_velocity(grid, st, mu)
        x = fmap.invert(y)
        u, _, _ = _interp_nodes(vel, x, n)
        if route == "helmholtz":
            slopes, node_ok = slope_field(st)
            ux, j, jp = _interp_nodes(slopes, x, n)
            # drop slope samples whose stencil touches a breaking node:
            # the squared-slope density there is the singular part, carried
            # by an image set of vanishing measure
            ux = np.where(node_ok[j] & node_ok[jp], ux, 0.0)
            px = egrid.deriv(egrid.helmholtz_inverse(u * u + 0.5 * ux * ux))
        else:
            pg = kernel_fields(grid, st, vel)[1]
            px, _, _ = _interp_nodes(pg, x, n)
        total += np.mean(u * test_fn.phi_t(y, t) + 0.5 * u * u * test_fn.phi_x(y, t) - px * test_fn.phi(y, t))
    return float(h * total)


def smoothness_diagnostic(fmap: FlowMap) -> float:
    """Spectral decay exponent of K - x - k0 (log-log least squares).

    Larger means smoother; the fit drops modes at the round-off floor and
    returns inf when nothing sits above it.  Tracked over a run, the value
    holds steady even as the physical slope field degenerates, which is
    the flow map's regularity outliving the velocity's.
    """
    f = fmap.knots[:-1] - fmap.grid.x - fmap.k0
    amp = np.abs(np.fft.rfft(f))[1:]
    if amp.size < 2 or amp.max() <= 0.0:
        return math.inf
    keep = amp > 1e-13 * amp.max()
    if np.count_nonzero(keep) < 2:
        return math.inf
    k = np.arange(1, amp.size + 1, dtype=float)
    slope = np.polyfit(np.log(k[keep]), np.log(amp[keep]), 1)[0]
    return float(-slope)
