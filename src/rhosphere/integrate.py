"""Fixed-step RK4 on the sphere, with projection, diagnostics and breaking events.

The flow preserves the unit-sphere and tangency constraints exactly; the
integrator reasserts them after every accepted step by renormalising rho
and removing the radial component of rho_t.  Each step also records a
diagnostics row (energy, constraint defects, minimum of rho, flat-set
measure, mean-velocity check) plus the minimum of rho^2 + rho_t^2 and the
field gap max|vel^2 - press| used by the lower-bound diagnostic.

Wave breaking shows up here as rho passing through zero at some nodes.
That is a regular event for this system, not a failure: the step size never
shrinks and the run continues through it.  Events are recorded whenever the
nodal sign pattern of rho changes or min|rho| first dips under
breaking_eps; event times are only known to within one step (bracketed by
the surrounding diagnostics rows), and no root polishing is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid
from .lagrangian import LagrangianState, _rhs_arrays, energy, evaluate

SPHERE_TOL = 1e-12


@dataclass
class IntegratorConfig:
    dt: float | None = None
    t_end: float = 1.0
    projection: bool = True
    snapshot_stride: int = 100
    breaking_eps: float = 1e-6


@dataclass
class BreakingEvent:
    """Sign change (or near-vanishing) of rho seen at the end of a step."""

    time: float
    locations: list[int]
    min_rho: float


class StepFailure(RuntimeError):
    """A stage produced non-finite values; carries the progress so far."""

    def __init__(self, step: int, t: float, record: "SimulationRecord"):
        super().__init__(f"non-finite state at step {step}, t = {t:.6g}")
        self.step = step
        self.t = t
        self.record = record


@dataclass
class TimeSeries:
    t: np.ndarray
    energy: np.ndarray
    sphere_defect: np.ndarray
    tangency_defect: np.ndarray
    min_rho: np.ndarray
    flat_measure: np.ndarray
    mu_check: np.ndarray
    min_quad: np.ndarray
    field_gap: np.ndarray
    argmin_rho: np.ndarray


@dataclass
class SimulationRecord:
    mu: float
    dt: float
    dt_heuristic: float
    config: IntegratorConfig
    series: TimeSeries
    snapshots: list[LagrangianState] = field(default_factory=list)
    snapshot_steps: list[int] = field(default_factory=list)
    events: list[BreakingEvent] = field(default_factory=list)

    @property
    def energy0(self) -> float:
        return float(self.series.energy[0])

    @property
    def energy_drift(self) -> float:
        e0 = self.series.energy[0]
        return float(np.max(np.abs(self.series.energy - e0)) / abs(e0)) if e0 else 0.0


def default_dt(grid: PeriodicGrid, state: LagrangianState, mu: float) -> float:
    """Step heuristic 0.5 / (n * max(1, sqrt(energy))); accuracy-driven,
    since the right-hand side is bounded and carries no grid stiffness."""
    e = energy(grid, state, mu)
    return 0.5 / (grid.n * max(1.0, math.sqrt(abs(e))))


def project(grid: PeriodicGrid, state: LagrangianState) -> LagrangianState:
    """Renormalise rho to the unit sphere, then remove the radial part of rho_t."""
    norm2 = (state.rho * state.rho).sum() * grid._inv_n
    if norm2 <= 0.0:
        raise ValueError("cannot project a state with vanishing rho norm")
    rho = state.rho / math.sqrt(norm2)
    rho_t = state.rho_t - ((rho * state.rho_t).sum() * grid._inv_n) * rho
    return LagrangianState(rho, rho_t, state.k0, state.t)


def _advance(grid, state, mu, dt, stage1, t):
    """One RK4 step reusing a precomputed first stage, ending at time t.

    rho and rho_t advance together as the two rows of one (2, n) array, so
    each stage state and each update is one array operation.  The slope of
    rho is rho_t itself: a stage state sits in rows 0-1 of a (3, n) work
    array, and rows 1-2 are then its slope once row 2 holds drho_t.
    """
    y = np.empty((2, grid.n))
    y[0] = state.rho
    y[1] = state.rho_t
    k1 = stage1.slope
    hd = 0.5 * dt
    work = np.empty((3, grid.n))
    ys, k = work[:2], work[1:]
    np.add(y, hd * k1, out=ys)
    o2 = _rhs_arrays(grid, ys[0], ys[1], mu, work[2])[0]
    acc = k * 2.0
    acc += k1
    np.add(y, hd * k, out=ys)
    o3 = _rhs_arrays(grid, ys[0], ys[1], mu, work[2])[0]
    acc += 2.0 * k
    np.add(y, dt * k, out=ys)
    o4 = _rhs_arrays(grid, ys[0], ys[1], mu, work[2])[0]
    acc += k
    acc *= dt / 6.0
    acc += y
    k0 = state.k0 + (dt / 6.0) * (stage1.offset + 2.0 * o2 + 2.0 * o3 + o4)
    return LagrangianState(acc[0], acc[1], k0, t)


def rk4_step(grid: PeriodicGrid, state: LagrangianState, mu: float, dt: float) -> LagrangianState:
    """Classical RK4 step of the full (rho, rho_t, k0) system."""
    return _advance(grid, state, mu, dt, evaluate(grid, state, mu), state.t + dt)


def _diagnostics_row(grid, state, ev, eps):
    # every entry comes from fields the evaluation at this state formed
    inv_n = grid._inv_n
    amin = int(np.argmin(state.rho))
    return (
        (float(ev.w.sum()) + 2.0 * float(ev.rho_t2.sum())) * inv_n,
        abs(ev.alpha - 1.0),
        abs(0.5 * ev.flux),
        float(state.rho[amin]),
        np.count_nonzero(ev.rho2 < eps * eps) * inv_n,
        float(np.dot(ev.vel, ev.rho2)) * inv_n,
        float((ev.rho2 + ev.rho_t2).min()),
        float(np.abs(ev.gap).max()),
        amin,
    )


def evolve(grid: PeriodicGrid, state: LagrangianState, mu: float, cfg: IntegratorConfig) -> SimulationRecord:
    """Integrate to t_end, recording diagnostics, snapshots and events.

    Raises StepFailure (with the record so far attached) if a step goes
    non-finite; breaking is handled as a recorded event, never a failure.
    """
    heuristic = default_dt(grid, state, mu)
    dt = cfg.dt if cfg.dt is not None else heuristic
    if dt <= 0 or cfg.t_end < 0:
        raise ValueError("dt and t_end must be positive")
    steps = max(1, round(cfg.t_end / dt)) if cfg.t_end > 0 else 0
    uniform = abs(steps * dt - cfg.t_end) <= 1e-9 * max(1.0, cfg.t_end)
    if not uniform:
        steps = math.ceil(cfg.t_end / dt - 1e-12)

    if cfg.projection:
        state = project(grid, state)

    cols = np.zeros((8, steps + 1))
    argmins = np.zeros(steps + 1, dtype=int)
    times = np.zeros(steps + 1)
    record = SimulationRecord(
        mu=mu,
        dt=dt,
        dt_heuristic=heuristic,
        config=cfg,
        series=TimeSeries(times, *cols, argmins),
    )

    ev = evaluate(grid, state, mu)
    row = _diagnostics_row(grid, state, ev, cfg.breaking_eps)
    cols[:, 0] = row[:8]
    argmins[0] = row[8]
    record.snapshots.append(state)
    record.snapshot_steps.append(0)
    in_band = abs(row[3]) < cfg.breaking_eps
    positive = state.rho > 0.0

    for i in range(1, steps + 1):
        dt_i = dt if (uniform or i < steps) else cfg.t_end - (steps - 1) * dt
        # step i ends at i dt, the last one at t_end: a running sum of
        # steps would drift off both by round-off
        t_i = cfg.t_end if i == steps else i * dt
        prev = state
        state = _advance(grid, prev, mu, dt_i, ev, t_i)
        if not (np.isfinite(state.rho).all() and np.isfinite(state.rho_t).all() and math.isfinite(state.k0)):
            _trim(record, i)
            raise StepFailure(i, t_i, record)
        if cfg.projection:
            state = project(grid, state)
        times[i] = state.t
        ev = evaluate(grid, state, mu)
        row = _diagnostics_row(grid, state, ev, cfg.breaking_eps)
        cols[:, i] = row[:8]
        argmins[i] = row[8]

        now_positive = state.rho > 0.0
        flipped = now_positive != positive
        now_in_band = abs(row[3]) < cfg.breaking_eps
        if flipped.any() or (now_in_band and not in_band):
            crossed = np.flatnonzero(flipped)
            locs = crossed.tolist() if crossed.size else [int(argmins[i])]
            record.events.append(BreakingEvent(state.t, locs, row[3]))
        positive, in_band = now_positive, now_in_band

        if i % cfg.snapshot_stride == 0 or i == steps:
            record.snapshots.append(state)
            record.snapshot_steps.append(i)
    return record


def _trim(record, upto):
    s = record.series
    keep = slice(0, upto)
    record.series = TimeSeries(*(getattr(s, f)[keep] for f in s.__dataclass_fields__))


def detect_breaking(record: SimulationRecord) -> list[BreakingEvent]:
    """Re-derive events from the recorded minimum-of-rho series.

    Each event time is the end of the step across which min rho changed
    sign (or first entered the breaking_eps band), so it is bracketed by
    the adjacent series rows.  Locations carry the argmin node only, since
    the full sign pattern lives in snapshots, not the series.
    """
    s = record.series
    eps = record.config.breaking_eps
    out = []
    in_band = abs(s.min_rho[0]) < eps
    for i in range(1, len(s.t)):
        flipped = (s.min_rho[i - 1] > 0.0) != (s.min_rho[i] > 0.0)
        now_in = abs(s.min_rho[i]) < eps
        if flipped or (now_in and not in_band):
            out.append(BreakingEvent(float(s.t[i]), [int(s.argmin_rho[i])], float(s.min_rho[i])))
        in_band = now_in
    return out


def gronwall_check(record: SimulationRecord, safety: float = 0.5) -> tuple[bool, float]:
    """Lower-bound diagnostic for min(rho^2 + rho_t^2).

    The pointwise quantity decays no faster than exponentially with rate
    max over the run of 1 + field_gap / 2.  Returns (ok, worst margin),
    margin being the ratio of the observed minimum to safety times the
    certified floor; ok means every step held with the safety factor.
    """
    s = record.series
    rate = float(np.max(1.0 + 0.5 * s.field_gap))
    floor = safety * s.min_quad[0] * np.exp(-rate * s.t)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(floor > 0, s.min_quad / floor, np.inf)
    return bool(np.all(s.min_quad >= floor)), float(np.min(margins))
