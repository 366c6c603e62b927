"""Time steps on the sphere, with projection, diagnostics and breaking events.

The flow preserves the unit-sphere and tangency constraints exactly; the
integrator reasserts them after every accepted step by renormalising rho
and removing the radial component of rho_t (projection after each step,
Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4).  Each
accepted step also records a diagnostics row (energy, constraint defects,
minimum of rho, flat-set measure, mean-velocity check) plus the minimum of
rho^2 + rho_t^2 and the field gap max|vel^2 - press| used by the
lower-bound diagnostic.

Two steppers feed one recording loop.  With dt given, step i is one
classical RK4 step ending at i dt, the last one at t_end.  With dt unset,
the step size is error-controlled on Dormand & Prince's embedded 5(4)
pair (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5): a trial makes
five new evaluations, and its seventh, at the projected candidate, is the
next step's first (first same as last), so a step costs 6.  The embedded
fourth-order difference estimates the local error, and a trial whose
error exceeds STEP_TOL, or that goes non-finite, is retried with a
smaller step.  STEP_TOL is the largest value tried that keeps a peakon
pair's final state, snapshots and energy drift at n = 1024 as close to a
run at default_dt / 10 as RK4 step doubling at 1e-11 did.  The
right-hand side is bounded and the trajectories stay smooth through wave
breaking, so the step is limited by accuracy alone; a step the
controller shrinks below t_end / MAX_STEPS stops the run with
StepFailure instead of looping on.

Snapshots are the states at t = i dt for every snapshot_stride-th i and
at t_end, dt being the given step or, when unset, `default_dt`.  An
error-controlled run takes them from the cubic Hermite interpolant of the
accepted step that contains them.  The interpolant needs no further
evaluation: d rho/dt = rho_t, while d rho_t/dt and d k0/dt are the drho_t
and the offset of the evaluations at both ends of the step.

Wave breaking shows up as rho passing through zero at some labels.  That
is a regular event for this system, not a failure, and the run continues
through it.  Both steppers record one event per label and sign change,
timed at the root of that label's cubic Hermite interpolant inside the
step, so the events of a run do not depend on its steps.  The loop keeps
only each such label's rho and rho_t at both ends of the step; the roots
of the whole run are found together when it ends, or when it stops early.
A step in which min|rho| first dips under breaking_eps without a sign
change is an event at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid
from .lagrangian import LagrangianState, _rhs_arrays, energy, evaluate

# local error allowed per error-controlled step, relative to the state's
# largest entry (or to 1, whichever is larger)
STEP_TOL = 1.8e-11
# step-size factors of the controller: bounds per step, and the safety
# factor on the optimal step h (tol / err)^(1/5)
_GROW, _SHRINK, _SAFETY = 5.0, 0.2, 0.9
# Dormand & Prince's 5(4) pair: row i of _DP_A weighs stages 1 to i + 1
# into stage i + 2, its last row the fifth-order candidate, whose slope is
# stage 7; _DP_E is the fifth- minus the embedded fourth-order weights
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# no fixed-dt run takes more steps, and no error-controlled step is
# shorter than t_end / MAX_STEPS; the series take 80 bytes per step
MAX_STEPS = 10_000_000


@dataclass
class IntegratorConfig:
    dt: float | None = None
    t_end: float = 1.0
    projection: bool = True
    snapshot_stride: int = 100
    breaking_eps: float = 1e-6


@dataclass
class BreakingEvent:
    """One label's rho changing sign, at the root of its Hermite
    interpolant, or min|rho| first entering the breaking_eps band, at the
    end of the step with the argmin label; locations holds that label.
    min_rho is the minimum of rho at the end of the step."""

    time: float
    locations: list[int]
    min_rho: float


class StepLimitError(ValueError):
    """A run would take more than MAX_STEPS steps or snapshot points."""


class StepFailure(RuntimeError):
    """A step went non-finite or shrank below the floor; carries the progress so far."""

    def __init__(self, step: int, t: float, record: "SimulationRecord", reason: str = "non-finite state"):
        super().__init__(f"{reason} at step {step}, t = {t:.6g}")
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
    """What a run produced.

    dt is the snapshot spacing: the step of a fixed-step run, and
    dt_heuristic when the step was error-controlled (adaptive).
    """

    mu: float
    dt: float
    dt_heuristic: float
    config: IntegratorConfig
    series: TimeSeries | None = None
    snapshots: list[LagrangianState] = field(default_factory=list)
    snapshot_steps: list[int] = field(default_factory=list)
    events: list[BreakingEvent] = field(default_factory=list)
    steps_rejected: int = 0
    rhs_evaluations: int = 0

    @property
    def adaptive(self) -> bool:
        return self.config.dt is None

    @property
    def steps_accepted(self) -> int:
        return self.series.t.size - 1

    @property
    def energy0(self) -> float:
        return float(self.series.energy[0])

    @property
    def energy_drift(self) -> float:
        e0 = self.series.energy[0]
        return float(np.max(np.abs(self.series.energy - e0)) / abs(e0)) if e0 else 0.0


def default_dt(grid: PeriodicGrid, state: LagrangianState, mu: float) -> float:
    """Snapshot spacing 0.5 / (n * max(1, sqrt(energy))) of a run without
    a given dt, whose steps are error-controlled; the right-hand side is
    bounded and carries no grid stiffness, so no step needs to be this
    short."""
    e = energy(grid, state, mu)
    return 0.5 / (grid.n * max(1.0, math.sqrt(abs(e))))


def step_count(dt: float, t_end: float, name: str = "dt") -> tuple[int, bool]:
    """Steps of size dt to t_end, and whether they land on t_end exactly.

    When dt does not divide t_end the last step is shorter.  Raises
    ValueError for a dt or t_end no run accepts, and StepLimitError for
    more than MAX_STEPS steps; name is what the message calls dt.
    """
    if not (math.isfinite(dt) and dt > 0.0 and math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"dt must be finite and > 0 and t_end finite and >= 0, got {dt!r}, {t_end!r}")
    if t_end > MAX_STEPS * dt:
        raise StepLimitError(f"{name} = {dt!r} takes more than {MAX_STEPS} steps to t_end = {t_end!r}")
    steps = max(1, round(t_end / dt)) if t_end > 0 else 0
    uniform = abs(steps * dt - t_end) <= 1e-9 * max(1.0, t_end)
    if not uniform:
        steps = math.ceil(t_end / dt - 1e-12)
    return steps, uniform


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


def _grid_time(i, steps, dt, t_end):
    """Point i of the dt grid: i dt, and t_end for the last one.  A running
    sum of steps would drift off both by round-off."""
    return t_end if i == steps else i * dt


def _finite(state):
    return bool(np.isfinite(state.rho).all() and np.isfinite(state.rho_t).all() and math.isfinite(state.k0))


def _fixed_steps(grid, state, ev, mu, cfg, dt, steps, uniform, record):
    """Step i of size dt ends at point i of the dt grid.  Yields each
    step's (state, evaluation)."""
    for i in range(1, steps + 1):
        dt_i = dt if (uniform or i < steps) else cfg.t_end - (steps - 1) * dt
        t_i = _grid_time(i, steps, dt, cfg.t_end)
        state = _advance(grid, state, mu, dt_i, ev, t_i)
        if not _finite(state):
            raise StepFailure(i, t_i, record)
        if cfg.projection:
            state = project(grid, state)
        ev = evaluate(grid, state, mu)
        record.rhs_evaluations += 4
        yield state, ev


def _dp_trial(grid, state, mu, h, stage1, t):
    """A Dormand-Prince trial of length h to time t from the evaluation
    stage1 at state.  The slopes (drho, drho_t, dk0) are the rows of one
    stage stack, so each stage state and weighted sum is one product with
    it.  Returns the fifth-order candidate and the error estimate short of
    its seventh-stage term."""
    n = grid.n
    y = np.concatenate((state.rho, state.rho_t, (state.k0,)))
    stages = np.empty((6, 2 * n + 1))
    stages[0] = np.append(stage1.slope, stage1.offset)
    for i in range(1, 6):
        ys = y + (h * _DP_A[i - 1, :i]) @ stages[:i]
        stages[i, :n] = ys[n:-1]
        stages[i, -1] = _rhs_arrays(grid, ys[:n], ys[n:-1], mu, stages[i, n:-1])[0]
    new = y + (h * _DP_A[5]) @ stages
    return LagrangianState(new[:n], new[n:-1], float(new[-1]), t), (h * _DP_E[:6]) @ stages


def _adaptive_steps(grid, state, ev, mu, cfg, h, record):
    """Error-controlled Dormand-Prince steps from t = 0 to t_end, the first
    trial of length h.  Yields each accepted step's (state, evaluation)."""
    t_end = cfg.t_end
    floor = t_end / MAX_STEPS
    t, accepted = 0.0, 0
    finite = True
    while t < t_end:
        if h < floor:
            raise StepFailure(accepted + 1, t, record, f"step {h:.3g} below the floor {floor:.3g}"
                              + ("" if finite else " after a non-finite trial"))
        t_new = t_end if t + h >= t_end else t + h
        h_try = t_new - t
        new, part = _dp_trial(grid, state, mu, h_try, ev, t_new)
        record.rhs_evaluations += 5
        err = math.inf  # a non-finite trial is rejected like one with too large an error
        if _finite(new):
            new = project(grid, new) if cfg.projection else new
            new_ev = evaluate(grid, new, mu)
            record.rhs_evaluations += 1
            part += (h_try * _DP_E[6]) * np.append(new_ev.slope, new_ev.offset)
            size = max(1.0, float(np.abs(new.rho).max()), float(np.abs(new.rho_t).max()))
            err = float(np.abs(part).max()) / (STEP_TOL * size)
        finite = math.isfinite(err)
        if err <= 1.0:
            state, ev = new, new_ev
            t, accepted = t_new, accepted + 1
            yield state, ev
            h = h_try * (_GROW if err == 0.0 else min(_GROW, _SAFETY * err ** -0.2))
        else:
            record.steps_rejected += 1
            h = h_try * (max(_SHRINK, _SAFETY * err ** -0.2) if finite else _SHRINK)


def _hermite_weights(s, h):
    """Weights of (y_a, y_b, y'_a, y'_b) in the cubic Hermite interpolant
    at the fraction s of a step of length h."""
    wb = s * s * (3.0 - 2.0 * s)
    return 1.0 - wb, wb, h * s * (1.0 - s) ** 2, h * s * s * (s - 1.0)


def _dense_state(grid, a, ev_a, b, ev_b, t, projection):
    """State at time t inside the accepted step from a to b."""
    wa, wb, da, db = _hermite_weights((t - a.t) / (b.t - a.t), b.t - a.t)
    rho = wa * a.rho + wb * b.rho + da * ev_a.drho + db * ev_b.drho
    rho_t = wa * a.rho_t + wb * b.rho_t + da * ev_a.drho_t + db * ev_b.drho_t
    k0 = wa * a.k0 + wb * b.k0 + da * ev_a.offset + db * ev_b.offset
    mid = LagrangianState(rho, rho_t, k0, t)
    return project(grid, mid) if projection else mid


def _label_crossings(brackets):
    """The run's events, from its brackets in step order.

    A bracket (t_a, t_b, min_rho, labels, ends) holds the labels whose rho
    changed sign over the step from t_a to t_b, ends stacking their rho
    at t_a and t_b, then their rho_t at t_a and t_b.  Each is an event at
    the root of its Hermite interpolant, all brackets bisected together to
    round-off.  ends None marks a band entry, an event at t_b.  Events keep
    step order, and the labels of one step go by time.
    """
    crossing = [b for b in brackets if b[4] is not None]
    if crossing:
        ya, yb, ma, mb = np.concatenate([b[4] for b in crossing], axis=1)
        sizes = [len(b[3]) for b in crossing]
        t_a = np.repeat([b[0] for b in crossing], sizes)
        h = np.repeat([b[1] - b[0] for b in crossing], sizes)
        up = ya > 0.0
        lo, hi = np.zeros(ya.size), np.ones(ya.size)
        for _ in range(53):
            s = 0.5 * (lo + hi)
            wa, wb, da, db = _hermite_weights(s, h)
            same = (wa * ya + wb * yb + da * ma + db * mb > 0.0) == up
            lo = np.where(same, s, lo)
            hi = np.where(same, hi, s)
        times = t_a + 0.5 * (lo + hi) * h
    events, k = [], 0
    for _, t_b, min_rho, labels, ends in brackets:
        if ends is None:
            events.append(BreakingEvent(t_b, list(labels), min_rho))
            continue
        step_times = times[k:k + len(labels)]
        k += len(labels)
        events += [BreakingEvent(float(step_times[j]), [int(labels[j])], min_rho)
                   for j in np.argsort(step_times, kind="stable")]
    return events


class _Rows:
    """Diagnostics rows in preallocated columns, doubled when full."""

    def __init__(self, capacity):
        self.cols = np.zeros((9, capacity))  # t, then the eight float series
        self.argmin = np.zeros(capacity, dtype=int)
        self.size = 0

    def add(self, t, row):
        i = self.size
        if i == self.argmin.size:
            self.cols = np.concatenate((self.cols, np.zeros_like(self.cols)), axis=1)
            self.argmin = np.concatenate((self.argmin, np.zeros_like(self.argmin)))
        self.cols[0, i] = t
        self.cols[1:, i] = row[:8]
        self.argmin[i] = row[8]
        self.size = i + 1

    def series(self):
        k = self.size
        return TimeSeries(*self.cols[:, :k], self.argmin[:k])


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

    Steps are fixed at cfg.dt, or error-controlled when cfg.dt is None.
    Raises ValueError for a dt or t_end no run accepts (StepLimitError
    when the steps or snapshot points would exceed MAX_STEPS), and
    StepFailure (with the record so far attached) if a step goes
    non-finite or an error-controlled step shrinks below its floor;
    breaking is handled as a recorded event, never a failure.
    """
    heuristic = default_dt(grid, state, mu)
    adaptive = cfg.dt is None
    dt = heuristic if adaptive else cfg.dt
    steps, uniform = step_count(dt, cfg.t_end, "the snapshot spacing default_dt" if adaptive else "dt")

    if cfg.projection:
        state = project(grid, state)
    ev = evaluate(grid, state, mu)
    record = SimulationRecord(mu=mu, dt=dt, dt_heuristic=heuristic, config=cfg, rhs_evaluations=1)
    rows = _Rows(64 if adaptive else steps + 1)
    row = _diagnostics_row(grid, state, ev, cfg.breaking_eps)
    rows.add(0.0, row)
    record.snapshots.append(state)
    record.snapshot_steps.append(0)
    in_band = abs(row[3]) < cfg.breaking_eps
    positive = state.rho > 0.0
    brackets = []
    # next snapshot: every stride-th point of the dt grid, and the last
    snap = min(cfg.snapshot_stride, steps)
    snap_t = _grid_time(snap, steps, dt, cfg.t_end)

    if adaptive:
        stepper = _adaptive_steps(grid, state, ev, mu, cfg, heuristic, record)
    else:
        stepper = _fixed_steps(grid, state, ev, mu, cfg, dt, steps, uniform, record)
    try:
        for new, new_ev in stepper:
            row = _diagnostics_row(grid, new, new_ev, cfg.breaking_eps)
            rows.add(new.t, row)

            now_positive = new.rho > 0.0
            flipped = now_positive != positive
            now_in_band = abs(row[3]) < cfg.breaking_eps
            if flipped.any():
                crossed = np.flatnonzero(flipped)
                ends = np.stack((state.rho[crossed], new.rho[crossed], state.rho_t[crossed], new.rho_t[crossed]))
                brackets.append((state.t, new.t, row[3], crossed, ends))
            elif now_in_band and not in_band:
                brackets.append((state.t, new.t, row[3], [row[8]], None))
            in_band = now_in_band
            positive = now_positive

            while snap <= steps and snap_t <= new.t:
                record.snapshots.append(
                    new if snap_t == new.t else _dense_state(grid, state, ev, new, new_ev, snap_t, cfg.projection))
                record.snapshot_steps.append(snap)
                snap = steps + 1 if snap == steps else min(snap + cfg.snapshot_stride, steps)
                snap_t = _grid_time(snap, steps, dt, cfg.t_end)
            state, ev = new, new_ev
    finally:
        # a StepFailure carries the record with the rows and events so far
        record.series = rows.series()
        record.events = _label_crossings(brackets)
    return record


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
