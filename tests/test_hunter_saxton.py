"""The time integrator against an exact solution: Hunter-Saxton great circles.

In rho = sqrt(eta_x) the periodic Hunter-Saxton flow is the geodesic flow
of the unit L2 sphere, rho_tt = -quad(rho_t^2) rho.  From a state on the
sphere with rho_t tangent to it, the solution is the great circle

    rho(t) = cos(w t) rho_0 + sin(w t) rho_t0 / w,   w^2 = quad(rho_t0^2),

on the grid as well, so every error below is the time integrator's own.
Label j changes sign where w t = phi_j + pi/2 + k pi, with
phi_j = atan2(rho_t0[j] / w, rho_0[j]).

The tests replace the one seam both steppers and `evaluate` share,
`_rhs_arrays`, by this field: drho_t = -quad(rho_t^2) rho, vel = 0,
offset 0.  With vel = 0 the diagnostics row's energy reads
4 quad(rho_t^2), which the flow conserves.  The probe is the n = 256 sine
lift, w = pi / sqrt(2), to t = 3: two crossings at each of the 256 labels.
"""

import contextlib
import io
import math

import numpy as np
import pytest

import rhosphere.integrate as integrate
import rhosphere.lagrangian as lagrangian
from rhosphere import InitialSpec, IntegratorConfig, evolve, initial_state
from rhosphere.cli import _simulate_to
from rhosphere.config import RunConfig
from rhosphere.integrate import project
from rhosphere.reconstruct import state_at

N, T_END = 256, 3.0


def great_circle_rhs(grid, rho, rho_t, mu, out):
    """The Hunter-Saxton field in `_rhs_arrays`' shape: (offset, vel,
    press, gap, rho2, source, alpha, flux), source stacking w over rho_t2,
    and drho_t = rho gap / 2 in out."""
    rho2 = rho * rho
    rho_t2 = rho_t * rho_t
    q = float(rho_t2.sum()) * grid._inv_n
    np.multiply(rho, -q, out=out)
    gap = np.full(grid.n, -2.0 * q)
    return (0.0, np.zeros(grid.n), -gap, gap, rho2, np.stack((2.0 * rho_t2, rho_t2)),
            float(rho2.sum()) * grid._inv_n, 2.0 * float(np.dot(rho, rho_t)) * grid._inv_n)


@pytest.fixture
def great_circle(monkeypatch):
    monkeypatch.setattr(integrate, "_rhs_arrays", great_circle_rhs)
    monkeypatch.setattr(lagrangian, "_rhs_arrays", great_circle_rhs)
    grid, state, mu = initial_state(InitialSpec("sine", N))
    start = project(grid, state)
    w = math.sqrt(grid.quad(start.rho_t ** 2))
    assert w == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)

    def exact(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return c * start.rho + (s / w) * start.rho_t, -w * s * start.rho + c * start.rho_t

    phi = np.arctan2(start.rho_t / w, start.rho)
    crossings = {}
    for j in range(N):
        k = np.arange(-1, 4)
        t = (phi[j] + 0.5 * math.pi + k * math.pi) / w
        crossings[j] = t[(t > 0.0) & (t <= T_END)].tolist()
    assert sum(map(len, crossings.values())) == 512
    return grid, state, mu, w, exact, crossings


def gap_to(exact, state):
    rho, rho_t = exact(state.t)
    return max(float(np.abs(state.rho - rho).max()), float(np.abs(state.rho_t - rho_t).max()))


def event_error(record, crossings):
    """Largest event-time error; the (label, crossing) pairs must be exactly the exact ones."""
    found = {}
    for event in record.events:
        (label,) = event.locations
        found.setdefault(label, []).append(event.time)
    assert found.keys() == crossings.keys()
    assert all(len(found[j]) == len(crossings[j]) for j in crossings)
    return max(abs(a - b) for j in crossings for a, b in zip(sorted(found[j]), crossings[j]))


# measured final-state, snapshot and event-time errors and energy drift:
# error-controlled 3.3e-11, 8.5e-10 (its dense output), 4.3e-12, 8.0e-12;
# RK4 at dt = 4e-3, 1e-3 and 2.5e-4: 1.1e-9, 4.3e-12 and 6.8e-14
# (snapshots the same), events 1.3e-10, 5.1e-13 and 6.7e-15, drift 1.0e-11,
# 1.1e-14 and 2.9e-15
@pytest.mark.parametrize("dt,final_max,snap_max,event_max,drift_max", [
    (None, 1e-10, 2.5e-9, 1.5e-11, 2.5e-11),
    (4e-3, 3e-9, 3e-9, 4e-10, 3e-11),
    (1e-3, 1.5e-11, 1.5e-11, 1.5e-12, 4e-14),
    (2.5e-4, 2.5e-13, 2.5e-13, 3e-14, 1e-14),
], ids=["adaptive", "rk4_4e-3", "rk4_1e-3", "rk4_2.5e-4"])
def test_steps_follow_the_great_circle(great_circle, dt, final_max, snap_max, event_max, drift_max):
    grid, state, mu, w, exact, crossings = great_circle
    record = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=T_END, snapshot_stride=10))
    final = record.snapshots[-1]
    assert final.t == T_END
    assert gap_to(exact, final) <= final_max
    assert max(gap_to(exact, s) for s in record.snapshots) <= snap_max
    assert event_error(record, crossings) <= event_max
    # the diagnostics' energy is 4 w^2, conserved up to the step's error
    assert record.energy0 == pytest.approx(4.0 * w * w, rel=1e-14)
    assert record.energy_drift <= drift_max
    if dt is None:
        # STEP_TOL bounds the local error per unit time, relative to the
        # state's largest entry (measured 402 steps, 2413 evaluations)
        size = max(1.0, max(max(np.abs(s.rho).max(), np.abs(s.rho_t).max()) for s in record.snapshots))
        assert gap_to(exact, final) <= integrate.STEP_TOL * T_END * size
        assert record.steps_accepted <= 450


def test_rk4_is_fourth_order_on_the_great_circle(great_circle):
    grid, state, mu, _, exact, _ = great_circle
    errors = [gap_to(exact, evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=T_END)).snapshots[-1])
              for dt in (4e-3, 2e-3)]
    assert 12.0 < errors[0] / errors[1] < 20.0


def test_state_at_does_not_depend_on_the_snapshot_stride(great_circle):
    # measured: 8.0e-10 and 7.1e-10 off the circle at strides 1 and 10, and
    # 6.2e-10 apart (both near the dense-output error of the snapshots);
    # at stride 100 the interpolant between snapshots 0.043 apart adds its
    # own h^4 error, 8.3e-7
    grid, state, mu, _, exact, _ = great_circle
    records = [evolve(grid, state, mu, IntegratorConfig(t_end=T_END, snapshot_stride=s)) for s in (1, 10)]
    for t in np.linspace(0.013, 2.987, 37):
        a, b = (state_at(r, t) for r in records)
        assert a.t == b.t == t
        assert gap_to(exact, a) <= 2.5e-9 and gap_to(exact, b) <= 2.5e-9
        assert max(float(np.abs(a.rho - b.rho).max()), float(np.abs(a.rho_t - b.rho_t).max())) <= 2e-9


def test_streamed_snapshot_files_follow_the_great_circle(great_circle, tmp_path):
    # the writer child is forked with the field replaced
    _, _, _, _, exact, _ = great_circle
    cfg = RunConfig({"grid.n": N, "initial.kind": "sine", "run.t_end": T_END})
    with contextlib.redirect_stdout(io.StringIO()):
        code, record, _ = _simulate_to(cfg, tmp_path / "run", True)
    assert code == 0 and record.snapshots == []
    files = sorted((tmp_path / "run" / "snapshots").glob("snap_*.csv"))
    assert len(files) == 71  # every 100th point of the default_dt grid, and the last
    for path in files:
        step = int(path.stem.split("_")[1])
        t = T_END if path == files[-1] else step * record.dt
        columns = np.loadtxt(path, delimiter=",", skiprows=1)
        rho, rho_t = exact(t)
        assert np.abs(columns[:, 1] - rho).max() <= 2.5e-9
        assert np.abs(columns[:, 2] - rho_t).max() <= 2.5e-9
