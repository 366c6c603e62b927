import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rhosphere import (
    InitialSpec,
    IntegratorConfig,
    LagrangianState,
    PeriodicGrid,
    StepFailure,
    default_dt,
    detect_breaking,
    energy,
    evolve,
    gronwall_check,
    initial_state,
    lagrangian_velocity,
    pressure,
    project,
    rk4_step,
)
from rhosphere.validate import random_state


def test_constant_data_is_a_fixed_point():
    # a constant profile rides along: rho stays exactly 1 and the base point
    # advances linearly at the wave speed
    grid, state, mu = initial_state(InitialSpec("constant", 64, value=0.3))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0))
    last = rec.snapshots[-1]
    assert np.max(np.abs(last.rho - 1.0)) < 1e-13
    assert np.max(np.abs(last.rho_t)) < 1e-15
    assert last.k0 == pytest.approx(0.3, abs=1e-12)
    assert rec.events == []


def test_default_dt_scales_inversely_with_n():
    g1, s1, m1 = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    g2, s2, m2 = initial_state(InitialSpec("sine", 128, amplitude=0.5))
    d1, d2 = default_dt(g1, s1, m1), default_dt(g2, s2, m2)
    assert d1 > 0
    assert_allclose(d1 / d2, 2.0, rtol=1e-12)


def test_evolve_uses_heuristic_when_dt_omitted():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(t_end=0.01))
    assert rec.dt == pytest.approx(rec.dt_heuristic)
    assert rec.dt <= default_dt(grid, state, mu)


def test_step_convergence_is_fourth_order():
    # halving the step against a dt/32 reference; asymptotic factor is 16
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.003125):
        grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
        rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=0.4, projection=False))
        errs.append(rec.snapshots[-1].rho)
    e = [np.max(np.abs(r - errs[-1])) for r in errs[:-1]]
    assert e[0] / e[1] > 8.0
    assert e[1] / e[2] > 8.0
    assert e[0] / e[2] > 100.0


def test_energy_conservation_smooth_run():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0))
    assert rec.energy_drift < 1e-10


def test_constraints_tracked_along_run():
    grid, state, mu = initial_state(InitialSpec("fourier", 128, mean=0.1,
                                                cos_coeffs=(0.2,), sin_coeffs=(0.1, 0.05)))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.5))
    assert np.max(rec.series.sphere_defect) < 1e-13
    assert np.max(rec.series.tangency_defect) < 1e-13
    assert np.max(np.abs(rec.series.mu_check - mu)) < 1e-12


def test_snapshot_cadence():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.25, snapshot_stride=5))
    assert rec.snapshot_steps[0] == 0
    assert rec.snapshot_steps[-1] == 25
    assert rec.snapshot_steps[:3] == [0, 5, 10]
    for step, snap in zip(rec.snapshot_steps, rec.snapshots):
        assert snap.t == pytest.approx(rec.series.t[step])


@pytest.mark.parametrize("dt,t_end", [(1e-2, 0.1), (0.03, 0.1), (1e-3, 0.5)])
def test_evolve_ends_exactly_at_t_end(dt, t_end):
    # step i ends at i dt and the last step at t_end itself; summing the
    # steps ended the (1e-2, 0.1) run at 0.09999999999999999
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=t_end))
    assert rec.series.t[-1] == t_end
    assert rec.snapshots[-1].t == t_end
    assert np.array_equal(rec.series.t[:-1], np.arange(rec.series.t.size - 1) * dt)


def test_first_breaking_event_peakon_frozen():
    # steep antisymmetric pair; the first sign change of rho shows up just
    # inside the crests, at a time stable under grid refinement
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 256, p=2.0))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=4e-4, t_end=1.35))
    assert rec.events, "expected a breaking event by t = 1.35"
    ev = rec.events[0]
    assert ev.time == pytest.approx(1.264, abs=2e-3)
    assert sorted(ev.locations) == [65, 191]
    assert rec.energy_drift < 1e-5
    ok, margin = gronwall_check(rec)
    assert ok
    assert margin >= 1.0


def test_detect_breaking_rebuilds_event_list():
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 256, p=2.0))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=4e-4, t_end=1.35))
    rebuilt = detect_breaking(rec)
    assert [e.time for e in rebuilt] == [e.time for e in rec.events]
    assert [e.min_rho for e in rebuilt] == [e.min_rho for e in rec.events]


def test_step_failure_carries_partial_record():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as exc:
        evolve(grid, state, mu, IntegratorConfig(dt=50.0, t_end=500.0))
    rec = exc.value.record
    assert rec.series.t.size >= 1
    assert np.isfinite(rec.series.energy[0])


def test_project_restores_constraints():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(17)
    state = random_state(grid, rng)
    dirty = LagrangianState(state.rho * 1.01, state.rho_t + 0.05 * state.rho, 0.7, 1.5)
    clean = project(grid, dirty)
    assert abs(grid.quad(clean.rho**2) - 1.0) < 1e-14
    assert abs(grid.quad(clean.rho * clean.rho_t)) < 1e-15
    assert clean.k0 == dirty.k0
    assert clean.t == dirty.t


def test_project_rejects_zero_state():
    grid = PeriodicGrid(32)
    with pytest.raises(ValueError):
        project(grid, LagrangianState(np.zeros(32), np.zeros(32), 0.0, 0.0))


def test_rk4_step_matches_evolve_single_step():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.4))
    one = rk4_step(grid, state, mu, 1e-3)
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1e-3, projection=False))
    assert_allclose(one.rho, rec.snapshots[-1].rho, rtol=0, atol=1e-15)
    assert_allclose(one.rho_t, rec.snapshots[-1].rho_t, rtol=0, atol=1e-15)
    assert one.t == pytest.approx(1e-3)


def _reference_rk4(grid, state, mu, dt, steps):
    """Projected RK4 built from the public field routes with the dense kernel.

    Returns the final state and the energy after every step.
    """
    def slope(st):
        vel = lagrangian_velocity(grid, st, mu)
        press = pressure(grid, st, vel, mode="direct")
        # vel is anchored at the base point, so vel[0] is the offset
        return st.rho_t, 0.5 * st.rho * (vel**2 - press), vel[0]

    def shifted(st, h, k):
        return LagrangianState(st.rho + h * k[0], st.rho_t + h * k[1], st.k0 + h * k[2], st.t + h)

    state = project(grid, state)
    energies = [energy(grid, state, mu)]
    with warnings.catch_warnings():
        # the stage states sit O(dt^2) off the tangent space
        warnings.filterwarnings("ignore", message="tangency defect")
        for _ in range(steps):
            k1 = slope(state)
            k2 = slope(shifted(state, 0.5 * dt, k1))
            k3 = slope(shifted(state, 0.5 * dt, k2))
            k4 = slope(shifted(state, dt, k3))
            d = [(a + 2.0 * b + 2.0 * c + e) * (dt / 6.0) for a, b, c, e in zip(k1, k2, k3, k4)]
            state = project(grid, LagrangianState(state.rho + d[0], state.rho_t + d[1],
                                                  state.k0 + d[2], state.t + dt))
            energies.append(energy(grid, state, mu))
    return state, np.array(energies)


@pytest.mark.parametrize("spec", [
    InitialSpec("sine", 64, amplitude=1.0),
    InitialSpec("fourier", 64, mean=0.1, cos_coeffs=(0.3, 0.0, 0.1), sin_coeffs=(0.2, 0.15)),
], ids=["sine", "fourier"])
def test_evolve_matches_reference_rk4_over_many_steps(spec):
    # the stepper's fused stages, regrouped kernel and reused buffers against
    # a plain loop over independent routes; measured gap below 1e-14
    grid, state, mu = initial_state(spec)
    dt, steps = 1e-3, 200
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=steps * dt, snapshot_stride=steps))
    ref, energies = _reference_rk4(grid, state, mu, dt, steps)
    last = rec.snapshots[-1]
    assert rec.snapshot_steps[-1] == steps
    assert_allclose(last.rho, ref.rho, rtol=0, atol=1e-12)
    assert_allclose(last.rho_t, ref.rho_t, rtol=0, atol=1e-12)
    assert abs(last.k0 - ref.k0) <= 1e-12
    assert_allclose(rec.series.energy, energies, rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_project_is_idempotent(seed):
    grid = PeriodicGrid(32)
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.2 * rng.standard_normal(32)
    rho_t = 0.3 * rng.standard_normal(32)
    once = project(grid, LagrangianState(rho, rho_t, 0.0, 0.0))
    twice = project(grid, once)
    assert np.max(np.abs(once.rho - twice.rho)) < 1e-14
    assert np.max(np.abs(once.rho_t - twice.rho_t)) < 1e-14
