import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rhosphere import (
    InitialSpec,
    IntegratorConfig,
    LagrangianState,
    PeriodicGrid,
    bump_test,
    energy,
    eulerian_velocity,
    evolve,
    flow_map,
    initial_state,
    make_initial,
    slope_field,
    smoothness_diagnostic,
    state_at,
    weak_residual,
)
from rhosphere.reconstruct import field_energy


@pytest.fixture(scope="module")
def peakon_record():
    # shared steep run crossing its breaking cascade, reused by the slower tests
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 256, p=2.0))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=4e-4, t_end=2.0, snapshot_stride=25))
    return grid, rec, mu


def flat_state(n=128):
    """A sphere state whose rho vanishes identically on a label interval
    around label 0, so that its flat run wraps past label n - 1."""
    grid = PeriodicGrid(n)
    d = np.abs((grid.x + 0.5) % 1.0 - 0.5)
    rho = np.where(d < 0.08, 0.0, np.sin(np.pi * np.clip((d - 0.08) / 0.2, 0.0, 1.0) / 2) ** 2)
    rho = rho / np.sqrt(grid.quad(rho * rho))
    return grid, LagrangianState(rho, np.zeros(n), 0.25, 0.0)


def test_flow_map_basic_shape():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.3))
    fmap = flow_map(grid, state)
    assert fmap.knots.size == 129
    # one full period of mass between the endpoints
    assert fmap.knots[-1] - fmap.knots[0] == pytest.approx(1.0, abs=1e-14)
    assert fmap.knots[0] == state.k0
    assert np.all(np.diff(fmap.knots) >= 0.0)


def test_flow_map_is_identity_at_start():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.3))
    fmap = flow_map(grid, state)
    probe = np.linspace(0.0, 1.0, 97)
    assert np.max(np.abs(fmap(probe) - probe)) < 1e-12


def test_invert_roundtrip_smooth():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.3))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.3))
    fmap = flow_map(grid, rec.snapshots[-1])
    y = np.linspace(0.0, 1.0, 211) % 1.0
    x = fmap.invert(y)
    assert np.max(np.abs((fmap(x) - y + 0.5) % 1.0 - 0.5)) < 1e-10


def test_flat_interval_detected_and_inverted_to_midpoint():
    grid, state = flat_state()
    fmap = flow_map(grid, state)
    # one run, straddling label 0: it starts below 1 and ends past it
    [(lo, hi)] = fmap.flat_intervals
    assert lo < 1.0 < hi
    # inverting the collapsed image point lands at the interval midpoint
    mid = 0.5 * (lo + hi)
    x_back = fmap.invert(fmap(np.array([mid])))
    assert abs((x_back[0] - mid + 0.5) % 1.0 - 0.5) < 1e-9


def _walked_intervals(flags, h):
    """Maximal circular runs of flagged labels, found label by label."""
    n = flags.size
    runs = []
    for a in range(n):
        if flags[a] and not flags[a - 1]:
            b = a
            while flags[(b + 1) % n]:
                b += 1
            runs.append((a * h, b * h))
    return runs


def test_flat_intervals_match_a_walk_over_labels():
    rng = np.random.default_rng(7)
    seen = {"single": 0, "several": 0, "wrapping": 0}
    for _ in range(400):
        n = int(rng.choice([16, 64, 256]))
        grid = PeriodicGrid(n)
        rho = 0.5 + rng.random(n)
        for _ in range(int(rng.integers(0, 5))):
            start, length = rng.integers(0, n), rng.integers(1, n // 4)
            rho[np.arange(start, start + length) % n] = 0.0
        fmap = flow_map(grid, LagrangianState(rho, np.zeros(n), 0.25, 0.0))
        assert fmap.flat_intervals == _walked_intervals(rho == 0.0, grid.h)
        for lo, hi in fmap.flat_intervals:
            # each run's collapsed image goes back to its midpoint, mod 1
            mid = 0.5 * (lo + hi)
            x_back = fmap.invert(fmap(np.array([mid % 1.0])))
            assert abs((x_back[0] - mid + 0.5) % 1.0 - 0.5) < 1e-12
        seen["single"] += any(lo == hi for lo, hi in fmap.flat_intervals)
        seen["several"] += len(fmap.flat_intervals) > 1
        seen["wrapping"] += any(hi >= 1.0 for lo, hi in fmap.flat_intervals)
    assert min(seen.values()) >= 20, seen


def test_velocity_constant_on_flat_interval():
    # the transport field cannot vary across labels that occupy one point
    grid, state = flat_state()
    mu = 0.1
    from rhosphere import lagrangian_velocity

    vel = lagrangian_velocity(grid, state, mu)
    lo, hi = flow_map(grid, state).flat_intervals[0]
    past_lo = (grid.x - lo) % 1.0
    sel = (past_lo > 1e-9) & (past_lo < hi - lo - 1e-9)
    spread = np.ptp(vel[sel])
    assert spread < 1e-7


def test_eulerian_velocity_recovers_initial_profile():
    spec = InitialSpec("sine", 256, amplitude=0.1)
    grid, state, mu = initial_state(spec)
    u0, u0x, _ = make_initial(spec)
    fld = eulerian_velocity(grid, state, mu, m=256)
    assert np.max(np.abs(fld.u - u0)) < 1e-12
    assert np.max(np.abs(fld.ux - u0x)) < 1e-10
    assert fld.valid_ux.all()


def test_eulerian_velocity_off_grid_second_order():
    errs = []
    for n in (128, 256):
        spec = InitialSpec("sine", n, amplitude=0.1)
        grid, state, mu = initial_state(spec)
        fld = eulerian_velocity(grid, state, mu, m=4 * n)
        y = np.arange(4 * n) / (4 * n)
        errs.append(np.max(np.abs(fld.u - 0.1 * np.sin(2 * np.pi * y))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] < 1e-5


def test_field_energy_dual_evaluation_converges():
    # sampled-field energy vs the conserved label-space quadrature, frozen
    expect = {128: 2.64e-4, 256: 6.79e-5, 512: 1.72e-5}
    for n, err in expect.items():
        grid, state, mu = initial_state(InitialSpec("sine", n, amplitude=0.2))
        rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.4, snapshot_stride=100))
        st = rec.snapshots[-1]
        e_lab = energy(grid, st, mu)
        got = abs(field_energy(eulerian_velocity(grid, st, mu, m=n)) - e_lab) / e_lab
        assert got < 1.2 * err


def test_field_energy_skips_clamped_nodes(peakon_record):
    grid, rec, mu = peakon_record
    st = state_at(rec, 1.9)  # deep in the cascade
    fld = eulerian_velocity(grid, st, mu, m=256)
    e_masked = field_energy(fld)
    assert np.isfinite(e_masked)
    e0 = energy(grid, rec.snapshots[0], mu)
    # the sampled absolutely continuous part stays within a factor of the
    # conserved total
    assert 0.1 * e0 < e_masked < 10.0 * e0


def test_state_at_endpoints_and_interior():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.2, snapshot_stride=5))
    s0 = state_at(rec, rec.snapshots[0].t)
    assert_allclose(s0.rho, rec.snapshots[0].rho, rtol=0, atol=0)
    mid_t = 0.5 * (rec.snapshots[0].t + rec.snapshots[1].t)
    sm = state_at(rec, mid_t)
    assert sm.t == pytest.approx(mid_t)
    # interpolated states stay on the sphere (projection after blending)
    assert abs(grid.quad(sm.rho**2) - 1.0) < 1e-14
    assert abs(grid.quad(sm.rho * sm.rho_t)) < 1e-14
    with pytest.raises(ValueError):
        state_at(rec, -1.0)
    with pytest.raises(ValueError):
        state_at(rec, 99.0)


def test_a_record_without_snapshots_is_a_value_error():
    # its snapshots went to evolve's on_snapshot callback
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.5), on_snapshot=lambda snap, step: None)
    with pytest.raises(ValueError, match="keeps no snapshots"):
        state_at(rec, 0.25)
    with pytest.raises(ValueError, match="keeps no snapshots"):
        weak_residual(rec, mu, bump_test(center=0.5, width=0.2, t0=0.1, t1=0.4), m=64)


def test_state_at_matches_a_stride_1_run_at_mid_times():
    # Hermite between snapshots 10 steps apart, against the stored steps
    # half-way between them, through the edge breaking (t ~ 1.26) and the
    # collision (t ~ 1.6); measured 8.3e-12, where blending linearly and
    # projecting gave 2.8e-6
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 512, p=2.0))
    coarse = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=2.0, snapshot_stride=10))
    fine = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=2.0, snapshot_stride=1))
    worst = 0.0
    for ref in fine.snapshots[5::10]:
        got = state_at(coarse, ref.t)
        assert got.t == ref.t
        worst = max(worst, float(np.abs(got.rho - ref.rho).max()),
                    float(np.abs(got.rho_t - ref.rho_t).max()), abs(got.k0 - ref.k0))
    assert worst <= 1e-9


def test_state_at_emits_no_tangency_warning(peakon_record):
    grid, rec, mu = peakon_record
    from rhosphere import lagrangian_velocity

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = state_at(rec, 1.333)
        lagrangian_velocity(grid, st, mu)


def test_weak_residual_constant_profile():
    grid, state, mu = initial_state(InitialSpec("constant", 64, value=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0, snapshot_stride=100))
    phi = bump_test(center=0.3, width=0.2, t0=0.2, t1=0.8)
    # the floor is the spatial quadrature of the bump, super-algebraic in m
    r_coarse = abs(weak_residual(rec, mu, phi, m=256, times=32))
    r_fine = abs(weak_residual(rec, mu, phi, m=512, times=32))
    assert r_fine < 5e-11
    assert r_coarse / r_fine > 1e3


def test_weak_residual_routes_agree_before_breaking():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.6, snapshot_stride=30))
    phi = bump_test(center=0.6, width=0.25, t0=0.1, t1=0.5)
    rh = weak_residual(rec, mu, phi, m=128, times=16)
    rl = weak_residual(rec, mu, phi, m=128, times=16, route="label")
    assert abs(rh) < 1e-4
    assert abs(rh - rl) < 1e-5


def test_weak_residual_label_route_takes_both_fields_from_one_pair(peakon_record, monkeypatch):
    # bit for bit what lagrangian_velocity and kernel_fields gave, on a run
    # through breaking
    from rhosphere import kernel_fields, lagrangian_velocity, reconstruct

    def two_calls(grid, state, mu):
        vel = lagrangian_velocity(grid, state, mu)
        return vel, kernel_fields(grid, state, vel)[1]

    grid, rec, mu = peakon_record
    phi = bump_test(center=0.45, width=0.2, t0=0.6, t1=1.9)
    one = weak_residual(rec, mu, phi, m=256, times=12, route="label")
    monkeypatch.setattr(reconstruct, "velocity_and_gradient", two_calls)
    assert one == weak_residual(rec, mu, phi, m=256, times=12, route="label")


def test_weak_residual_symmetric_test_function_annihilates(peakon_record):
    # the pair solution stays odd about the collision point, so any test
    # function even about it integrates the residual to zero identically
    grid, rec, mu = peakon_record
    phi = bump_test(center=0.5, width=0.2, t0=1.3, t1=1.9)
    r = weak_residual(rec, mu, phi, m=256, times=24, route="label")
    assert abs(r) < 1e-10


def test_weak_residual_rejects_bad_window():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.5))
    late = bump_test(center=0.5, width=0.2, t0=0.2, t1=0.9)
    with pytest.raises(ValueError):
        weak_residual(rec, mu, late, m=64)
    negative = bump_test(center=0.5, width=0.2, t0=-0.1, t1=0.3)
    with pytest.raises(ValueError):
        weak_residual(rec, mu, negative, m=64)


@pytest.mark.parametrize("times", [0, -1, -2])
def test_weak_residual_rejects_times_below_one(times):
    # with no sample the sum would read as a vanishing residual, and the
    # time step (t1 - t0) / (times + 1) divides by zero or changes sign
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.5))
    phi = bump_test(center=0.5, width=0.2, t0=0.1, t1=0.4)
    for route in ("helmholtz", "label"):
        with pytest.raises(ValueError, match="times"):
            weak_residual(rec, mu, phi, m=64, times=times, route=route)


def test_weak_residual_rejects_nonperiodic_test_function():
    from rhosphere.reconstruct import TestFunction as SpaceTimeBump

    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.5))
    ramp = SpaceTimeBump(t0=0.1, t1=0.4,
                        phi=lambda y, t: y * (0.4 - t) * (t - 0.1),
                        phi_t=lambda y, t: y * (0.5 - 2 * t),
                        phi_x=lambda y, t: np.full_like(y, (0.4 - t) * (t - 0.1)))
    with pytest.raises(ValueError):
        weak_residual(rec, mu, ramp, m=64)


def test_bump_test_support_and_derivatives():
    # width is the support radius around the center
    phi = bump_test(center=0.4, width=0.2, t0=1.0, t1=2.0)
    y = np.linspace(0.0, 1.0, 401)
    t = 1.5
    vals = phi.phi(y, t)
    assert np.all(vals[np.abs(y - 0.4) >= 0.2] == 0.0)
    assert vals.max() > 0.0
    # spatial derivative against central differences
    h = 1e-6
    fd = (phi.phi(y + h, t) - phi.phi(y - h, t)) / (2 * h)
    assert np.max(np.abs(phi.phi_x(y, t) - fd)) < 1e-5
    fd_t = (phi.phi(y, t + h) - phi.phi(y, t - h)) / (2 * h)
    assert np.max(np.abs(phi.phi_t(y, t) - fd_t)) < 1e-5
    # vanishes at the time edges
    assert np.all(phi.phi(y, 1.0) == 0.0)
    assert np.all(phi.phi(y, 2.0) == 0.0)


def test_smoothness_diagnostic_identity_map():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.3))
    # identity map deviation is exactly zero, reported as infinite smoothness
    assert smoothness_diagnostic(flow_map(grid, state)) == np.inf


def test_smoothness_diagnostic_contrast(peakon_record):
    # a smooth evolved map decays fast; the kinked pair map decays slowly
    grid_s, state_s, mu_s = initial_state(InitialSpec("sine", 256, amplitude=0.2))
    rec_s = evolve(grid_s, state_s, mu_s, IntegratorConfig(dt=1e-3, t_end=0.5, snapshot_stride=100))
    rate_smooth = smoothness_diagnostic(flow_map(grid_s, rec_s.snapshots[-1]))
    grid_p, rec_p, mu_p = peakon_record
    rate_kinked = smoothness_diagnostic(flow_map(grid_p, state_at(rec_p, 0.8)))
    assert rate_smooth > 6.0
    assert rate_kinked < 3.0


def test_slope_field_flags_breaking_nodes(peakon_record):
    grid, rec, mu = peakon_record
    # pick the snapshot nearest the first sign change
    t_ev = rec.events[0].time
    snap = min(rec.snapshots, key=lambda s: abs(s.t - t_ev))
    slopes, ok = slope_field(snap)
    assert np.isfinite(slopes).all()
    assert ok.dtype == bool
