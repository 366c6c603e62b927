import numpy as np
import pytest
from numpy.testing import assert_allclose

from rhosphere import (
    InitialSpec,
    IntegratorConfig,
    PeriodicGrid,
    compare,
    eulerian_evolve,
    eulerian_rhs,
    evolve,
    initial_state,
    make_initial,
    profile_distance,
    resample_profile,
    sample_trajectory,
)
from rhosphere.integrate import StepLimitError


def fd_rhs(u, h):
    """Same momentum balance, assembled with second-order machinery only.

    Centered differences for both derivatives and the exact finite
    difference symbol 1 + (2 - 2 cos(2 pi k h)) / h^2 for the screened
    inverse, so it shares no discretization choices with the spectral
    right-hand side.
    """
    n = u.size
    ux = (np.roll(u, -1) - np.roll(u, 1)) / (2 * h)
    src = u * u + 0.5 * ux * ux
    k = np.arange(n // 2 + 1)
    sym = 1.0 + (2.0 - 2.0 * np.cos(2 * np.pi * k * h)) / h**2
    p = np.fft.irfft(np.fft.rfft(src) / sym, n)
    px = (np.roll(p, -1) - np.roll(p, 1)) / (2 * h)
    return -u * ux - px


def reference_rk4(u0, dt, steps, dealias=True, slope_cap=np.inf):
    """Plain physical-space RK4 on the public right-hand side, every step kept.

    Returns the states and the step at which max|u_x| first passed
    slope_cap (None if it never did), the state of that step excluded.
    """
    g = PeriodicGrid(u0.size)
    u = np.asarray(u0, dtype=float).copy()
    states = [u]
    for i in range(1, steps + 1):
        k1 = eulerian_rhs(g, u, dealias)
        k2 = eulerian_rhs(g, u + 0.5 * dt * k1, dealias)
        k3 = eulerian_rhs(g, u + 0.5 * dt * k2, dealias)
        k4 = eulerian_rhs(g, u + dt * k3, dealias)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.max(np.abs(g.deriv(u))) > slope_cap:
            return states, i
        states.append(u)
    return states, None


def low_mode_profile(n, seed=11, modes=3):
    g = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    u = np.zeros(n)
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2)
        u += (0.1 / k**2) * (a * np.cos(2 * np.pi * k * g.x) + b * np.sin(2 * np.pi * k * g.x))
    return g, u


def test_rhs_closed_form_single_mode():
    # u = a sin(2 pi x) pushes all quadratic terms onto the doubled mode
    n, a = 64, 0.3
    g = PeriodicGrid(n)
    u = a * np.sin(2 * np.pi * g.x)
    s4 = np.sin(4 * np.pi * g.x)
    expect = -np.pi * a**2 * s4 + 4 * np.pi * a**2 * (np.pi**2 - 0.5) * s4 / (1 + 16 * np.pi**2)
    assert np.max(np.abs(eulerian_rhs(g, u) - expect)) < 1e-14


def test_rhs_mean_is_conserved_instantaneously():
    g, u = low_mode_profile(128)
    u = u + 0.2  # nonzero mean rides along
    assert abs(g.quad(eulerian_rhs(g, u))) < 1e-15


def test_rhs_against_finite_difference_scheme():
    # dual-scheme agreement at second order, values frozen once
    expect = [1.6865e-4, 4.2191e-5, 1.0550e-5]
    errs = []
    for n in (128, 256, 512):
        g, u = low_mode_profile(n)
        errs.append(float(np.max(np.abs(eulerian_rhs(g, u) - fd_rhs(u, g.h)))))
    for got, ref in zip(errs, expect):
        assert got == pytest.approx(ref, rel=0.05)
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.1)


def test_rhs_dealias_matches_fine_grid_on_low_modes():
    g, u = low_mode_profile(128)
    fine = PeriodicGrid(512)
    u_fine = resample_profile(u, 512)
    down = resample_profile(eulerian_rhs(fine, u_fine), 128)
    assert np.max(np.abs(eulerian_rhs(g, u) - down)) < 1e-12


def test_evolve_smooth_run_completes():
    g, u = low_mode_profile(128)
    traj = eulerian_evolve(u, dt=1e-3, t_end=0.5, snapshot_stride=50)
    assert not traj.blowup
    assert traj.blowup_time is None
    assert traj.times[-1] == pytest.approx(0.5)
    assert len(traj.states) == traj.times.size
    # mean is a conserved quantity of the flow
    means = [g.quad(s) for s in traj.states]
    assert np.max(np.abs(np.array(means) - means[0])) < 1e-12


def test_evolve_detects_slope_blowup():
    spec = InitialSpec("peakon_pair", 256, p=2.0)
    u0, _, _ = make_initial(spec)
    traj = eulerian_evolve(u0, dt=2e-4, t_end=2.0, slope_cap=8.0)
    assert traj.blowup
    assert 1.0 < traj.blowup_time < 1.6
    assert traj.times[-1] <= traj.blowup_time
    assert np.all(traj.slope_max <= 8.0)
    # the cap fires at the same step as in a physical-space RK4 loop
    _, stop = reference_rk4(u0, 2e-4, 10000, slope_cap=8.0)
    assert traj.blowup_time == stop * 2e-4


@pytest.mark.parametrize("dealias,tol", [(True, 1e-12), (False, 1e-10)])
def test_evolve_matches_physical_space_rk4(dealias, tol):
    _, u = low_mode_profile(128)
    traj = eulerian_evolve(u, dt=1e-3, t_end=0.3, snapshot_stride=20, dealias=dealias)
    ref, _ = reference_rk4(u, 1e-3, 300, dealias)
    assert traj.times.size == 16
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state - ref[round(t / 1e-3)])) <= tol


@pytest.mark.parametrize("dt,t_end,times", [
    (0.04, 0.05, [0.0, 0.04, 0.05]),   # final shorter step
    (0.03, 0.05, [0.0, 0.03, 0.05]),   # no overshoot to 0.06
    (0.01, 0.05, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]),
    (0.04, 0.0, [0.0]),                # no step at all
    (0.03, 0.33, [0.03 * i for i in range(12)]),  # 11 * 0.03 rounds below 0.33
])
def test_evolve_ends_exactly_at_t_end(dt, t_end, times):
    _, u = low_mode_profile(64)
    traj = eulerian_evolve(u, dt=dt, t_end=t_end, snapshot_stride=1)
    assert not traj.blowup
    assert_allclose(traj.times, times, rtol=0, atol=1e-15)
    assert traj.times[-1] == t_end
    assert len(traj.states) == len(times)
    if len(times) == 3:
        # the last step is an ordinary RK4 step of the remaining length
        ref, _ = reference_rk4(traj.states[1], t_end - times[1], 1)
        assert np.max(np.abs(traj.final - ref[-1])) < 1e-14


@pytest.mark.parametrize("key,value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", np.nan), ("dt", np.inf),
    ("t_end", -0.1), ("t_end", np.nan), ("t_end", np.inf),
    ("slope_cap", np.nan), ("slope_cap", 0.0), ("slope_cap", -1.0),
    ("snapshot_stride", 0),
])
def test_evolve_rejects_bad_arguments(key, value):
    _, u = low_mode_profile(64)
    args = {"dt": 1e-3, "t_end": 0.01, key: value}
    with pytest.raises(ValueError, match=key):
        eulerian_evolve(u, **args)


def test_evolve_step_limit(monkeypatch):
    # 1e298 steps: rejected before any work; a right-hand side that cannot
    # be built fails fast instead of looping where the limit is missing
    import rhosphere.oracle as oracle

    monkeypatch.setattr(oracle, "_SpectralRHS", None)
    _, u = low_mode_profile(64)
    with pytest.raises(StepLimitError, match="more than 10000000 steps"):
        eulerian_evolve(u, dt=1e-300, t_end=0.01)


def test_resample_band_limited_roundtrip():
    g = PeriodicGrid(64)
    u = np.cos(2 * np.pi * 3 * g.x) - 0.4 * np.sin(2 * np.pi * 5 * g.x)
    up = resample_profile(u, 256)
    y = np.arange(256) / 256
    assert np.max(np.abs(up - (np.cos(2 * np.pi * 3 * y) - 0.4 * np.sin(2 * np.pi * 5 * y)))) < 1e-13
    back = resample_profile(up, 64)
    assert np.max(np.abs(back - u)) < 1e-13


def test_resample_down_to_odd_m_keeps_top_mode():
    # for odd m the highest kept mode is not a Nyquist mode, so its sine
    # part must survive
    g = PeriodicGrid(64)
    for m in (3, 4, 5, 6):
        y = np.arange(m) / m
        assert np.max(np.abs(resample_profile(np.sin(2 * np.pi * g.x), m) - np.sin(2 * np.pi * y))) < 1e-13


def test_resample_up_from_even_n_splits_nyquist():
    # (-1)^j on 8 nodes is cos(8 pi x): it passes through the source nodes
    # and vanishes halfway between them
    up = resample_profile((-1.0) ** np.arange(8), 16)
    assert_allclose(up, np.cos(8 * np.pi * np.arange(16) / 16), rtol=0, atol=1e-14)


def test_resample_same_size_is_a_copy():
    u = np.sin(2 * np.pi * np.arange(32) / 32)
    out = resample_profile(u, 32)
    assert out is not u and np.array_equal(out, u)


def test_resample_preserves_mean():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(128)
    for m in (32, 64, 512):
        assert np.mean(resample_profile(u, m)) == pytest.approx(np.mean(u), abs=1e-13)


def test_sample_trajectory_interpolates():
    g, u = low_mode_profile(64)
    traj = eulerian_evolve(u, dt=1e-2, t_end=0.2, snapshot_stride=5)
    exact = sample_trajectory(traj, traj.times[2])
    assert_allclose(exact, traj.states[2], rtol=0, atol=0)
    t_mid = 0.5 * (traj.times[1] + traj.times[2])
    mid = sample_trajectory(traj, t_mid)
    assert_allclose(mid, 0.5 * (traj.states[1] + traj.states[2]), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sample_trajectory(traj, 5.0)
    with pytest.raises(ValueError):
        sample_trajectory(traj, -0.1)


def test_profile_distance():
    a = np.array([0.0, 1.0, 0.0, -1.0])
    b = np.array([0.0, 0.0, 0.0, 0.0])
    l2, linf = profile_distance(a, b)
    assert l2 == pytest.approx(np.sqrt(0.5))
    assert linf == 1.0
    with pytest.raises(ValueError):
        profile_distance(a, np.zeros(5))


def test_compare_at_start_is_machine_zero():
    spec = InitialSpec("sine", 128, amplitude=0.1)
    grid, state, mu = initial_state(spec)
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.1, snapshot_stride=10))
    u0, _, _ = make_initial(spec)
    traj = eulerian_evolve(u0, dt=1e-3, t_end=0.1, snapshot_stride=10)
    l2, linf = compare(rec, mu, traj, 0.0, 128)
    assert l2 < 1e-13
    assert linf < 1e-13


def test_compare_tracks_smooth_solution():
    spec = InitialSpec("sine", 256, amplitude=0.1)
    grid, state, mu = initial_state(spec)
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0, snapshot_stride=50))
    u0, _, _ = make_initial(spec)
    traj = eulerian_evolve(u0, dt=1e-3, t_end=1.0, snapshot_stride=50)
    l2, linf = compare(rec, mu, traj, 1.0, 256)
    assert l2 < 2e-5
    assert linf < 5e-5


def test_compare_rejects_time_past_either_trajectory():
    spec = InitialSpec("sine", 64, amplitude=0.1)
    grid, state, mu = initial_state(spec)
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.5, snapshot_stride=10))
    u0, _, _ = make_initial(spec)
    traj = eulerian_evolve(u0, dt=1e-2, t_end=0.3, snapshot_stride=10)
    with pytest.raises(ValueError):
        compare(rec, mu, traj, 0.4, 64)  # beyond the oracle
    long_traj = eulerian_evolve(u0, dt=1e-2, t_end=1.0, snapshot_stride=10)
    with pytest.raises(ValueError):
        compare(rec, mu, long_traj, 0.8, 64)  # beyond the record
