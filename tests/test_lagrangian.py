import tracemalloc
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
    apriori_bound,
    energy,
    evaluate,
    evolve,
    initial_state,
    kernel_fields,
    lagrangian_velocity,
    make_initial,
    pressure,
)
from rhosphere.lagrangian import _exp_partials_direct, _source_density, _warp
from rhosphere.validate import random_state


def on_sphere(grid, seed, amp_rho=0.3, amp_rho_t=0.5):
    return random_state(grid, np.random.default_rng(seed), amp_rho=amp_rho, amp_rho_t=amp_rho_t)


def test_state_defects_on_clean_state():
    # the sphere and tangency defects are |alpha - 1| and |flux| / 2
    grid = PeriodicGrid(64)
    state = LagrangianState(np.ones(64), np.zeros(64), 0.0, 0.0)
    ev = evaluate(grid, state, 0.0)
    assert ev.alpha == 1.0
    assert ev.flux == 0.0


def test_velocity_reproduces_initial_profile():
    # at t = 0 the node velocity must equal the sampled profile
    for kind, kw in (("sine", dict(amplitude=0.7)),
                     ("fourier", dict(mean=0.2, cos_coeffs=(0.1, 0.05), sin_coeffs=(0.3,))),
                     ("peakon_pair", dict(p=1.5))):
        spec = InitialSpec(kind, 256, **kw)
        grid, state, mu = initial_state(spec)
        u0, _, _ = make_initial(spec)
        vel = lagrangian_velocity(grid, state, mu)
        assert np.max(np.abs(vel - u0)) < 1e-12


def test_velocity_mean_weighted_exact():
    grid = PeriodicGrid(128)
    state = on_sphere(grid, 4)
    mu = 0.37
    vel = lagrangian_velocity(grid, state, mu)
    # quad(vel rho^2) recovers the cast mean exactly by construction
    assert abs(grid.quad(vel * state.rho**2) - mu) < 1e-13


def test_velocity_offset_is_first_node_value():
    # the running prefix integral starts at zero, so the offset is what the
    # velocity field reads at the first node
    grid = PeriodicGrid(64)
    state = on_sphere(grid, 9)
    mu = -0.2
    c = evaluate(grid, state, mu).offset
    vel = lagrangian_velocity(grid, state, mu)
    assert abs(c - vel[0]) < 1e-13


def test_energy_of_unit_sine():
    grid, state, mu = initial_state(InitialSpec("sine", 512, amplitude=1.0))
    # 1/2 + 2 pi^2 for a unit sine profile
    assert_allclose(energy(grid, state, mu), 0.5 + 2 * np.pi**2, rtol=1e-6)


def test_energy_scales_quadratically():
    e = []
    for a in (0.1, 0.2):
        grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=a))
        e.append(energy(grid, state, mu))
    assert_allclose(e[1] / e[0], 4.0, rtol=1e-5)


def test_peakon_pair_energy_frozen():
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 1024, p=2.0))
    assert mu == pytest.approx(0.0, abs=1e-14)
    assert energy(grid, state, mu) == pytest.approx(0.98083, abs=5e-4)


def test_pressure_dual_routes_agree():
    grid = PeriodicGrid(128)
    for seed in (0, 1, 2):
        state = on_sphere(grid, seed)
        vel = lagrangian_velocity(grid, state, 0.1)
        pf, hf = kernel_fields(grid, state, vel, mode="fast")
        pd, hd = kernel_fields(grid, state, vel, mode="direct")
        assert np.max(np.abs(pf - pd)) < 1e-12
        assert np.max(np.abs(hf - hd)) < 1e-12
        # pressure is the even half of the same evaluation, bit for bit
        for mode, p in (("fast", pf), ("direct", pd)):
            assert np.array_equal(pressure(grid, state, vel, mode=mode), p)


def _direct_partials_reference(grid, p_tilde, alpha, w):
    # the same partial integrals from a DFT matrix and a segment matrix of
    # explicit complex exponentials
    n = grid.n
    x = grid.x
    modes = np.arange(n // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(modes, x))
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    out = []
    for sign in (1.0, -1.0):
        coeff = dft @ (np.exp(sign * p_tilde) * w) / n
        lam = sign * alpha + 2j * np.pi * modes
        seg = (np.exp(np.outer(x, lam)) - 1.0) / lam
        full = float(np.sum(weight * ((np.exp(lam) - 1.0) / lam * coeff).real))
        out.append(((seg @ (weight * coeff)).real, full))
    (ep, ep_full), (em, em_full) = out
    return ep, em, ep_full, em_full


@pytest.mark.parametrize("n", [16, 64, 128])
def test_direct_partials_match_explicit_exponentials(n):
    grid = PeriodicGrid(n)
    clean = on_sphere(grid, n)
    # on the sphere, and off it as an RK stage state is
    for state in (clean, LagrangianState(1.15 * clean.rho, clean.rho_t + 0.2 * clean.rho, 0.0, 0.0)):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="tangency defect")
            vel = lagrangian_velocity(grid, state, 0.2)
        _, alpha, p_tilde = _warp(grid, state.rho**2)
        w = _source_density(state, vel)
        got = _exp_partials_direct(grid, p_tilde, alpha, w)
        want = _direct_partials_reference(grid, p_tilde, alpha, w)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-13


def test_direct_route_memory_bounded():
    # one direct evaluation may hold at most 2.5 (n/2+1) x n complex
    # matrices at once; numpy reports its buffers to tracemalloc
    n = 1024
    grid = PeriodicGrid(n)
    state = on_sphere(grid, 3)
    vel = lagrangian_velocity(grid, state, 0.1)
    tracemalloc.start()
    try:
        kernel_fields(grid, state, vel, mode="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (n // 2 + 1) * n * 16


def test_pressure_rejects_unknown_mode():
    grid = PeriodicGrid(32)
    state = LagrangianState(np.ones(32), np.zeros(32), 0.0, 0.0)
    with pytest.raises(ValueError):
        pressure(grid, state, np.zeros(32), mode="cached")
    with pytest.raises(ValueError):
        kernel_fields(grid, state, np.zeros(32), mode="cached")


def test_pressure_integral_identity():
    # quad(rho^2 press) equals quad(rho^2 vel^2 + 2 rho_t^2)
    grid = PeriodicGrid(128)
    state = on_sphere(grid, 12)
    vel = lagrangian_velocity(grid, state, 0.3)
    w = state.rho**2 * vel**2 + 2.0 * state.rho_t**2
    lhs = grid.quad(state.rho**2 * pressure(grid, state, vel))
    assert abs(lhs - grid.quad(w)) / grid.quad(w) < 1e-11


def test_pressure_gradient_mean_vanishes():
    grid = PeriodicGrid(128)
    state = on_sphere(grid, 21)
    vel = lagrangian_velocity(grid, state, -0.4)
    pg = kernel_fields(grid, state, vel)[1]
    assert abs(grid.quad(pg * state.rho**2)) < 1e-11


def test_slope_identities_spectral():
    grid = PeriodicGrid(128)
    state = on_sphere(grid, 33)
    vel = lagrangian_velocity(grid, state, 0.0)
    rho2 = state.rho**2
    w = rho2 * vel**2 + 2.0 * state.rho_t**2
    press, pg = kernel_fields(grid, state, vel)
    assert np.max(np.abs(grid.deriv(press) - rho2 * pg)) < 1e-9
    assert np.max(np.abs(grid.deriv(pg) - (rho2 * press - w))) < 1e-9


def test_pressure_matches_eulerian_helmholtz_at_start():
    # the map is the identity at t = 0, so the label-space field must equal
    # (1 - dxx)^-1 (u^2 + ux^2 / 2) on the nodes
    grid, state, mu = initial_state(InitialSpec("sine", 256, amplitude=0.3))
    vel = lagrangian_velocity(grid, state, mu)
    ux = 2.0 * state.rho_t / state.rho
    p_ref = grid.helmholtz_inverse(vel**2 + 0.5 * ux**2)
    press, pg = kernel_fields(grid, state, vel)
    assert np.max(np.abs(press - p_ref)) < 1e-12
    g_ref = grid.deriv(p_ref)
    assert np.max(np.abs(pg - g_ref)) < 1e-10


def test_evaluate_bundles_consistent_fields():
    grid = PeriodicGrid(64)
    state = on_sphere(grid, 5)
    mu = 0.15
    ev = evaluate(grid, state, mu)
    assert_allclose(ev.vel, lagrangian_velocity(grid, state, mu), rtol=0, atol=1e-14)
    assert_allclose(ev.drho, state.rho_t, rtol=0, atol=0)
    assert ev.dk0 == ev.offset
    # acceleration is half rho times (vel^2 - press)
    assert_allclose(ev.drho_t, 0.5 * state.rho * (ev.vel**2 - ev.press),
                    rtol=0, atol=1e-13)


def test_evaluate_off_sphere_matches_public_routes():
    # RK stage states leave the sphere and the tangent space; the fused
    # evaluation must still match velocity, dense-kernel pressure and the
    # diagnostic scalars assembled from the public routes
    grid = PeriodicGrid(64)
    clean = on_sphere(grid, 11)
    state = LagrangianState(1.15 * clean.rho, clean.rho_t + 0.2 * clean.rho, 0.0, 0.0)
    mu = -0.1
    ev = evaluate(grid, state, mu)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="tangency defect")
        vel = lagrangian_velocity(grid, state, mu)
    press = pressure(grid, state, vel, mode="direct")
    assert_allclose(ev.vel, vel, rtol=0, atol=1e-13)
    assert ev.offset == pytest.approx(vel[0], abs=1e-13)
    assert_allclose(ev.press, press, rtol=0, atol=1e-12)
    assert_allclose(ev.drho_t, 0.5 * state.rho * (vel**2 - press), rtol=0, atol=1e-12)
    assert ev.alpha == pytest.approx(grid.quad(state.rho**2), abs=1e-14)
    assert ev.flux == pytest.approx(grid.quad(2.0 * state.rho * state.rho_t), abs=1e-14)
    assert abs(ev.alpha - 1.0) > 0.1 and abs(ev.flux) > 0.1


def test_acceleration_orthogonal_to_sphere():
    # d/dt quad(rho^2) = 2 quad(rho rho_t) = 0 and the second derivative
    # vanishes as well when the constraints hold, so the flow stays on
    # the sphere to integrator order
    grid = PeriodicGrid(128)
    state = on_sphere(grid, 8)
    mu = 0.2
    ev = evaluate(grid, state, mu)
    d2 = grid.quad(state.rho_t**2 + state.rho * ev.drho_t)
    assert abs(d2) < 1e-11


def test_tangency_warning_fires():
    grid = PeriodicGrid(64)
    rho = np.ones(64)
    rho_t = np.full(64, 0.01)  # radial component, clearly not tangent
    state = LagrangianState(rho, rho_t, 0.0, 0.0)
    with pytest.warns(UserWarning, match="tangency defect"):
        lagrangian_velocity(grid, state, 0.0)


def test_apriori_bound_positive_and_monotone_in_rho_t():
    grid = PeriodicGrid(64)
    s1 = LagrangianState(np.ones(64), 0.1 * np.sin(2 * np.pi * grid.x), 0.0, 0.0)
    s2 = LagrangianState(np.ones(64), 0.3 * np.sin(2 * np.pi * grid.x), 0.0, 0.0)
    assert 0.0 < apriori_bound(grid, s1) < apriori_bound(grid, s2)


def test_flat_set_measure():
    # the flat_measure series: the share of labels with |rho| under breaking_eps
    grid = PeriodicGrid(64)
    rho = np.ones(64)
    rho[10:14] = 1e-9
    state = LagrangianState(rho, np.zeros(64), 0.0, 0.0)
    for eps, share in ((1e-6, 4 / 64), (1e-10, 0.0)):
        rec = evolve(grid, state, 0.0, IntegratorConfig(dt=1e-3, t_end=0.0, breaking_eps=eps))
        assert rec.series.flat_measure.tolist() == [share]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-0.5, 0.5))
def test_identities_on_random_states(seed, mu):
    grid = PeriodicGrid(64)
    state = on_sphere(grid, seed)
    vel = lagrangian_velocity(grid, state, mu)
    rho2 = state.rho**2
    w = rho2 * vel**2 + 2.0 * state.rho_t**2
    press, pg = kernel_fields(grid, state, vel)
    assert abs(grid.quad(vel * rho2) - mu) < 1e-12
    assert abs(grid.quad(rho2 * press) - grid.quad(w)) < 1e-10 * max(1.0, grid.quad(w))
    assert abs(grid.quad(pg * rho2)) < 1e-10
    # flux of the velocity cube through the circle vanishes
    assert abs(grid.quad(6.0 * state.rho * state.rho_t * vel**2)) < 1e-10
