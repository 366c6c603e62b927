import numpy as np
import pytest

from rhosphere import (
    PeriodicGrid,
    full_validation,
    random_state,
    run_identity_suite,
)
from rhosphere.integrate import project
from rhosphere.lagrangian import LagrangianState
from rhosphere.validate import derivative_tol, run_envelope_check, run_evolution_checks


def test_random_state_satisfies_constraints():
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(42)
    for _ in range(5):
        st = random_state(grid, rng)
        assert abs(grid.quad(st.rho**2) - 1.0) < 1e-14
        assert abs(grid.quad(st.rho * st.rho_t)) < 1e-15
        assert np.all(st.rho > 0.0)


def test_random_state_reproducible():
    grid = PeriodicGrid(64)
    a = random_state(grid, np.random.default_rng(7))
    b = random_state(grid, np.random.default_rng(7))
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.rho_t, b.rho_t)


def random_state_per_mode(grid, rng, kmax=None, amp_rho=0.12, amp_rho_t=0.35):
    """random_state as a loop over modes, one draw and one cos/sin per mode."""
    if kmax is None:
        kmax = min(8, grid.n // 8)
    kmax = max(1, kmax)

    def field(amp):
        out = np.zeros(grid.n)
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) * amp / (k * k)
            out += a * np.cos(2.0 * np.pi * k * grid.x) + b * np.sin(2.0 * np.pi * k * grid.x)
        return out

    return project(grid, LagrangianState(1.0 + field(amp_rho), field(amp_rho_t), 0.0, 0.0))


@pytest.mark.parametrize("n", [16, 128])
def test_random_state_matches_per_mode_loop(n):
    grid = PeriodicGrid(n)
    for seed in (0, 7, 2026):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for kwargs in ({}, {"amp_rho": 0.05, "amp_rho_t": 0.1}, {"kmax": 3}):
            st, ref = random_state(grid, rng, **kwargs), random_state_per_mode(grid, ref_rng, **kwargs)
            assert np.array_equal(st.rho, ref.rho)
            assert np.array_equal(st.rho_t, ref.rho_t)


def test_identity_suite_all_pass():
    results = run_identity_suite(n=64, seed=123, n_states=20)
    assert len(results) == 8
    for r in results:
        assert r.passed, f"{r.name}: {r.value:.3e} vs {r.tol:.1e}"
    by_name = {r.name: r for r in results}
    # dual-route evaluations sit at round-off, far under the bar
    assert by_name["pressure_dual_route"].value < 1e-13
    assert by_name["velocity_cube_flux"].value < 1e-14


def test_identity_suite_catches_sign_flip():
    results = run_identity_suite(n=32, seed=5, n_states=4, flip_h_sign=True)
    by_name = {r.name: r for r in results}
    assert not by_name["pressure_slope_identity"].passed
    assert not by_name["gradient_slope_identity"].passed
    # the flip leaves the norm identity alone, so it still passes
    assert by_name["kernel_normalization"].passed


def test_envelope_check():
    r = run_envelope_check(n=64, seed=3, n_states=15)
    assert r.passed
    assert r.value <= 1.0


def test_evolution_checks_pass():
    results = run_evolution_checks(n=64, dt=1e-3, t_end=0.3)
    for r in results:
        assert r.passed, f"{r.name}: {r.value:.3e} vs {r.tol:.1e}"


def test_full_validation_quick_battery():
    results = full_validation(n=64, seed=11, n_states=15)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_derivative_tol_grows_with_n():
    assert derivative_tol(1024) > derivative_tol(64)
    assert derivative_tol(16) > 0.0
