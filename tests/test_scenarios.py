import numpy as np
import pytest
from numpy.testing import assert_allclose

from rhosphere import InitialSpec, PeriodicGrid, initial_state, make_initial
from rhosphere.scenarios import lagrangian_initial


def test_constant_profile():
    u0, u0x, mu = make_initial(InitialSpec("constant", 64, value=0.7))
    assert np.all(u0 == 0.7)
    assert np.all(u0x == 0.0)
    assert mu == pytest.approx(0.7)


def test_sine_profile_and_wavenumber():
    u0, u0x, mu = make_initial(InitialSpec("sine", 128, amplitude=0.4, wavenumber=2))
    g = PeriodicGrid(128)
    assert_allclose(u0, 0.4 * np.sin(4 * np.pi * g.x), rtol=0, atol=1e-15)
    assert_allclose(u0x, 1.6 * np.pi * np.cos(4 * np.pi * g.x), rtol=0, atol=1e-12)
    assert abs(mu) < 1e-16


def test_fourier_profile():
    spec = InitialSpec("fourier", 64, mean=0.3, cos_coeffs=(0.2, 0.1), sin_coeffs=(0.05,))
    u0, u0x, mu = make_initial(spec)
    g = PeriodicGrid(64)
    ref = (0.3 + 0.2 * np.cos(2 * np.pi * g.x) + 0.1 * np.cos(4 * np.pi * g.x)
           + 0.05 * np.sin(2 * np.pi * g.x))
    assert_allclose(u0, ref, rtol=0, atol=1e-14)
    assert mu == pytest.approx(0.3, abs=1e-14)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_initial(InitialSpec("solitary", 64))


def test_peakon_pair_antisymmetry():
    u0, u0x, mu = make_initial(InitialSpec("peakon_pair", 512, p=2.0))
    # crests at 1/4 and 3/4 with opposite sign: odd about x = 1/2
    flipped = -np.roll(u0[::-1], 1)
    assert np.max(np.abs(u0 - flipped)) < 1e-12
    assert abs(mu) < 1e-14
    # the positive crest sits at the first quarter point
    assert np.argmax(u0) == 128


def test_peakon_pair_scales_linearly_in_strength():
    u1, _, _ = make_initial(InitialSpec("peakon_pair", 256, p=1.0))
    u2, _, _ = make_initial(InitialSpec("peakon_pair", 256, p=2.0))
    assert_allclose(u2, 2.0 * u1, rtol=0, atol=1e-14)


def test_peakon_pair_custom_positions():
    u0, _, _ = make_initial(InitialSpec("peakon_pair", 256, p=1.0, q1=0.1, q2=0.6))
    assert np.argmax(u0) == pytest.approx(26, abs=1)
    assert np.argmin(u0) == pytest.approx(154, abs=1)


def test_mollify_kills_spectral_tail():
    raw, raw_x, _ = make_initial(InitialSpec("peakon_pair", 1024, p=2.0))
    mol, mol_x, _ = make_initial(InitialSpec("peakon_pair", 1024, p=2.0, mollify_width=1 / 128))
    tail_raw = np.abs(np.fft.rfft(raw_x))[200:].max()
    tail_mol = np.abs(np.fft.rfft(mol_x))[200:].max()
    assert tail_mol < 1e-9 * tail_raw
    # the profiles stay close in the bulk
    assert np.max(np.abs(raw - mol)) < 0.05
    # smoothing takes the slope overshoot out
    assert np.max(np.abs(mol_x)) < np.max(np.abs(raw_x))


def test_lagrangian_initial_lift():
    g = PeriodicGrid(64)
    u0, u0x, _ = make_initial(InitialSpec("sine", 64, amplitude=0.5))
    state = lagrangian_initial(g, u0, u0x)
    assert np.all(state.rho == 1.0)
    assert_allclose(state.rho_t, 0.5 * u0x, rtol=0, atol=0)
    assert state.k0 == 0.0
    assert state.t == 0.0


def test_lagrangian_initial_rejects_nonclosing_slope():
    g = PeriodicGrid(64)
    u0 = np.zeros(64)
    u0x = np.cos(2 * np.pi * g.x) + 0.3  # integrates to 0.3 over the period
    with pytest.raises(ValueError):
        lagrangian_initial(g, u0, u0x)


def test_initial_state_lands_on_sphere():
    for kind, kw in (("sine", dict(amplitude=1.0)), ("peakon_pair", dict(p=2.0))):
        grid, state, mu = initial_state(InitialSpec(kind, 256, **kw))
        assert abs(grid.quad(state.rho**2) - 1.0) < 1e-15
        assert abs(grid.quad(state.rho * state.rho_t)) < 1e-13


def test_spec_defaults():
    spec = InitialSpec("peakon_pair", 128)
    assert spec.q1 == 0.25
    assert spec.q2 == 0.75
    assert spec.p == 1.0
    assert spec.mollify_width == 0.0
