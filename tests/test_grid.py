import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rhosphere import PeriodicGrid
from rhosphere.grid import greens_function


def trig_poly(grid, rng, kmax=5, amp=1.0):
    f = np.zeros(grid.n)
    for k in range(1, kmax + 1):
        a, b = rng.uniform(-amp, amp, 2)
        f += a * np.cos(2 * np.pi * k * grid.x) + b * np.sin(2 * np.pi * k * grid.x)
    return f


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096, 16384])
def test_private_transforms_equal_numpy_fft_bit_for_bit(n):
    # the label-space hot path calls pocketfft's real-transform gufuncs
    # directly; they must stay the kernels np.fft runs, with its factors
    g = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    for rows in ((), (2,)):
        a = rng.standard_normal(rows + (n,))
        spec = g._rfft(a, np.empty(rows + (n // 2 + 1,), dtype=complex))
        assert np.array_equal(spec, np.fft.rfft(a))
        coeffs = spec + 1j * rng.standard_normal(spec.shape)
        back = g._irfft(coeffs, np.empty(rows + (n,)))
        assert np.array_equal(back, np.fft.irfft(coeffs, n, norm="forward"))


def test_grid_requires_power_of_two():
    for bad in (0, 12, 17, 100, -64):
        with pytest.raises(ValueError):
            PeriodicGrid(bad)
    assert PeriodicGrid(16).n == 16


def test_nodes_and_weights():
    g = PeriodicGrid(64)
    assert g.h == 1.0 / 64
    assert_allclose(g.x, np.arange(64) / 64)
    # quadrature of a constant is exact
    assert g.quad(np.ones(64)) == 1.0
    # and of any pure oscillation it is exact too (trapezoid on periodic data)
    assert abs(g.quad(np.sin(2 * np.pi * 3 * g.x))) < 1e-15


def test_quad_band_limited_products():
    g = PeriodicGrid(128)
    f = np.cos(2 * np.pi * 5 * g.x)
    # int cos^2 = 1/2, exactly at these nodes
    assert_allclose(g.quad(f * f), 0.5, rtol=0, atol=1e-15)


def test_spectral_derivative_exact_on_band():
    g = PeriodicGrid(64)
    k = 7
    f = np.sin(2 * np.pi * k * g.x)
    assert_allclose(g.deriv(f), 2 * np.pi * k * np.cos(2 * np.pi * k * g.x),
                    rtol=0, atol=1e-10)


def test_cumint_spectral_machine_accuracy():
    g = PeriodicGrid(64)
    f = np.cos(2 * np.pi * 3 * g.x)
    exact = np.sin(2 * np.pi * 3 * g.x) / (2 * np.pi * 3)
    assert_allclose(g.cumint_spectral(f), exact, rtol=0, atol=1e-14)


def test_cumint_starts_at_zero():
    g = PeriodicGrid(32)
    rng = np.random.default_rng(0)
    f = trig_poly(g, rng)
    assert g.cumint_spectral(f)[0] == 0.0


def test_helmholtz_inverse_symbol():
    g = PeriodicGrid(64)
    k = 4
    f = np.cos(2 * np.pi * k * g.x)
    # (1 - dxx)^-1 cos(2 pi k x) = cos / (1 + 4 pi^2 k^2)
    assert_allclose(g.helmholtz_inverse(f), f / (1 + (2 * np.pi * k) ** 2),
                    rtol=0, atol=1e-15)


def test_helmholtz_routes_agree():
    # greens_convolution carries the kernel quadrature error, frozen here
    expect = {64: 1.46e-7, 128: 9.1e-9}
    rng = np.random.default_rng(3)
    for n, err in expect.items():
        g = PeriodicGrid(n)
        f = trig_poly(g, rng, kmax=4)
        a = g.helmholtz_inverse(f, method="fourier_symbol")
        b = g.helmholtz_inverse(f, method="greens_convolution")
        assert np.max(np.abs(a - b)) < 2.0 * err


def test_helmholtz_inverse_rejects_unknown_method():
    g = PeriodicGrid(32)
    with pytest.raises(ValueError):
        g.helmholtz_inverse(np.zeros(32), method="multigrid")


def test_greens_function_shape():
    # cosh(|x| - 1/2) / (2 sinh 1/2) on [0, 1): even, periodic, unit mass
    r = np.linspace(-2.0, 3.0, 41)
    vals = greens_function(r)
    assert_allclose(vals, greens_function(r + 1.0), rtol=0, atol=1e-14)
    assert_allclose(greens_function(0.3), greens_function(-0.3), rtol=0, atol=1e-15)
    g = PeriodicGrid(4096)
    assert abs(g.quad(greens_function(g.x)) - 1.0) < 1e-8
    # peak value cosh(1/2) / (2 sinh 1/2)
    assert_allclose(greens_function(0.0), np.cosh(0.5) / (2 * np.sinh(0.5)),
                    rtol=0, atol=1e-15)


def test_wavenumbers():
    g = PeriodicGrid(16)
    assert_allclose(g.wavenumbers, np.arange(9))


def test_check_rejects_wrong_shape():
    g = PeriodicGrid(32)
    with pytest.raises(ValueError):
        g.check(np.zeros(31))
    with pytest.raises(ValueError):
        g.check(np.zeros((32, 1)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cumint_inverts_derivative(seed):
    g = PeriodicGrid(64)
    f = trig_poly(g, np.random.default_rng(seed), kmax=6)
    rebuilt = g.cumint_spectral(g.deriv(f))
    assert np.max(np.abs(rebuilt - (f - f[0]))) < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_helmholtz_inverse_forward_roundtrip(seed):
    g = PeriodicGrid(64)
    f = trig_poly(g, np.random.default_rng(seed), kmax=6)
    p = g.helmholtz_inverse(f)
    assert np.max(np.abs(p - g.deriv(g.deriv(p)) - f)) < 1e-9
