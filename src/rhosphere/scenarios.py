"""Initial conditions and their lift to flow-map coordinates.

Every scenario produces the velocity profile u0 and its derivative on the
grid, plus the mean velocity mu = quad(u0).  The lift is always the same:
at t = 0 the flow map is the identity, so rho starts at one, rho_t at
u0x / 2, and the base offset k0 at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, greens_function
from .lagrangian import LagrangianState


KINDS = ("constant", "sine", "fourier", "peakon_pair")


@dataclass
class InitialSpec:
    """Declarative description of an initial velocity profile.

    kind is one of constant, sine, fourier, peakon_pair.  Unused parameters
    are ignored.  For fourier, cos_coeffs[k-1] and sin_coeffs[k-1] weight
    the mode with wavenumber k.  For peakon_pair, the profile is
    p * (g(x - q1) - g(x - q2)) with g the periodic Helmholtz kernel; a
    positive mollify_width replaces g by its convolution with a narrow
    periodic Gaussian, giving smooth data that still steepens and breaks.
    """

    kind: str
    n: int
    value: float = 0.0
    amplitude: float = 1.0
    wavenumber: int = 1
    mean: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    p: float = 1.0
    q1: float = 0.25
    q2: float = 0.75
    mollify_width: float = 0.0


def _fourier_profile(grid, mean, cos_coeffs, sin_coeffs):
    kmax = max(len(cos_coeffs), len(sin_coeffs))
    if kmax >= grid.n // 2:
        raise ValueError(f"wavenumber {kmax} unresolvable on {grid.n} nodes")
    u0 = np.full(grid.n, float(mean))
    u0x = np.zeros(grid.n)
    for i in range(kmax):
        k = i + 1
        omega = 2.0 * np.pi * k
        a = cos_coeffs[i] if i < len(cos_coeffs) else 0.0
        b = sin_coeffs[i] if i < len(sin_coeffs) else 0.0
        if a:
            u0 += a * np.cos(omega * grid.x)
            u0x += -a * omega * np.sin(omega * grid.x)
        if b:
            u0 += b * np.sin(omega * grid.x)
            u0x += b * omega * np.cos(omega * grid.x)
    return u0, u0x


def _peakon_profile(grid, p, q1, q2, width):
    """Opposed peakon pair, optionally mollified.

    The raw kernel has a slope corner at each peak, so the derivative is
    taken spectrally and carries the usual Gibbs ripple near the corners.
    A positive width smooths the profile with a periodic Gaussian filter
    first, after which the derivative is fully resolved.
    """
    u0 = p * (greens_function(grid.x - q1) - greens_function(grid.x - q2))
    if width > 0.0:
        damp = np.exp(-0.5 * (2.0 * np.pi * grid.wavenumbers * width) ** 2)
        u0 = np.fft.irfft(np.fft.rfft(u0) * damp, grid.n)
    u0x = grid.deriv(u0, scheme="spectral")
    return u0, u0x


def make_initial(spec: InitialSpec):
    """Sample the profile; returns (u0, u0x, mu) with mu = quad(u0)."""
    grid = PeriodicGrid(spec.n)
    if spec.kind == "constant":
        u0 = np.full(grid.n, float(spec.value))
        u0x = np.zeros(grid.n)
    elif spec.kind == "sine":
        coeffs = [0.0] * spec.wavenumber
        coeffs[-1] = spec.amplitude
        u0, u0x = _fourier_profile(grid, 0.0, (), tuple(coeffs))
    elif spec.kind == "fourier":
        u0, u0x = _fourier_profile(grid, spec.mean, tuple(spec.cos_coeffs), tuple(spec.sin_coeffs))
    elif spec.kind == "peakon_pair":
        u0, u0x = _peakon_profile(grid, spec.p, spec.q1, spec.q2, spec.mollify_width)
    else:
        raise ValueError(f"unknown scenario kind {spec.kind!r}")
    return u0, u0x, grid.quad(u0)


def lagrangian_initial(grid: PeriodicGrid, u0, u0x) -> LagrangianState:
    """Lift a velocity profile to the identity flow map.

    Rejects profiles whose derivative does not average to zero, since the
    velocity could not close up over the period.
    """
    u0 = grid.check(u0)
    u0x = grid.check(u0x)
    closure = grid.quad(u0x)
    if abs(closure) > 1e-8 * max(1.0, float(np.max(np.abs(u0x)))):
        raise ValueError(f"u0x must average to zero over the period, got {closure:.3e}")
    return LagrangianState(np.ones(grid.n), 0.5 * u0x, 0.0, 0.0)


def initial_state(spec: InitialSpec):
    """Grid, lifted state and mean velocity for a scenario in one call."""
    grid = PeriodicGrid(spec.n)
    u0, u0x, mu = make_initial(spec)
    return grid, lagrangian_initial(grid, u0, u0x), mu
