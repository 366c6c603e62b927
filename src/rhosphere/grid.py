"""Uniform periodic grid on [0, 1) and the discrete operators built on it.

Grid functions are plain float64 arrays of length n sampled at x_j = j/n,
with no duplicated endpoint.  The node count is restricted to powers of two
so spectral transforms stay exact and cheap.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

_TWO_PI = 2.0 * np.pi


def greens_function(d):
    """Periodic kernel of (1 - d^2/dx^2)^{-1} on a unit circle.

    The argument is reduced to its fractional representative in [0, 1)
    before evaluation, so any real separation is accepted.  Normalised:
    the kernel integrates to one over a period.
    """
    r = np.asarray(d, dtype=float) % 1.0
    return np.cosh(r - 0.5) / (2.0 * np.sinh(0.5))


def is_grid_size(n: int) -> bool:
    """Whether PeriodicGrid accepts n nodes: a power of two, at least 16."""
    return n >= 16 and (n & (n - 1)) == 0


class PeriodicGrid:
    """Node set x_j = j/n with quadrature, integration and Helmholtz inverses.

    Parameters
    ----------
    n : int
        Number of nodes, a power of two, at least 16.
    """

    def __init__(self, n: int):
        if not is_grid_size(n):
            raise ValueError(f"grid size must be a power of two >= 16, got {n}")
        self.n = int(n)
        self.h = 1.0 / n
        self.x = np.arange(n) / n
        self.wavenumbers = np.fft.rfftfreq(n, self.h)
        self._ik = _TWO_PI * 1j * self.wavenumbers
        self._helm = 1.0 / (1.0 + _TWO_PI**2 * self.wavenumbers**2)
        self._inv_n = 1.0 / n
        # spectral antiderivative with the zero mode dropped, and with the
        # 1/n of the inverse transform folded in (exact: n is a power of
        # two), so that _irfft runs unnormalised
        inv = np.zeros(n // 2 + 1, dtype=complex)
        inv[1:] = 1.0 / (n * self._ik[1:])
        self._inv_ik = inv
        # the multipliers of the field evaluation's antiderivative pair: the
        # second row carries a factor 2 (exact: a power of two), so that it
        # integrates 2 rho rho_t from rho rho_t
        self._pair_inv_ik = np.stack((inv, 2.0 * inv))
        # the kernel's modal solves divide by n (ik +- alpha), the 1/n of an
        # unnormalised inverse transform folded in as above
        self._n_ik = n * self._ik
        # work buffers of the field evaluation, reused call after call: the
        # transforms' spectra and real rows, the kernel's modal denominators
        # and their shifts (complex, so that they add to the complex modes
        # without a cast), and the rows of every intermediate field.  Each
        # evaluation overwrites what the one before left in them, and they
        # make evaluation on one grid object unsafe across threads
        self._spec_work = np.empty((2, n // 2 + 1), dtype=complex)
        self._den_work = np.empty((2, n // 2 + 1), dtype=complex)
        self._shift_work = np.empty((2, 1), dtype=complex)
        self._real_work = np.empty((2, n))
        # the field evaluation's rows, as `lagrangian._rhs_arrays` lays them
        # out, and the row pairs its antiderivative transform reads (rows
        # 0-1) and writes (rows 2-3), all as views made once
        work = np.empty((9, n))
        self._field_rows = (*work, work[0:2], work[2:4])

    def __repr__(self):
        return f"PeriodicGrid(n={self.n})"

    def check(self, w) -> np.ndarray:
        """Validate a grid function: length n, all entries finite."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {w.shape}")
        if not np.isfinite(w).all():
            bad = np.flatnonzero(~np.isfinite(w))
            raise ValueError(f"non-finite values at nodes {bad[:8].tolist()}")
        return w

    def quad(self, w) -> float:
        """Trapezoid quadrature over the period, (1/n) * sum(w)."""
        return float(np.mean(self.check(w)))

    def cumint_spectral(self, w) -> np.ndarray:
        """Running integral of the trigonometric interpolant, anchored at 0.

        Splits off the mean (which integrates to a linear ramp) and inverts
        the derivative mode by mode on the fluctuation.  Exact for
        band-limited integrands, which the trapezoid rule is not; the kernel
        and velocity fields in `lagrangian` rely on this.
        """
        return self._antideriv(self.check(w))

    def _rfft(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        # np.fft.rfft(a) on the last axis, written into out: the gufunc that
        # np.fft calls, with its factor 1, minus the per-call cost of the
        # np.fft wrapper; n is a power of two, so always even
        return _pocketfft.rfft_n_even(a, 1.0, out=out)

    def _irfft(self, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
        # np.fft.irfft(spec, n, norm="forward") on the last axis, written
        # into out (which fixes n): the unnormalised inverse, factor 1
        return _pocketfft.irfft(spec, 1.0, out=out)

    def _antideriv(self, w: np.ndarray) -> np.ndarray:
        # unvalidated cumint_spectral, for callers whose arrays are already
        # known to be finite grid functions; the transforms run in the
        # first rows of the work buffers, and the result is a new array
        mean = w.sum() * self._inv_n
        spec = self._rfft(w - mean, self._spec_work[0])
        spec *= self._inv_ik
        anti = self._irfft(spec, self._real_work[0])
        return mean * self.x + (anti - anti[0])

    def deriv(self, w) -> np.ndarray:
        """Spectral periodic derivative, the Nyquist mode dropped."""
        coeffs = np.fft.rfft(self.check(w)) * self._ik
        coeffs[-1] = 0.0
        return np.fft.irfft(coeffs, self.n)

    def helmholtz_inverse(self, w, method: str = "fourier_symbol") -> np.ndarray:
        """Apply (1 - d^2/dx^2)^{-1}.

        fourier_symbol divides each mode by 1 + (2 pi k)^2.
        greens_convolution forms the quadrature of the kernel integral with
        a corner correction at the diagonal; the kernel slope jumps by -1
        there, which the plain trapezoid rule feels at second order.  The
        two routes are deliberately independent implementations.
        """
        w = self.check(w)
        if method == "fourier_symbol":
            return np.fft.irfft(np.fft.rfft(w) * self._helm, self.n)
        if method == "greens_convolution":
            idx = (np.arange(self.n)[:, None] - np.arange(self.n)[None, :]) % self.n
            conv = (greens_function(idx * self.h) * w[None, :]).sum(axis=1) * self.h
            return conv - (self.h**2 / 12.0) * w
        raise ValueError(f"unknown Helmholtz method {method!r}")
