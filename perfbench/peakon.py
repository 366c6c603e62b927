"""Exact peakon-pair solution of the Camassa-Holm equation on the unit circle.

A sum of peakons u = sum_i p_i G(x - q_i), with G the periodic Green kernel
of (1 - d_xx) normalised to integrate to one, stays a sum of peakons
while the crests are apart.  Positions and amplitudes follow the four ODEs

    dq_i/dt =  sum_j p_j G(q_i - q_j)
    dp_i/dt = -p_i sum_j p_j G'(q_i - q_j),     G'(0) := 0,

which this module integrates with classical RK4 in plain floats.  It shares
no code with the package under test, so it is an independent reference for
the reconstructed velocity before the crests collide.
"""

from __future__ import annotations

import math

import numpy as np

_NORM = 2.0 * math.sinh(0.5)


def kernel(d: float) -> float:
    return math.cosh(d % 1.0 - 0.5) / _NORM


def kernel_slope(d: float) -> float:
    r = d % 1.0
    return 0.0 if r == 0.0 else math.sinh(r - 0.5) / _NORM


def energy(p: float, d: float) -> float:
    """H1 energy of p (G(x - 1/2 + d) - G(x - 1/2 - d)), i.e. sum p_i p_j G(q_i - q_j)."""
    return 2.0 * p * p * (kernel(0.0) - kernel(2.0 * d))


def amplitude_for_energy(e: float, d: float) -> float:
    """Amplitude p of the antisymmetric pair at half-distance d with energy e."""
    return math.sqrt(e / energy(1.0, d))


def _rhs(y):
    q1, q2, p1, p2 = y
    g12 = kernel(q1 - q2)
    s12 = kernel_slope(q1 - q2)
    g0 = kernel(0.0)
    return (
        p1 * g0 + p2 * g12,
        p1 * g12 + p2 * g0,
        -p1 * p2 * s12,
        p2 * p1 * s12,  # G' is odd: G'(q2 - q1) = -G'(q1 - q2)
    )


def _rk4(y, h):
    k1 = _rhs(y)
    k2 = _rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
    k3 = _rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
    k4 = _rhs([a + h * b for a, b in zip(y, k3)])
    return [a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


class PeakonPair:
    """Antisymmetric pair p (G(x - q1) - G(x - q2)) with q1 < q2."""

    def __init__(self, p: float, q1: float, q2: float):
        self.p, self.q1, self.q2 = p, q1, q2

    def state(self, t: float, h: float = 1e-4):
        """(q1, q2, p1, p2) at time t, which must precede the collision."""
        y = [self.q1, self.q2, self.p, -self.p]
        steps = max(1, math.ceil(t / h))
        for _ in range(steps):
            y = _rk4(y, t / steps)
        return y

    def velocity(self, t: float, x):
        """Exact u(x, t) at the physical points x."""
        q1, q2, p1, p2 = self.state(t)
        x = np.asarray(x, dtype=float)
        return (p1 * np.cosh((x - q1) % 1.0 - 0.5) + p2 * np.cosh((x - q2) % 1.0 - 0.5)) / _NORM

    def collision_time(self, tol: float = 1e-10) -> float:
        """Time at which the crests meet, to within tol.

        The gap closes like its square root, so stepping on to a gap of
        1e-10 leaves about 2e-5 / sqrt(energy) of the time unaccounted.
        """
        y = [self.q1, self.q2, self.p, -self.p]
        t, h = 0.0, 1e-3
        while h > tol:
            nxt = _rk4(y, h)
            if nxt[1] - nxt[0] < 1e-10:
                h *= 0.5
                continue
            y, t = nxt, t + h
        return t
