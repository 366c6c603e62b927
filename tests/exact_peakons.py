"""Exact conservative peakon pair of the Camassa-Holm equation on the unit circle.

The antisymmetric pair u = p (G(x - q1) - G(x - q2)), q1 = 1/2 - d and
q2 = 1/2 + d, with G(x) = cosh(x mod 1 - 1/2) / (2 sinh 1/2) the periodic
Green function of 1 - d_xx, stays antisymmetric about x = 1/2 up to the
collision.  Its energy E = 2 p^2 g(d), with

    g(d) = G(0) - G(2d) = sinh(d) sinh(1/2 - d) / sinh(1/2),

is conserved, and the half-distance closes at the rate
d' = -p g(d) = -sqrt(E g(d) / 2).  So the time left to the collision is

    T(d) = int_0^d ds / sqrt(E g(s) / 2) = int_0^sqrt(d) 2 sqrt(2 / E) dv / sqrt(g(v^2) / v^2),

whose integrand is analytic in v; Gauss-Legendre quadrature gets it to
round-off.  Past the collision time t_c = T(d0) the conservative solution
is the reflection u(t_c + s) = -u(t_c - s): CH is invariant under
(t, u) -> (-t, -u) and conservative solutions are unique (Bressan, Chen &
Zhang, DCDS 2015), so the pair re-emerges with swapped signs and moves
apart.  Nothing here uses the package under test.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(48)


def _g(d):
    return np.sinh(d) * np.sinh(0.5 - d) / math.sinh(0.5)


def green(x):
    return np.cosh(np.asarray(x, dtype=float) % 1.0 - 0.5) / (2.0 * math.sinh(0.5))


class ExactPair:
    """The pair of energy `energy` whose crests start 2 d apart."""

    def __init__(self, energy: float, d: float):
        self.energy, self.d = energy, d
        self.p = math.sqrt(energy / (2.0 * _g(d)))
        self.collision_time = self._time_left(d)

    def _time_left(self, d: float) -> float:
        half = 0.5 * math.sqrt(d)
        v = half * (_NODES + 1.0)
        v2 = v * v
        integrand = 2.0 * math.sqrt(2.0 / self.energy) / np.sqrt(np.sinh(v2) / v2 * np.sinh(0.5 - v2) / math.sinh(0.5))
        return float(half * np.dot(_WEIGHTS, integrand))

    def half_distance(self, t: float) -> float:
        """d at a time t before the collision, by bisection on T(d) = t_c - t."""
        left = self.collision_time - t
        lo, hi = 0.0, self.d
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self._time_left(mid) < left:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def velocity(self, t: float, x) -> np.ndarray:
        """u(t, x) for 0 <= t <= 2 t_c, reflected past the collision."""
        sign = 1.0
        if t > self.collision_time:
            t, sign = 2.0 * self.collision_time - t, -1.0
        if t < 0.0:
            raise ValueError("the reflection covers t <= 2 t_c only")
        d = self.half_distance(t)
        p = math.sqrt(self.energy / (2.0 * _g(d)))
        return sign * p * (green(np.asarray(x) - 0.5 + d) - green(np.asarray(x) - 0.5 - d))
