"""Independent reference solver working directly on the velocity profile.

Method of lines on the periodic unit interval: spectral derivatives, 2/3
dealiasing of the quadratic terms, classical RK4 in time.  The state is
carried as its real Fourier coefficients through the stages; the solver
goes to physical space only to form the quadratic products, for the slope
check, and for stored snapshots.  This route knows nothing about the
label-space formulation, which makes it a genuine cross-check while
solutions stay smooth, and a demonstration of the failure mode the
label-space solver avoids: as the slope steepens the profile leaves the
resolvable class and the run is cut off by the slope cap rather than
continued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .grid import PeriodicGrid
from .integrate import _at_argmax, _at_argmin, step_count


@dataclass
class EulerianTrajectory:
    n: int
    dt: float
    times: np.ndarray
    states: list[np.ndarray]
    slope_max: np.ndarray
    blowup: bool = False
    blowup_time: float | None = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


class _SpectralRHS:
    """Tendency of the Fourier coefficients of u, with its work buffers.

    With dealiasing the 2/3 rule keeps the modes k <= n/3 of u, u_x and of
    both quadratic products; without it the mask is all ones.  The
    derivative symbol has its Nyquist entry zeroed, as in `PeriodicGrid.deriv`.
    The transforms are the pocketfft gufuncs `np.fft` calls, with its
    factors, written into the work buffers.
    """

    def __init__(self, n: int, dealias: bool):
        k = np.arange(n // 2 + 1)
        mask = (k <= n // 3).astype(float) if dealias else np.ones(k.size)
        ik = 2j * np.pi * k
        ik[-1] = 0.0
        self.inv_n = 1.0 / n
        self.ik = ik
        self.mask = mask
        self.mask_ik = mask * ik
        self.neg_mask = -mask
        # -d/dx of the Helmholtz inverse, on the dealiased source
        self.neg_mask_ik_helm = -mask * ik / (1.0 + (2.0 * np.pi) ** 2 * k**2)
        self._spec = np.empty((2, k.size), dtype=complex)
        self._phys = np.empty((2, n))
        self._prod = np.empty((2, n))

    def __call__(self, u_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The tendency, into out when given: -mask F(u u_x) - mask ik helm F(q)."""
        spec = self._spec
        np.multiply(self.mask, u_hat, out=spec[0])
        np.multiply(self.mask_ik, u_hat, out=spec[1])
        u, ux = _pocketfft.irfft(spec, self.inv_n, out=self._phys)
        prod = self._prod
        np.multiply(u, ux, out=prod[0])
        np.multiply(u, u, out=prod[1])
        # q = u^2 + (0.5 u_x) u_x, its last term formed in u's row
        np.multiply(0.5, ux, out=u)
        np.multiply(u, ux, out=u)
        np.add(prod[1], u, out=prod[1])
        adv_hat, q_hat = _pocketfft.rfft_n_even(prod, 1.0, out=spec)
        if out is None:
            out = np.empty_like(adv_hat)
        np.multiply(self.neg_mask, adv_hat, out=out)
        np.multiply(self.neg_mask_ik_helm, q_hat, out=adv_hat)
        return np.add(out, adv_hat, out=out)

    def slope(self, u_hat: np.ndarray) -> float:
        """max|u_x|, NaN when u_x has one."""
        ux = _pocketfft.irfft(np.multiply(self.ik, u_hat, out=self._spec[0]), self.inv_n, out=self._phys[0])
        return float(_at_argmax(np.abs(ux, out=ux)))


def eulerian_rhs(grid: PeriodicGrid, u: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Tendency of the velocity profile: -u u_x - d/dx of the smoothed source."""
    rhs = _SpectralRHS(grid.n, dealias)
    return np.fft.irfft(rhs(np.fft.rfft(grid.check(u))), grid.n)


def _check_run(snapshot_stride: int, slope_cap: float) -> None:
    if not slope_cap > 0.0:
        raise ValueError(f"slope_cap must be > 0, got {slope_cap!r}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride!r}")


def eulerian_evolve(
    u0: np.ndarray,
    dt: float,
    t_end: float,
    snapshot_stride: int = 100,
    slope_cap: float = 1e3,
    dealias: bool = True,
) -> EulerianTrajectory:
    """March the profile to t_end, or to the step where it stops resolving.

    Steps are uniform when dt divides t_end (to 1e-9), and otherwise the
    last one is shortened; either way the run ends exactly at t_end, and
    t_end = 0 takes no step.  The run is flagged as a blowup when max|u_x| passes
    slope_cap or the state goes non-finite; times/states then end at the
    last stored step before the threshold, and blowup_time reports where
    the cap was crossed.  A dt that takes more than MAX_STEPS steps raises
    StepLimitError.
    """
    steps, uniform = step_count(dt, t_end)
    _check_run(snapshot_stride, slope_cap)
    u = np.asarray(u0, dtype=float).copy()
    grid = PeriodicGrid(u.size)

    rhs = _SpectralRHS(grid.n, dealias)
    u_hat = np.fft.rfft(u)
    # the stage slopes, stage state, scaled slope, RK sum and finiteness
    # mask of every step, in the order of operations of the plain RK4 sum
    k1, k2, k3, k4 = np.empty((4, u_hat.size), dtype=complex)
    stage, tmp, acc = np.empty((3, u_hat.size), dtype=complex)
    finite = np.empty(u_hat.size, dtype=bool)
    times = [0.0]
    states = [u]
    slopes = [rhs.slope(u_hat)]
    blowup = False
    blowup_time = None
    for i in range(1, steps + 1):
        h = dt if (uniform or i < steps) else t_end - (steps - 1) * dt
        # the last stored time is t_end itself, also when steps * dt only
        # rounds to it
        t = t_end if i == steps else i * dt
        rhs(u_hat, out=k1)
        rhs(np.add(u_hat, np.multiply(0.5 * h, k1, out=tmp), out=stage), out=k2)
        rhs(np.add(u_hat, np.multiply(0.5 * h, k2, out=tmp), out=stage), out=k3)
        rhs(np.add(u_hat, np.multiply(h, k3, out=tmp), out=stage), out=k4)
        # u_hat += (h / 6) * (k1 + 2 k2 + 2 k3 + k4)
        np.add(k1, np.multiply(2.0, k2, out=tmp), out=acc)
        np.add(acc, np.multiply(2.0, k3, out=tmp), out=acc)
        np.add(acc, k4, out=acc)
        np.add(u_hat, np.multiply(h / 6.0, acc, out=acc), out=u_hat)
        if not _at_argmin(np.isfinite(u_hat, out=finite)):
            blowup, blowup_time = True, t
            break
        smax = rhs.slope(u_hat)
        if smax > slope_cap:
            blowup, blowup_time = True, t
            break
        if i % snapshot_stride == 0 or i == steps:
            times.append(t)
            states.append(np.fft.irfft(u_hat, grid.n))
            slopes.append(smax)
    return EulerianTrajectory(
        n=grid.n,
        dt=dt,
        times=np.array(times),
        states=states,
        slope_max=np.array(slopes),
        blowup=blowup,
        blowup_time=blowup_time,
    )


def profile_distance(u_a: np.ndarray, u_b: np.ndarray) -> tuple[float, float]:
    """Grid L2 and max-norm distance between two profiles on the same grid."""
    a = np.asarray(u_a, dtype=float)
    b = np.asarray(u_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"profile shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.mean(d * d))), float(np.max(np.abs(d)))


def resample_profile(u: np.ndarray, m: int) -> np.ndarray:
    """Trigonometric interpolation of a periodic profile onto m nodes.

    Downsampling keeps the modes the m-node grid resolves.  Upsampling from
    an even n splits the source's Nyquist mode evenly between +-n/2, so
    the interpolant is real and passes through the source nodes.
    """
    n = u.size
    if m == n:
        return np.asarray(u, dtype=float).copy()
    spec = np.fft.rfft(u)
    out = np.zeros(m // 2 + 1, dtype=complex)
    keep = min(spec.size, out.size)
    out[:keep] = spec[:keep]
    if m < n and m % 2 == 0:
        # the target's Nyquist mode, real on its nodes
        out[-1] = out[-1].real
    elif m > n and n % 2 == 0:
        out[n // 2] *= 0.5
    return np.fft.irfft(out, m) * (m / n)


def sample_trajectory(traj: EulerianTrajectory, t: float) -> np.ndarray:
    """Profile at time t, linear in time between stored snapshots."""
    times = traj.times
    if not (times[0] <= t <= times[-1]):
        raise ValueError(f"t = {t} outside the reference trajectory")
    if times.size == 1:
        return traj.states[0].copy()
    j = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2))
    th = (t - times[j]) / (times[j + 1] - times[j])
    return (1.0 - th) * traj.states[j] + th * traj.states[j + 1]


def compare(record, mu: float, traj: EulerianTrajectory, t: float, m: int) -> tuple[float, float]:
    """Distance at time t between the reconstructed velocity and this solver's.

    Both trajectories are sampled at t (the label run by `state_at`, this
    one linearly in time between its snapshots) and brought onto a common
    m-node physical grid.  Times beyond either
    trajectory, in particular past a reported blowup, are rejected.
    """
    from .reconstruct import eulerian_velocity, state_at

    if t > float(record.series.t[-1]):
        raise ValueError(f"t = {t} beyond the recorded run")
    st = state_at(record, t)
    grid = PeriodicGrid(st.rho.size)
    fld = eulerian_velocity(grid, st, mu, m=m)
    u_ref = resample_profile(sample_trajectory(traj, t), m)
    return profile_distance(fld.u, u_ref)
