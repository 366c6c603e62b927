"""Field evaluation in square-root flow-map coordinates.

The unknown is rho = sqrt(dK/dx), the square root of the flow-map slope,
together with its time derivative rho_t.  On the unit sphere of L2 the pair
evolves by

    d/dt rho   = rho_t
    d/dt rho_t = rho * (vel^2 - press) / 2
    d/dt k0    = offset

where vel is the material velocity, press the pressure seen along the flow,
and offset the velocity of the base particle.  All three are integral
functionals of the state, so the right-hand side stays bounded through wave
breaking; nothing here ever divides by rho.

Definitions, writing P(x) = int_0^x rho^2 and w = rho^2 vel^2 + 2 rho_t^2:

    vel(x)  = int_0^x 2 rho rho_t dy + offset
    offset  = mu - quad((vel - offset) * rho^2)
    press(x) = int_0^1 cosh(|P(x)-P(y)| - 1/2) / (2 sinh 1/2) * w(y) dy

press equals the physical pressure composed with the flow map, and the
companion field pgrad, the pressure gradient, equals the pressure slope
composed with the flow map; see `reconstruct` for that use.
`kernel_fields` returns both from one kernel evaluation.

Sign convention for pgrad: the far-side lobe of the odd kernel is
subtracted,

    pgrad(x) = int_0^x sinh(P(x)-P(y)-1/2)/(2 sinh 1/2) w dy
             - int_x^1 sinh(P(y)-P(x)-1/2)/(2 sinh 1/2) w dy,

which is the unique choice satisfying both

    d/dx press = rho^2 * pgrad
    d/dx pgrad = rho^2 * press - w

and making constant states stationary (pgrad == 0 there).  The convention is
recorded in run metadata and exercised by the validation suite.

Numerics.  All partial integrals are evaluated spectrally: with
alpha = quad(rho^2) and the periodic fluctuation pt = P - alpha*x, the kernel
splits into exponentials e^{+-P} = e^{+-alpha x} e^{+-pt}, and
int_0^x e^{+-alpha y} q(y) dy has a closed form per Fourier mode of q.  The
fast path assembles every node at once from two FFT pairs (prefix integrals
of cosh(P) w and sinh(P) w in disguise); the direct path re-evaluates each
node by explicit discrete-Fourier summation over a DFT matrix gathered
from a table of roots of unity.  Both are exact for the
trigonometric interpolant of the integrand, so they agree to round-off, and
trapezoid prefix sums are avoided on purpose: their second-order error
(about 1e-5 at n = 128) would swamp the conservation identities that the
validation suite checks at 1e-10.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid

HALF_SINH = np.sinh(0.5)
_SQRT_E = float(np.exp(0.5))

# |quad(2 rho rho_t)| above this, relative to max(1, max|2 rho rho_t|) as
# the lift in `scenarios` scales it, makes vel fail to close up over the period
TANGENCY_WARN = 1e-8

H_CONVENTION_NOTE = (
    "pressure_gradient subtracts the far-side lobe of the odd kernel, "
    "so d/dx(pressure) = rho^2*pressure_gradient, "
    "d/dx(pressure_gradient) = rho^2*pressure - (rho^2*vel^2 + 2*rho_t^2), "
    "and constant states are stationary"
)


@dataclass
class LagrangianState:
    """State at one instant: slope root, its rate, base offset, time.

    rho and rho_t are grid functions; k0 anchors the flow map at x = 0.
    Treated as immutable; operations return new instances.
    """

    rho: np.ndarray
    rho_t: np.ndarray
    k0: float
    t: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.rho_t = np.asarray(self.rho_t, dtype=float)
        if self.rho.shape != self.rho_t.shape:
            raise ValueError("rho and rho_t must share a grid")

    def copy(self) -> "LagrangianState":
        return LagrangianState(self.rho.copy(), self.rho_t.copy(), self.k0, self.t)


def _exp_partials_fast(grid, p_tilde, alpha, w, et):
    """Near-lobe kernel integrals at every node, via FFT.

    Writing E = e^{P}, Ep(x) = int_0^x e^{P} w dy and Em(x) = int_0^x e^{-P} w dy,
    returns (qp, qm, cp, cm, Ep_full, Em_full) with

        E Em = qp + cp E,    Ep / E = qm + cm / E

    and the full-period values Ep_full, Em_full.  The periodic solutions up,
    vm of up' + alpha up = e^{pt} w and vm' - alpha vm = e^{-pt} w are found
    mode by mode; then qp = e^{pt} vm, qm = e^{-pt} up and the anchoring at
    x = 0 sits in the constants cp = -vm(0), cm = -up(0), so no e^{alpha x}
    is ever formed.  e^{pt} is written into et; the transforms run in the
    grid's work buffers, and qp and qm are returned in them.
    """
    np.exp(p_tilde, out=et)
    buf = grid._real_work
    np.multiply(et, w, out=buf[0])
    np.divide(w, et, out=buf[1])
    spec = grid._rfft(buf, grid._spec_work)
    # both modal shifts +-n alpha in one broadcast add
    shift = grid._shift_work
    n_alpha = grid.n * alpha
    shift[0, 0] = n_alpha
    shift[1, 0] = -n_alpha
    spec /= np.add(grid._n_ik, shift, out=grid._den_work)
    up, vm = grid._irfft(spec, buf)
    up0, vm0 = float(up[0]), float(vm[0])
    ep_full = (np.exp(alpha) - 1.0) * up0
    em_full = (np.exp(-alpha) - 1.0) * vm0
    qp = np.multiply(et, vm, out=vm)
    qm = np.divide(up, et, out=up)
    return qp, qm, -vm0, -up0, ep_full, em_full


def _exp_partials_direct(grid, p_tilde, alpha, w):
    """Same integrals, evaluated node by node from an explicit DFT.

    Quadratic cost.  The DFT matrix is gathered from a table of the n-th
    roots of unity; n is a power of two, so k j mod n is k j & (n - 1).
    With c_k the weighted real-transform coefficients of e^{+-pt} w and
    lam_k = +-alpha + 2 pi i k, each partial integral is

        Re sum_k c_k (e^{lam_k x} - 1) / lam_k = e^{+-alpha x} Re(conj(v) @ dft) - Re sum(v)

    for v = c / lam, and its full-period value is (e^{+-alpha} - 1) Re sum(v),
    so no exponential of a matrix is formed.  Shares no
    transform code with the fast path; the pair serves as a rearrangement
    check on the prefix assembly.
    """
    n = grid.n
    modes = np.arange(n // 2 + 1)
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    dft = roots[np.outer(modes, np.arange(n)) & (n - 1)]
    et = np.exp(p_tilde)
    coeff = dft @ np.stack((et * w, w / et), axis=1)
    weight = np.full(n // 2 + 1, 2.0 / n)
    weight[0] = weight[-1] = 1.0 / n
    sign = np.array([1.0, -1.0])
    v = (weight[:, None] * coeff) / (sign * alpha + 2j * np.pi * modes[:, None])
    osc = (v.conj().T @ dft).real
    const = v.sum(axis=0).real
    ep = np.exp(alpha * grid.x) * osc[0] - const[0]
    em = np.exp(-alpha * grid.x) * osc[1] - const[1]
    return ep, em, (np.exp(alpha) - 1.0) * const[0], (np.exp(-alpha) - 1.0) * const[1]


def _warp(grid, rho2):
    """Cumulative slope P, its mean rate alpha, and the periodic part."""
    alpha = float(rho2.sum() * grid._inv_n)
    p = grid._antideriv(rho2)
    return p, alpha, p - alpha * grid.x


def _kernel_terms(gp, qp, qm, cp, cm, epf, emf, eb):
    """The pieces (qp, qm, ea, eb) that `kernel_fields` combines, from
    gp = e^{P} and the partial integrals of either route.

    The near lobe of the kernel (y <= x) and the far lobe (y > x) each split
    into e^{+-P(x)} times a partial integral; regrouped,

        press = ea + eb - (qp - qm) / 2,    pgrad = ea - eb - (qp + qm) / 2,

    with ea = a e^{P} and eb = b e^{-P} for two scalars a, b built from the
    full-period integrals.  ea overwrites gp, and eb is written into eb, an
    array of n that the fast route first holds e^{pt} in.
    """
    scale = 1.0 / (4.0 * HALF_SINH)
    a = (emf * _SQRT_E - 2.0 * HALF_SINH * cp) * scale
    b = (epf / _SQRT_E + 2.0 * HALF_SINH * cm) * scale
    np.divide(b, gp, out=eb)
    gp *= a
    return qp, qm, gp, eb


def _press(qp, qm, ea, eb):
    """Even combination of the kernel terms; overwrites qp and ea."""
    qp -= qm
    qp *= 0.5
    ea += eb
    ea -= qp
    return ea


def _kernel_pair(grid, rho2, w, mode):
    if mode not in ("fast", "direct"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    p, alpha, p_tilde = _warp(grid, rho2)
    eb = np.empty(grid.n)
    gp = np.exp(p, out=p)
    if mode == "fast":
        return _kernel_terms(gp, *_exp_partials_fast(grid, p_tilde, alpha, w, eb), eb)
    ep, em, epf, emf = _exp_partials_direct(grid, p_tilde, alpha, w)
    return _kernel_terms(gp, gp * em, ep / gp, 0.0, 0.0, epf, emf, eb)


def _source_density(state, vel):
    return state.rho**2 * vel**2 + 2.0 * state.rho_t**2


def lagrangian_velocity(grid: PeriodicGrid, state: LagrangianState, mu: float) -> np.ndarray:
    """Material velocity vel = int_0^x 2 rho rho_t dy + offset.

    Warns if the tangency defect, relative to max(1, max|2 rho rho_t|), is
    large enough that vel cannot close up over the period.
    """
    rho2_t = 2.0 * state.rho * state.rho_t
    closure = grid.quad(rho2_t)
    if abs(closure) > TANGENCY_WARN * max(1.0, float(np.abs(rho2_t).max())):
        warnings.warn(
            f"tangency defect {closure:.3e} exceeds {TANGENCY_WARN:.0e} of max(1, max|2 rho rho_t|); "
            "velocity will not be periodic",
            stacklevel=2,
        )
    # quad has validated rho2_t already
    run = grid._antideriv(rho2_t)
    return run + (mu - grid.quad(run * state.rho**2))


def pressure(grid: PeriodicGrid, state: LagrangianState, vel: np.ndarray, mode: str = "fast") -> np.ndarray:
    """Kernel average of rho^2 vel^2 + 2 rho_t^2 in flow-distance metric;
    the even half of `kernel_fields`, without the gradient."""
    return _press(*_kernel_pair(grid, state.rho**2, _source_density(state, vel), mode))


def kernel_fields(grid: PeriodicGrid, state: LagrangianState, vel: np.ndarray,
                  mode: str = "fast") -> tuple[np.ndarray, np.ndarray]:
    """Pressure and its odd-kernel companion, the pressure gradient, from
    one kernel evaluation; the gradient equals the pressure slope along the
    flow."""
    qp, qm, ea, eb = _kernel_pair(grid, state.rho**2, _source_density(state, vel), mode)
    # the odd combination first: the even one overwrites qp and ea
    half = np.add(qp, qm)
    half *= 0.5
    pgrad = np.subtract(ea, eb)
    pgrad -= half
    return _press(qp, qm, ea, eb), pgrad


@dataclass
class FieldEval:
    """One full right-hand-side evaluation with its intermediate fields.

    slope stacks (drho, drho_t); gap is vel^2 - press, so that
    drho_t = rho * gap / 2.  rho2, rho_t2 and w are the squares and the
    source density the kernel averaged; alpha = quad(rho^2) and
    flux = quad(2 rho rho_t) are what the sphere and tangency constraints
    hold at 1 and 0.
    """

    vel: np.ndarray
    press: np.ndarray
    offset: float
    slope: np.ndarray
    gap: np.ndarray
    rho2: np.ndarray
    rho_t2: np.ndarray
    w: np.ndarray
    alpha: float
    flux: float

    @property
    def drho(self) -> np.ndarray:
        return self.slope[0]

    @property
    def drho_t(self) -> np.ndarray:
        return self.slope[1]

    @property
    def dk0(self) -> float:
        return self.offset


def _rhs_arrays(grid, rho, rho_t, mu, out):
    """Hot-path field evaluation on raw arrays (no validation, no wrapping).

    Writes drho_t = rho (vel^2 - press) / 2 into out and returns (offset,
    vel, press, gap, rho2, rho_t2, w, alpha, flux) as in FieldEval; drho is
    rho_t itself and dk0 is the offset.  The returned fields are rows of
    the grid's work buffers, which the next evaluation on the grid
    overwrites.
    """
    rho2, rho_rho_t, p_tilde, vel, p, vel2, rho_t2, w, eb, src, anti = grid._field_rows
    np.multiply(rho, rho, out=rho2)
    np.multiply(rho, rho_t, out=rho_rho_t)
    # the periodic parts of the antiderivatives of rho^2 and of 2 rho rho_t,
    # through one batched transform pair.  The zero mode carries the means
    # alpha and flux, and _pair_inv_ik drops it, so nothing is subtracted
    # up front; the rows are not yet anchored at 0
    spec = grid._rfft(src, grid._spec_work)
    alpha = float(spec[0, 0].real) * grid._inv_n
    flux = 2.0 * float(spec[1, 0].real) * grid._inv_n
    spec *= grid._pair_inv_ik
    grid._irfft(spec, anti)
    # the kernel sees P only through differences P(x) - P(y), so P and its
    # periodic part may carry any common constant: p_tilde is used unanchored
    # vel = run + offset, where run = int_0^x 2 rho rho_t is vel_u - vel_u(0)
    # for vel_u = anti[1] + flux x, and the offset pins quad(vel rho^2) = mu;
    # the anchor vel_u(0) folds into that one shift
    anchor = float(vel[0])
    vel += np.multiply(grid.x, flux, out=vel2)
    offset = mu - float(np.dot(vel, rho2)) * grid._inv_n + anchor * alpha
    vel += offset - anchor
    np.multiply(vel, vel, out=vel2)
    np.multiply(rho_t, rho_t, out=rho_t2)
    np.multiply(rho2, vel2, out=w)
    w += rho_t2
    w += rho_t2
    np.multiply(grid.x, alpha, out=p)
    p += p_tilde
    gp = np.exp(p, out=p)
    press = _press(*_kernel_terms(gp, *_exp_partials_fast(grid, p_tilde, alpha, w, eb), eb))
    gap = np.subtract(vel2, press, out=vel2)
    np.multiply(rho, gap, out=out)
    out *= 0.5
    return offset, vel, press, gap, rho2, rho_t2, w, alpha, flux


def evaluate(grid: PeriodicGrid, state: LagrangianState, mu: float) -> FieldEval:
    """Velocity, kernel fields and state derivative in one pass.  The
    fields are copies that no later evaluation touches."""
    slope = np.empty((2, grid.n))
    slope[0] = state.rho_t
    offset, vel, press, gap, rho2, rho_t2, w, alpha, flux = _rhs_arrays(
        grid, state.rho, state.rho_t, mu, slope[1])
    return FieldEval(vel.copy(), press.copy(), offset, slope, gap.copy(), rho2.copy(), rho_t2.copy(), w.copy(),
                     alpha, flux)


def energy(grid: PeriodicGrid, state: LagrangianState, mu: float) -> float:
    """Conserved energy quad(rho^2 vel^2 + 4 rho_t^2); the H1 norm of the
    initial velocity profile at t = 0."""
    vel = lagrangian_velocity(grid, state, mu)
    return grid.quad(state.rho**2 * vel**2 + 4.0 * state.rho_t**2)


def apriori_bound(grid: PeriodicGrid, state: LagrangianState) -> float:
    """Envelope for max|vel^2 - press| built from the state norms alone.

    2 |rho| |rho_t| + (2 |rho|^3 |rho_t| + |rho_t|^2) / (4 sinh 1/2) in L2
    norms.  Tight only for small transverse amplitude (the validation suite
    checks it in that regime); the integrator diagnoses the gap directly
    from the fields instead of relying on this envelope.
    """
    nr = np.sqrt(grid.quad(state.rho**2))
    nt = np.sqrt(grid.quad(state.rho_t**2))
    return 2.0 * nr * nt + (2.0 * nr**3 * nt + nt**2) / (4.0 * HALF_SINH)

