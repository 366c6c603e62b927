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

One field route: a batched transform pair writes pt and vel into the
grid's work rows, and the right-hand side, `lagrangian_velocity`,
`kernel_fields`, `pressure` and `energy` all read them, so each gives the
integrator's own numbers bit for bit.  Both kernel modes take pt from the
pair; the direct mode's own DFT checks the fast prefix assembly.
`velocity_and_gradient` reads vel and the gradient off one pair, where
`lagrangian_velocity` and then `kernel_fields` would form it twice.

Wave breaking is rho passing through zero.  The flat set, the labels where
rho^2 sits under FLAT_EPS_REL of its largest value, is where the Eulerian
slope blows up.  `flat_set` is the one rule that decides it: the
integrator's flat_measure series, the flow map's flat intervals and the
slope's validity flags in `reconstruct` all read it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid

HALF_SINH = np.sinh(0.5)
_SQRT_E = float(np.exp(0.5))

# |quad(2 rho rho_t)| above this, relative to max(1, max|2 rho rho_t|) as
# the lift in `scenarios` scales it, makes vel fail to close up over the period
TANGENCY_WARN = 1e-8

# a label is flat where rho^2 is under this share of its largest value
FLAT_EPS_REL = 1e-8

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


def flat_set(rho2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mask of the labels in the flat set, rho2 < FLAT_EPS_REL * max(rho2),
    given rho2 = rho^2; written into out when it is given.  The maximum is
    read at argmax, the same value at a fraction of a reduction's cost."""
    return np.less(rho2, FLAT_EPS_REL * float(rho2[rho2.argmax()]), out=out)


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


def _press(qp, qm, ea, eb):
    """Even combination of the kernel terms; overwrites qp and ea."""
    qp -= qm
    qp *= 0.5
    ea += eb
    ea -= qp
    return ea


def _antiderivative_pair(grid, rho, rho_t, mu):
    """rho^2, rho rho_t, then p_tilde = P - alpha x and vel by one batched
    transform pair, into the grid's work rows; returns (alpha, flux,
    offset).  p_tilde is not anchored at 0, since the kernel sees P only
    through differences P(x) - P(y).  No validation."""
    rho2, rho_rho_t, _, vel, _, ramp, _, _, _, src, anti, _ = grid._field_rows
    np.multiply(rho, rho, out=rho2)
    np.multiply(rho, rho_t, out=rho_rho_t)
    # the zero mode carries the means alpha and flux, and _pair_inv_ik
    # drops it, so nothing is subtracted up front
    spec = grid._rfft(src, grid._spec_work)
    alpha = float(spec[0, 0].real) * grid._inv_n
    flux = 2.0 * float(spec[1, 0].real) * grid._inv_n
    spec *= grid._pair_inv_ik
    grid._irfft(spec, anti)
    # vel = run + offset, where run = int_0^x 2 rho rho_t is vel_u - vel_u(0)
    # for vel_u = anti[1] + flux x, and the offset pins quad(vel rho^2) = mu;
    # the anchor vel_u(0) folds into that one shift
    anchor = float(vel[0])
    vel += np.multiply(grid.x, flux, out=ramp)
    offset = mu - float(np.dot(vel, rho2)) * grid._inv_n + anchor * alpha
    vel += offset - anchor
    return alpha, flux, offset


def _source_rows(grid, rho_t, vel):
    """vel^2, rho_t^2 and w = rho^2 vel^2 + 2 rho_t^2 into their work rows,
    from the rho^2 that `_antiderivative_pair` left."""
    rho2, _, _, _, _, vel2, w, rho_t2, _, _, _, _ = grid._field_rows
    np.multiply(vel, vel, out=vel2)
    np.multiply(rho_t, rho_t, out=rho_t2)
    np.multiply(rho2, vel2, out=w)
    w += rho_t2
    w += rho_t2


def _kernel(grid, alpha, mode):
    """The pieces (qp, qm, ea, eb) that `kernel_fields` combines, from the
    p_tilde and w rows, by either route.

    The near lobe of the kernel (y <= x) and the far lobe (y > x) each split
    into e^{+-P(x)} times a partial integral; regrouped,

        press = ea + eb - (qp - qm) / 2,    pgrad = ea - eb - (qp + qm) / 2,

    with ea = a e^{P} and eb = b e^{-P} for two scalars a, b built from the
    full-period integrals.  ea is the P row, and eb the row that the fast
    route first holds e^{pt} in.
    """
    _, _, p_tilde, _, p, _, w, _, eb, _, _, _ = grid._field_rows
    np.multiply(grid.x, alpha, out=p)
    p += p_tilde
    gp = np.exp(p, out=p)
    if mode == "fast":
        qp, qm, cp, cm, epf, emf = _exp_partials_fast(grid, p_tilde, alpha, w, eb)
    else:
        ep, em, epf, emf = _exp_partials_direct(grid, p_tilde, alpha, w)
        qp, qm, cp, cm = gp * em, ep / gp, 0.0, 0.0
    scale = 1.0 / (4.0 * HALF_SINH)
    a = (emf * _SQRT_E - 2.0 * HALF_SINH * cp) * scale
    b = (epf / _SQRT_E + 2.0 * HALF_SINH * cm) * scale
    np.divide(b, gp, out=eb)
    gp *= a
    return qp, qm, gp, eb


def _energy(grid, source):
    """quad(rho^2 vel^2 + 4 rho_t^2) = quad(w + 2 rho_t^2), from the (2, n)
    block (w, rho_t^2) in one pairwise sum per row."""
    sums = np.add.reduce(source, axis=1)
    return (float(sums[0]) + 2.0 * float(sums[1])) * grid._inv_n


def _checked_pair(grid, state, mu):
    """`_antiderivative_pair` of state with `lagrangian_velocity`'s checks;
    returns alpha.  The warning names the caller of the public function."""
    # a non-finite entry of the state or of its products leaves alpha,
    # flux or the offset non-finite
    alpha, flux, offset = _antiderivative_pair(grid, state.rho, state.rho_t, mu)
    if not (math.isfinite(alpha) and math.isfinite(flux) and math.isfinite(offset)):
        raise ValueError("the state or its products are not finite")
    rows = grid._field_rows
    if abs(flux) > TANGENCY_WARN * max(1.0, 2.0 * float(np.abs(rows[1], out=rows[5]).max())):
        warnings.warn(
            f"tangency defect {flux:.3e} exceeds {TANGENCY_WARN:.0e} of max(1, max|2 rho rho_t|); "
            "velocity will not be periodic",
            stacklevel=3,
        )
    return alpha


def lagrangian_velocity(grid: PeriodicGrid, state: LagrangianState, mu: float) -> np.ndarray:
    """Material velocity vel = int_0^x 2 rho rho_t dy + offset.

    Warns if the tangency defect, relative to max(1, max|2 rho rho_t|), is
    large enough that vel cannot close up over the period; raises
    ValueError for a state that is not finite.
    """
    _checked_pair(grid, state, mu)
    return grid._field_rows[3].copy()


def _kernel_at(grid, state, vel, mode):
    if mode not in ("fast", "direct"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    # the pair's vel row is not read: the source density is the caller's
    alpha = _antiderivative_pair(grid, state.rho, state.rho_t, 0.0)[0]
    _source_rows(grid, state.rho_t, vel)
    return _kernel(grid, alpha, mode)


def _gradient(qp, qm, ea, eb):
    """Odd combination of the kernel terms, as a new array."""
    half = np.add(qp, qm)
    half *= 0.5
    pgrad = np.subtract(ea, eb)
    pgrad -= half
    return pgrad


def pressure(grid: PeriodicGrid, state: LagrangianState, vel: np.ndarray, mode: str = "fast") -> np.ndarray:
    """Kernel average of rho^2 vel^2 + 2 rho_t^2 in flow-distance metric;
    the even half of `kernel_fields`, without the gradient."""
    return _press(*_kernel_at(grid, state, vel, mode)).copy()


def kernel_fields(grid: PeriodicGrid, state: LagrangianState, vel: np.ndarray,
                  mode: str = "fast") -> tuple[np.ndarray, np.ndarray]:
    """Pressure and its odd-kernel companion, the pressure gradient, from
    one kernel evaluation; the gradient equals the pressure slope along the
    flow."""
    qp, qm, ea, eb = _kernel_at(grid, state, vel, mode)
    # the odd combination first: the even one overwrites qp and ea
    pgrad = _gradient(qp, qm, ea, eb)
    return _press(qp, qm, ea, eb).copy(), pgrad


def velocity_and_gradient(grid: PeriodicGrid, state: LagrangianState,
                          mu: float) -> tuple[np.ndarray, np.ndarray]:
    """vel and the pressure gradient, from one antiderivative pair: bit for
    bit `lagrangian_velocity` and `kernel_fields(..., vel)[1]`, with the
    former's error and warning, since alpha and p_tilde do not depend on mu."""
    alpha = _checked_pair(grid, state, mu)
    vel = grid._field_rows[3].copy()
    _source_rows(grid, state.rho_t, vel)
    return vel, _gradient(*_kernel(grid, alpha, "fast"))


@dataclass
class FieldEval:
    """One full right-hand-side evaluation with its intermediate fields.

    slope stacks (drho, drho_t); gap is vel^2 - press, so that
    drho_t = rho * gap / 2.  rho2 is rho^2, and source stacks w, the
    source density the kernel averaged, over rho_t^2; alpha = quad(rho^2)
    and flux = quad(2 rho rho_t) are what the sphere and tangency
    constraints hold at 1 and 0.
    """

    vel: np.ndarray
    press: np.ndarray
    offset: float
    slope: np.ndarray
    gap: np.ndarray
    rho2: np.ndarray
    source: np.ndarray
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
    vel, press, gap, rho2, source, alpha, flux) as in FieldEval; drho is
    rho_t itself and dk0 is the offset.  The returned fields are rows of
    the grid's work buffers, which the next evaluation on the grid
    overwrites.
    """
    alpha, flux, offset = _antiderivative_pair(grid, rho, rho_t, mu)
    rho2, _, _, vel, _, vel2, _, _, _, _, _, source = grid._field_rows
    _source_rows(grid, rho_t, vel)
    press = _press(*_kernel(grid, alpha, "fast"))
    gap = np.subtract(vel2, press, out=vel2)
    np.multiply(rho, gap, out=out)
    out *= 0.5
    return offset, vel, press, gap, rho2, source, alpha, flux


def evaluate(grid: PeriodicGrid, state: LagrangianState, mu: float) -> FieldEval:
    """Velocity, kernel fields and state derivative in one pass.  The
    fields are copies that no later evaluation touches."""
    slope = np.empty((2, grid.n))
    slope[0] = state.rho_t
    offset, vel, press, gap, rho2, source, alpha, flux = _rhs_arrays(
        grid, state.rho, state.rho_t, mu, slope[1])
    return FieldEval(vel.copy(), press.copy(), offset, slope, gap.copy(), rho2.copy(), source.copy(), alpha, flux)


def energy(grid: PeriodicGrid, state: LagrangianState, mu: float) -> float:
    """Conserved energy quad(rho^2 vel^2 + 4 rho_t^2); the H1 norm of the
    initial velocity profile at t = 0, and the diagnostics row's.  Raises
    ValueError when the state or the energy is not finite."""
    _source_rows(grid, state.rho_t, lagrangian_velocity(grid, state, mu))
    e = _energy(grid, grid._field_rows[-1])
    if not math.isfinite(e):
        raise ValueError(f"the energy {e} is not finite")
    return e


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

