import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rhosphere import (
    InitialSpec,
    IntegratorConfig,
    LagrangianState,
    PeriodicGrid,
    StepFailure,
    default_dt,
    energy,
    evolve,
    gronwall_check,
    initial_state,
    lagrangian_velocity,
)
import rhosphere.integrate as integrate
from rhosphere.integrate import _DP_A, _DP_E, MAX_STEPS, BreakingEvent, _hermite_weights, project, step_count
from rhosphere.lagrangian import _rhs_arrays, evaluate, pressure
from rhosphere.validate import random_state

from exact_peakons import ExactPair


def test_constant_data_is_a_fixed_point():
    # a constant profile rides along: rho stays exactly 1 and the base point
    # advances linearly at the wave speed
    grid, state, mu = initial_state(InitialSpec("constant", 64, value=0.3))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0))
    last = rec.snapshots[-1]
    assert np.max(np.abs(last.rho - 1.0)) < 1e-13
    assert np.max(np.abs(last.rho_t)) < 1e-15
    assert last.k0 == pytest.approx(0.3, abs=1e-12)
    assert rec.events == []


def test_transform_calls_per_evaluation_and_fixed_step(monkeypatch):
    # the label-space transforms all go through the grid's private pair:
    # two transform pairs per evaluation, four evaluations per RK4 step
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    calls = []

    def counted(transform):
        def wrapper(a, out):
            calls.append(transform)
            return transform(a, out)
        return wrapper

    for name in ("_rfft", "_irfft"):
        monkeypatch.setattr(grid, name, counted(getattr(grid, name)))
    evaluate(grid, state, mu)
    assert len(calls) == 4
    counts = []
    for steps in (1, 2):
        calls.clear()
        evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=steps * 1e-3))
        counts.append(len(calls))
    assert counts[1] - counts[0] == 16


def test_default_dt_scales_inversely_with_n():
    g1, s1, m1 = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    g2, s2, m2 = initial_state(InitialSpec("sine", 128, amplitude=0.5))
    d1, d2 = default_dt(g1, s1, m1), default_dt(g2, s2, m2)
    assert d1 > 0
    assert_allclose(d1 / d2, 2.0, rtol=1e-12)


def test_evolve_uses_heuristic_when_dt_omitted():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(t_end=0.01))
    assert rec.dt == pytest.approx(rec.dt_heuristic)
    assert rec.dt <= default_dt(grid, state, mu)


def test_step_convergence_is_fourth_order():
    # halving the step against a dt/32 reference; asymptotic factor is 16
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.003125):
        grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
        rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=0.4, projection=False))
        errs.append(rec.snapshots[-1].rho)
    e = [np.max(np.abs(r - errs[-1])) for r in errs[:-1]]
    assert e[0] / e[1] > 8.0
    assert e[1] / e[2] > 8.0
    assert e[0] / e[2] > 100.0


def test_energy_conservation_smooth_run():
    grid, state, mu = initial_state(InitialSpec("sine", 128, amplitude=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=1.0))
    assert rec.energy_drift < 1e-10


def test_constraints_tracked_along_run():
    grid, state, mu = initial_state(InitialSpec("fourier", 128, mean=0.1,
                                                cos_coeffs=(0.2,), sin_coeffs=(0.1, 0.05)))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.5))
    assert np.max(rec.series.sphere_defect) < 1e-13
    assert np.max(rec.series.tangency_defect) < 1e-13
    assert np.max(np.abs(rec.series.mu_check - mu)) < 1e-12


def test_snapshot_cadence():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.25, snapshot_stride=5))
    assert rec.snapshot_steps[0] == 0
    assert rec.snapshot_steps[-1] == 25
    assert rec.snapshot_steps[:3] == [0, 5, 10]
    for step, snap in zip(rec.snapshot_steps, rec.snapshots):
        assert snap.t == pytest.approx(rec.series.t[step])


@pytest.mark.parametrize("dt,t_end,stride", [
    (1e-2, 0.25, 5),
    # error-controlled: the snapshots are dense-output states
    (None, 0.25, 10),
    # the first step overflows: the initial state, then StepFailure
    (50.0, 500.0, 1),
], ids=["fixed", "adaptive", "step_failure"])
def test_on_snapshot_takes_every_snapshot(dt, t_end, stride):
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
    cfg = IntegratorConfig(dt=dt, t_end=t_end, snapshot_stride=stride)

    def run(**kwargs):
        try:
            return evolve(grid, state, mu, cfg, **kwargs)
        except StepFailure as fail:
            return fail.record

    taken = []
    with np.errstate(all="ignore"):
        kept = run()
        streamed = run(on_snapshot=lambda snap, step: taken.append((step, snap)))
    assert streamed.snapshots == [] and streamed.snapshot_steps == []
    assert [step for step, _ in taken] == kept.snapshot_steps
    for (_, a), b in zip(taken, kept.snapshots):
        assert (a.t, a.k0) == (b.t, b.k0)
        assert np.array_equal(a.rho, b.rho) and np.array_equal(a.rho_t, b.rho_t)
    assert len(taken) == 1 if dt == 50.0 else len(taken) > 3
    assert np.array_equal(streamed.series.energy, kept.series.energy)


@pytest.mark.parametrize("dt,t_end", [(1e-2, 0.1), (0.03, 0.1), (1e-3, 0.5)])
def test_evolve_ends_exactly_at_t_end(dt, t_end):
    # step i ends at i dt and the last step at t_end itself; summing the
    # steps ended the (1e-2, 0.1) run at 0.09999999999999999
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.2))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=t_end))
    assert rec.series.t[-1] == t_end
    assert rec.snapshots[-1].t == t_end
    assert np.array_equal(rec.series.t[:-1], np.arange(rec.series.t.size - 1) * dt)


def test_first_breaking_event_peakon_frozen():
    # steep antisymmetric pair; the first sign changes of rho show up just
    # inside the crests, one label on each side, at one time that is
    # stable under grid refinement (measured 1.2638010952698489, the two
    # roots 9e-15 apart)
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 256, p=2.0))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=4e-4, t_end=1.35))
    assert len(rec.events) >= 2, "expected breaking events by t = 1.35"
    first, second = rec.events[:2]
    assert sorted(first.locations + second.locations) == [65, 191]
    assert first.time == pytest.approx(1.264, abs=2e-3)
    assert abs(second.time - first.time) <= 1e-13
    # a root, not a step end
    assert first.time not in rec.series.t
    assert rec.energy_drift < 1e-5
    ok, margin = gronwall_check(rec)
    assert ok
    assert margin >= 1.0


def test_crossing_set_does_not_depend_on_dt():
    # one event per label and sign change at the root of its Hermite
    # interpolant: the same 511 labels at a 16x range of steps, and times
    # that agree to round-off (measured 2.0e-13 between the first two
    # steps, 2.9e-12 to the third).  Merging the labels of a step into one
    # event gave 80, 43 and 22 events
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 1024, p=2.0))
    crossings = []
    for dt in (4.8828125e-4, 2e-3, 8e-3):
        rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=2.4, snapshot_stride=10**6))
        assert all(len(e.locations) == 1 for e in rec.events)
        times = [e.time for e in rec.events]
        assert times == sorted(times)
        crossings.append({e.locations[0]: e.time for e in rec.events})
    for c in crossings:
        assert len(c) == 511
        assert c.keys() == crossings[0].keys()
    fine, mid, _ = crossings
    assert max(abs(fine[j] - mid[j]) for j in fine) <= 1e-12


def test_step_failure_keeps_its_crossings(monkeypatch):
    # the unit sine changes sign at t ~ 0.275; the run then goes non-finite
    # at t > 0.3, and the record attached to the failure holds the
    # crossings timed inside their steps
    import rhosphere.integrate as integrate

    real = integrate._advance

    def late_nan(grid, state, mu, dt, stage1, t, ws):
        new = real(grid, state, mu, dt, stage1, t, ws)
        return LagrangianState(np.full(grid.n, np.nan), new.rho_t, new.k0, t) if t > 0.3 else new

    monkeypatch.setattr(integrate, "_advance", late_nan)
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as exc:
        evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=0.5))
    rec = exc.value.record
    assert rec.series.t[-1] == pytest.approx(0.3)
    assert rec.events
    assert all(len(e.locations) == 1 and e.min_rho < 0.0 for e in rec.events)
    assert all(0.2 < e.time < 0.3 and e.time not in rec.series.t for e in rec.events)


def test_step_failure_carries_partial_record():
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as exc:
        evolve(grid, state, mu, IntegratorConfig(dt=50.0, t_end=500.0))
    rec = exc.value.record
    assert rec.series.t.size >= 1
    assert np.isfinite(rec.series.energy[0])


@pytest.mark.parametrize("dt,projection", [(2e-3, True), (2e-3, False), (None, True)],
                         ids=["fixed", "fixed_unprojected", "adaptive"])
def test_kept_snapshots_own_their_arrays(dt, projection):
    # a run steps in arrays allocated once; each snapshot it keeps holds on
    # to its own 2n floats only, shared with no other snapshot
    grid, state, mu = initial_state(InitialSpec("sine", 64))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=0.05, snapshot_stride=3, projection=projection))
    assert len(rec.snapshots) >= 5
    arrays = []
    for snap in rec.snapshots:
        owners = {id(o): o for o in (a if a.base is None else a.base for a in (snap.rho, snap.rho_t))}
        assert sum(o.size for o in owners.values()) <= 2 * grid.n
        arrays.append((snap.rho, snap.rho_t))
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


def test_project_restores_constraints():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(17)
    state = random_state(grid, rng)
    dirty = LagrangianState(state.rho * 1.01, state.rho_t + 0.05 * state.rho, 0.7, 1.5)
    clean = project(grid, dirty)
    assert abs(grid.quad(clean.rho**2) - 1.0) < 1e-14
    assert abs(grid.quad(clean.rho * clean.rho_t)) < 1e-15
    assert clean.k0 == dirty.k0
    assert clean.t == dirty.t


def test_project_rejects_zero_state():
    grid = PeriodicGrid(32)
    with pytest.raises(ValueError):
        project(grid, LagrangianState(np.zeros(32), np.zeros(32), 0.0, 0.0))


def test_rk4_step_matches_evolve_single_step():
    # an unprojected step of evolve is one classical RK4 step of evaluate
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.4))
    dt = 1e-3

    def stage(h, k):
        return LagrangianState(state.rho + h * k[0], state.rho_t + h * k[1], state.k0 + h * k[2], state.t + h)

    def slope(st):
        ev = evaluate(grid, st, mu)
        return ev.drho, ev.drho_t, ev.offset

    k1 = slope(state)
    k2 = slope(stage(0.5 * dt, k1))
    k3 = slope(stage(0.5 * dt, k2))
    k4 = slope(stage(dt, k3))
    one = stage(dt / 6.0, [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)])
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=dt, projection=False))
    assert_allclose(one.rho, rec.snapshots[-1].rho, rtol=0, atol=1e-15)
    assert_allclose(one.rho_t, rec.snapshots[-1].rho_t, rtol=0, atol=1e-15)
    assert one.k0 == pytest.approx(rec.snapshots[-1].k0, abs=1e-15)
    assert rec.snapshots[-1].t == dt


def _reference_rk4(grid, state, mu, dt, steps):
    """Projected RK4 built from the public field routes with the dense kernel.

    Returns the final state and the energy after every step.
    """
    def slope(st):
        vel = lagrangian_velocity(grid, st, mu)
        press = pressure(grid, st, vel, mode="direct")
        # vel is anchored at the base point, so vel[0] is the offset
        return st.rho_t, 0.5 * st.rho * (vel**2 - press), vel[0]

    def shifted(st, h, k):
        return LagrangianState(st.rho + h * k[0], st.rho_t + h * k[1], st.k0 + h * k[2], st.t + h)

    state = project(grid, state)
    energies = [energy(grid, state, mu)]
    with warnings.catch_warnings():
        # the stage states sit O(dt^2) off the tangent space
        warnings.filterwarnings("ignore", message="tangency defect")
        for _ in range(steps):
            k1 = slope(state)
            k2 = slope(shifted(state, 0.5 * dt, k1))
            k3 = slope(shifted(state, 0.5 * dt, k2))
            k4 = slope(shifted(state, dt, k3))
            d = [(a + 2.0 * b + 2.0 * c + e) * (dt / 6.0) for a, b, c, e in zip(k1, k2, k3, k4)]
            state = project(grid, LagrangianState(state.rho + d[0], state.rho_t + d[1],
                                                  state.k0 + d[2], state.t + dt))
            energies.append(energy(grid, state, mu))
    return state, np.array(energies)


@pytest.mark.parametrize("spec", [
    InitialSpec("sine", 64, amplitude=1.0),
    InitialSpec("fourier", 64, mean=0.1, cos_coeffs=(0.3, 0.0, 0.1), sin_coeffs=(0.2, 0.15)),
], ids=["sine", "fourier"])
def test_evolve_matches_reference_rk4_over_many_steps(spec):
    # the stepper's fused stages, regrouped kernel and reused buffers against
    # a plain loop over independent routes; measured gap below 1e-14
    grid, state, mu = initial_state(spec)
    dt, steps = 1e-3, 200
    rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=steps * dt, snapshot_stride=steps))
    ref, energies = _reference_rk4(grid, state, mu, dt, steps)
    last = rec.snapshots[-1]
    assert rec.snapshot_steps[-1] == steps
    assert_allclose(last.rho, ref.rho, rtol=0, atol=1e-12)
    assert_allclose(last.rho_t, ref.rho_t, rtol=0, atol=1e-12)
    assert abs(last.k0 - ref.k0) <= 1e-12
    assert_allclose(rec.series.energy, energies, rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_project_is_idempotent(seed):
    grid = PeriodicGrid(32)
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.2 * rng.standard_normal(32)
    rho_t = 0.3 * rng.standard_normal(32)
    once = project(grid, LagrangianState(rho, rho_t, 0.0, 0.0))
    twice = project(grid, once)
    assert np.max(np.abs(once.rho - twice.rho)) < 1e-14
    assert np.max(np.abs(once.rho_t - twice.rho_t)) < 1e-14


# ---------------------------------------------------------------- error-controlled steps


def peakon_pair(n, d, energy_=1.0):
    """Antisymmetric peakon pair at half-distance d about 1/2 of the given energy."""
    p = ExactPair(energy_, d).p
    return initial_state(InitialSpec("peakon_pair", n, p=p, q1=0.5 - d, q2=0.5 + d))


@pytest.fixture(scope="module", params=[0.10, 0.11], ids=["d0.10", "d0.11"])
def pair_runs(request):
    """The pair through its collision (near 0.93 and 0.98), error-controlled
    and at a fixed step dt_heuristic / 20, about 1e-4, with snapshots at
    the same times; and the brackets each run handed to the bisection."""
    grid, state, mu = peakon_pair(256, request.param)
    t_end = 1.06
    brackets = []
    bisect = integrate._label_crossings

    def kept(run_brackets):
        brackets.append(run_brackets)
        return bisect(run_brackets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate, "_label_crossings", kept)
        adaptive = evolve(grid, state, mu, IntegratorConfig(t_end=t_end, snapshot_stride=50))
        fine = evolve(grid, state, mu, IntegratorConfig(dt=adaptive.dt / 20, t_end=t_end, snapshot_stride=1000))
    return grid, adaptive, fine, brackets


@pytest.fixture(scope="module")
def adaptive_and_fine(pair_runs):
    return pair_runs[:3]


def state_gap(a, b):
    return max(float(np.abs(a.rho - b.rho).max()), float(np.abs(a.rho_t - b.rho_t).max()), abs(a.k0 - b.k0))


def test_adaptive_snapshots_sit_on_the_default_dt_grid():
    # the same snapshot steps and times as a fixed run at dt_heuristic
    grid, state, mu = peakon_pair(64, 0.1)
    cfg = IntegratorConfig(t_end=0.37, snapshot_stride=7)
    adaptive = evolve(grid, state, mu, cfg)
    fixed = evolve(grid, state, mu, IntegratorConfig(dt=adaptive.dt_heuristic, t_end=0.37, snapshot_stride=7))
    assert adaptive.adaptive and not fixed.adaptive
    assert adaptive.dt == fixed.dt == adaptive.dt_heuristic
    assert adaptive.snapshot_steps == fixed.snapshot_steps
    assert [s.t for s in adaptive.snapshots] == [s.t for s in fixed.snapshots]
    assert adaptive.steps_accepted < fixed.steps_accepted


def test_adaptive_run_matches_a_fine_fixed_run(adaptive_and_fine):
    # measured: snapshots within 2.4e-9, final states within 3.5e-10
    _, adaptive, fine = adaptive_and_fine
    assert [s.t for s in adaptive.snapshots] == pytest.approx([s.t for s in fine.snapshots], rel=0, abs=1e-12)
    assert max(state_gap(a, b) for a, b in zip(adaptive.snapshots, fine.snapshots)) <= 1e-7
    assert state_gap(adaptive.snapshots[-1], fine.snapshots[-1]) <= 1e-9
    assert adaptive.series.t[-1] == fine.series.t[-1] == 1.06


def test_adaptive_events_are_per_label_hermite_roots(adaptive_and_fine):
    grid, adaptive, fine = adaptive_and_fine
    mid = grid.n // 2
    assert all(len(e.locations) == 1 for e in adaptive.events)
    times = [e.time for e in adaptive.events]
    assert times == sorted(times)
    # each label between the crests crosses once, as in the fine run
    labels = [e.locations[0] for e in adaptive.events]
    assert len(labels) == len(set(labels))
    assert set(labels) == {j for e in fine.events for j in e.locations}
    # the root lies inside an accepted step, far inside it: the steps are
    # about 0.04 long; measured 1e-4 from the fine run's step end
    t_adaptive = next(e.time for e in adaptive.events if e.locations == [mid])
    t_fine = next(e.time for e in fine.events if mid in e.locations)
    assert abs(t_adaptive - t_fine) <= 2e-3
    assert t_adaptive not in adaptive.series.t


def weights_form_crossings(brackets):
    """The events as the bisection found them when it formed each label's
    interpolant from the Hermite weights at every round: the reference
    for the one on the cubic's coefficients."""
    crossing = [b for b in brackets if b[4] is not None]
    if crossing:
        ya, yb, ma, mb = np.concatenate([b[4] for b in crossing], axis=1)
        sizes = [len(b[3]) for b in crossing]
        t_a = np.repeat([b[0] for b in crossing], sizes)
        h = np.repeat([b[1] - b[0] for b in crossing], sizes)
        up = ya > 0.0
        lo, hi = np.zeros(ya.size), np.ones(ya.size)
        for _ in range(53):
            s = 0.5 * (lo + hi)
            wa, wb, da, db = _hermite_weights(s, h)
            same = (wa * ya + wb * yb + da * ma + db * mb > 0.0) == up
            lo = np.where(same, s, lo)
            hi = np.where(same, hi, s)
        times = t_a + 0.5 * (lo + hi) * h
    events, k = [], 0
    for _, t_b, min_rho, labels, ends in brackets:
        if ends is None:
            events.append(BreakingEvent(t_b, list(labels), min_rho))
            continue
        step_times = times[k:k + len(labels)]
        k += len(labels)
        events += [BreakingEvent(float(step_times[j]), [int(labels[j])], min_rho)
                   for j in np.argsort(step_times, kind="stable")]
    return events


def test_bisection_matches_the_weights_form(pair_runs):
    # the same labels in the same order, and each time within 1 ulp
    _, adaptive, fine, brackets = pair_runs
    assert len(brackets) == 2
    for rec, run_brackets in zip((adaptive, fine), brackets):
        reference = weights_form_crossings(run_brackets)
        assert len(reference) > 40
        assert [(e.locations, e.min_rho) for e in rec.events] == [(e.locations, e.min_rho) for e in reference]
        assert all(abs(e.time - r.time) <= math.ulp(r.time) for e, r in zip(rec.events, reference))


def allocating_dp_trial(grid, state, mu, h, stage1, t):
    """The trial with a new array for every stage state and weighted sum:
    the reference that the trial in the run's workspace matches bit for
    bit."""
    n = grid.n
    y = np.concatenate((state.rho, state.rho_t, (state.k0,)))
    stages = np.empty((6, 2 * n + 1))
    stages[0] = np.append(stage1.slope, stage1.offset)
    for i in range(1, 6):
        ys = y + (h * _DP_A[i - 1, :i]) @ stages[:i]
        stages[i, :n] = ys[n:-1]
        stages[i, -1] = _rhs_arrays(grid, ys[:n], ys[n:-1], mu, stages[i, n:-1])[0]
    new = y + (h * _DP_A[5]) @ stages
    return LagrangianState(new[:n], new[n:-1], float(new[-1]), t), (h * _DP_E[:6]) @ stages


@pytest.mark.parametrize("case", ["sine64", "pair256"])
def test_workspace_trial_matches_the_allocating_trial(case):
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5)) if case == "sine64" \
        else peakon_pair(256, 0.1)
    state = project(grid, state)
    ev = evaluate(grid, state, mu)
    ws = integrate._Workspace(grid.n, True)

    def trial(h):
        """Whether the two trials agree bit for bit, and the candidate is finite."""
        new, part = integrate._dp_trial(grid, state, mu, h, ev, h, ws)
        ref, ref_part = allocating_dp_trial(grid, state, mu, h, ev, h)
        same = (np.array_equal(new.rho, ref.rho, equal_nan=True)
                and np.array_equal(new.rho_t, ref.rho_t, equal_nan=True)
                and np.array_equal(new.k0, ref.k0, equal_nan=True) and new.t == ref.t
                and np.array_equal(part, ref_part, equal_nan=True))
        return same, integrate._finite(new)

    for h in (1e-3, 0.02, 0.1):
        assert trial(h) == (True, True)
    # a trial long enough to go non-finite, as a rejected one can, leaves
    # nothing in the workspace that the next trial reads
    with np.errstate(all="ignore"):
        assert trial(1e6) == (True, False)
    assert trial(0.02) == (True, True)


def test_a_failing_run_issues_no_numpy_warning():
    # RK4 at dt = 10 overflows within a few steps; the StepFailure says so
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match="non-finite state at step"):
            evolve(grid, state, mu, IntegratorConfig(dt=10.0, t_end=50.0))


def test_adaptive_energy_drift_at_the_collision():
    # n = 1024, so that the spatial part of the drift sits below the bound;
    # measured 2.8e-11, against 3.0e-11 at dt = 1e-4
    grid, state, mu = peakon_pair(1024, 0.105)
    rec = evolve(grid, state, mu, IntegratorConfig(t_end=1.02))
    assert any(e.locations == [512] for e in rec.events)
    assert rec.energy_drift <= 1e-9
    assert rec.rhs_evaluations == 1 + 6 * (rec.steps_accepted + rec.steps_rejected)


def test_adaptive_accuracy_and_cost_on_the_collision_pair():
    # the pair at n = 1024 through 1.06 times the latest collision of the
    # d in [0.10, 0.11] family, against a run at default_dt / 10 with
    # snapshots at the same times.  Measured: final state 9.3e-13, worst
    # snapshot 1.8e-9, energy drift 2.8e-11, 213 labels and 181 evaluations
    # (30 steps); RK4 step doubling read 8.9e-11, 2.2e-9, 5.1e-11 and 331
    grid, state, mu = peakon_pair(1024, 0.105)
    t_end = 1.06 * ExactPair(1.0, 0.11).collision_time
    adaptive = evolve(grid, state, mu, IntegratorConfig(t_end=t_end))
    fine = evolve(grid, state, mu, IntegratorConfig(dt=adaptive.dt / 10, t_end=t_end, snapshot_stride=1000))
    assert [s.t for s in adaptive.snapshots] == [s.t for s in fine.snapshots]
    assert state_gap(adaptive.snapshots[-1], fine.snapshots[-1]) <= 8.9e-11
    assert max(state_gap(a, b) for a, b in zip(adaptive.snapshots, fine.snapshots)) <= 2.2e-9
    assert adaptive.energy_drift <= 5.1e-11
    labels = [sorted(j for e in rec.events for j in e.locations) for rec in (adaptive, fine)]
    assert labels[0] == labels[1]
    assert adaptive.rhs_evaluations <= 200


def test_adaptive_steps_do_not_grow_with_n():
    # the default step would take 16386 steps here; measured 57
    grid, state, mu = peakon_pair(4096, 0.105, energy_=4.0)
    rec = evolve(grid, state, mu, IntegratorConfig(t_end=1.0, snapshot_stride=10**6))
    fixed_steps, _ = step_count(rec.dt_heuristic, 1.0)
    assert fixed_steps == 16386
    assert 10 * rec.steps_accepted <= fixed_steps


def test_adaptive_run_honours_projection(monkeypatch):
    import rhosphere.integrate as integrate

    calls = []
    real = integrate.project

    def counted(grid, state):
        calls.append(state.t)
        return real(grid, state)

    monkeypatch.setattr(integrate, "project", counted)
    grid, state, mu = peakon_pair(128, 0.1)
    on = evolve(grid, state, mu, IntegratorConfig(t_end=0.5, snapshot_stride=20))
    assert len(calls) >= on.steps_accepted + len(on.snapshots) - 1
    assert np.max(on.series.sphere_defect) <= 1e-13
    calls.clear()
    off = evolve(grid, state, mu, IntegratorConfig(t_end=0.5, snapshot_stride=20, projection=False))
    assert calls == []
    assert np.max(off.series.sphere_defect) > 1e-13


@pytest.mark.parametrize("field,bad", [("rho", np.nan), ("rho_t", np.inf)])
def test_adaptive_step_floor_stops_the_run(monkeypatch, field, bad):
    # every trial step goes non-finite: the step shrinks by 5x per
    # rejection until it falls below t_end / MAX_STEPS.  The candidate's
    # +inf or NaN must not pass with the zero error estimate beside it
    import rhosphere.integrate as integrate

    def broken(grid, state, mu, h, stage1, t, ws):
        parts = {"rho": state.rho, "rho_t": state.rho_t, field: np.full(grid.n, bad)}
        return LagrangianState(parts["rho"], parts["rho_t"], state.k0, t), np.zeros(2 * grid.n + 1)

    monkeypatch.setattr(integrate, "_dp_trial", broken)
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    with np.errstate(all="ignore"), pytest.raises(StepFailure, match="below the floor .* after a non-finite trial") as exc:
        evolve(grid, state, mu, IntegratorConfig(t_end=1.0))
    rec = exc.value.record
    assert rec.series.t.size == 1
    assert 0 < rec.steps_rejected < 20
    assert exc.value.step == 1


def test_adaptive_rejects_trials_with_non_finite_rho_t(monkeypatch):
    # rho stays finite and only rho_t goes NaN, on every step longer than
    # 0.01: those trials are rejected, and no accepted state is non-finite
    import rhosphere.integrate as integrate

    real = integrate._dp_trial

    def long_steps_break(grid, state, mu, h, stage1, t, ws):
        new, part = real(grid, state, mu, h, stage1, t, ws)
        return (LagrangianState(new.rho, np.full(grid.n, np.nan), new.k0, t) if h > 0.01 else new), part

    monkeypatch.setattr(integrate, "_dp_trial", long_steps_break)
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    with np.errstate(all="ignore"):
        rec = evolve(grid, state, mu, IntegratorConfig(t_end=0.3, snapshot_stride=10))
    assert rec.steps_rejected >= 1
    assert np.diff(rec.series.t).max() <= 0.01
    assert rec.series.t[-1] == 0.3
    assert all(np.isfinite(col).all() for col in vars(rec.series).values())
    assert all(np.isfinite(s.rho_t).all() for s in rec.snapshots)


@pytest.mark.parametrize("dt,t_end", [(1e-300, 1.0), (1e-8, 1.0), (1e-3, float("nan")), (float("nan"), 1.0)])
def test_evolve_rejects_runs_it_cannot_hold(dt, t_end):
    # 1e-300 once reached numpy as a (8, 1e300) allocation
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    with pytest.raises(ValueError):
        evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=t_end))


@pytest.mark.parametrize("stride", [0, -3])
def test_evolve_rejects_a_snapshot_stride_below_one(stride):
    # a stride below 1 never moves the next snapshot on: the callback ends
    # such a run after 100 snapshots, so that the check fails, not hangs
    grid, state, mu = initial_state(InitialSpec("sine", 64, amplitude=0.5))
    steps = []

    def on_snapshot(snapshot, step):
        steps.append(step)
        if len(steps) > 100:
            raise RuntimeError(f"{len(steps)} snapshots, the last at step {step}")

    with pytest.raises(ValueError, match="snapshot_stride"):
        evolve(grid, state, mu, IntegratorConfig(dt=1e-2, t_end=0.1, snapshot_stride=stride), on_snapshot=on_snapshot)
    assert steps == []


def test_step_count_limit():
    assert step_count(0.1, 0.3) == (3, True)
    assert step_count(0.03, 0.1) == (4, False)
    assert step_count(1.0 / MAX_STEPS, 1.0)[0] == MAX_STEPS
    with pytest.raises(ValueError, match="more than"):
        step_count(0.5 / MAX_STEPS, 1.0)
