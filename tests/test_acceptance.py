"""End-to-end acceptance battery.

One test per claim the package makes about itself, each printing a single
PASS/FAIL line (kept visible under output capture) before asserting, so a
full run reads as a scoreboard.  Expensive runs are shared through
module-scoped fixtures; the wall-clock budgets cover the work a criterion
actually triggers on first use.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rhosphere
from rhosphere import (
    InitialSpec,
    IntegratorConfig,
    bump_test,
    eulerian_velocity,
    evolve,
    gronwall_check,
    initial_state,
    state_at,
    weak_residual,
)
from rhosphere.oracle import compare as compare_at
from rhosphere.oracle import eulerian_evolve
from rhosphere.reconstruct import flow_map, slope_field, smoothness_diagnostic
from rhosphere.scenarios import make_initial
from rhosphere.validate import run_identity_suite

from exact_peakons import ExactPair


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def sine_runs():
    """Unit sine at n=512 for three time steps, through its breaking time."""
    t0 = time.perf_counter()
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        grid, state, mu = initial_state(InitialSpec("sine", 512))
        runs[dt] = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=2.0))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def peakon_run():
    """Colliding peakon pair, continued well past the collision."""
    t0 = time.perf_counter()
    grid, state, mu = initial_state(InitialSpec("peakon_pair", 1024, p=2.0))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-4, t_end=3.6))
    return grid, rec, mu, time.perf_counter() - t0


@pytest.fixture(scope="module")
def capped_references():
    """Physical-space reference runs of the same peakon data.

    The slope cap is set to 85 percent of each grid's dealiased slope
    ceiling sqrt(2 n E0 / 3), below the largest slope the scheme can
    actually represent (measured 25.7 / 36.3 / 51.4), so every level
    stops at a genuine cap crossing rather than at saturation.
    """
    t0 = time.perf_counter()
    runs = []
    for n, cap in ((1024, 22.0), (2048, 31.0), (4096, 45.0)):
        u0, _, _ = make_initial(InitialSpec("peakon_pair", n, p=2.0))
        runs.append((n, cap, eulerian_evolve(u0, 1e-4, 1.75, slope_cap=cap)))
    return runs, time.perf_counter() - t0


def test_criterion_1_identity_suite(capsys):
    t0 = time.perf_counter()
    checks = run_identity_suite(n=128, seed=2026, n_states=100)
    elapsed = time.perf_counter() - t0
    passed = sum(c.passed for c in checks)
    ok = passed == len(checks) and elapsed <= 10.0
    report(capsys, 1, ok,
           f"identity suite {passed}/{len(checks)} on 100 random states (n=128), {elapsed:.2f}s")
    assert passed == len(checks), [c.line() for c in checks if not c.passed]
    assert elapsed <= 10.0


def test_criterion_2_constant_fixed_point(capsys):
    t0 = time.perf_counter()
    grid, state, mu = initial_state(InitialSpec("constant", 256, value=0.5))
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-3, t_end=10.0))
    elapsed = time.perf_counter() - t0
    final = rec.snapshots[-1]
    dev = max(float(np.abs(rec.series.min_rho - 1.0).max()),
              float(np.abs(final.rho - 1.0).max()))
    k0_err = abs(final.k0 - 5.0)  # the label-0 particle drifts at speed 1/2
    ok = dev <= 1e-11 and k0_err <= 1e-10 and elapsed <= 5.0
    report(capsys, 2, ok,
           f"constant profile: density dev {dev:.1e}, particle position error {k0_err:.1e}, {elapsed:.1f}s")
    assert dev <= 1e-11
    assert k0_err <= 1e-10
    assert elapsed <= 5.0


def test_criterion_3_energy_conservation_and_order(sine_runs, capsys):
    runs, elapsed = sine_runs
    e0 = runs[1e-3].energy0
    exact = 0.5 + 2.0 * np.pi ** 2  # mean-square plus mean-square slope of sin(2 pi x)
    e0_err = abs(e0 - exact)
    drifts = [runs[dt].energy_drift for dt in (2e-3, 1e-3, 5e-4)]
    orders = [float(np.log2(drifts[i] / drifts[i + 1])) for i in range(2)]
    # measured: drifts 3.6e-12 / 2.2e-13 / 1.7e-14, orders 4.0 / 3.7
    ok = (drifts[1] <= 1e-8 and e0_err <= 1e-6
          and min(orders) >= 3.5 and elapsed <= 60.0)
    report(capsys, 3, ok,
           f"sine run: E(0) err {e0_err:.1e}, drift {drifts[1]:.1e}, "
           f"orders {orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f}s")
    assert e0_err <= 1e-6
    assert drifts[1] <= 1e-8
    assert min(orders) >= 3.5
    assert elapsed <= 60.0


def test_criterion_4_smooth_agreement_with_reference(capsys):
    t0 = time.perf_counter()
    l2s = []
    for n, dt in ((256, 2e-3), (512, 1e-3)):
        grid, state, mu = initial_state(InitialSpec("sine", n, amplitude=0.1))
        rec = evolve(grid, state, mu, IntegratorConfig(dt=dt, t_end=1.0))
        u0, _, _ = make_initial(InitialSpec("sine", n, amplitude=0.1))
        traj = eulerian_evolve(u0, dt, 1.0)
        l2, _ = compare_at(rec, mu, traj, 1.0, n)
        l2s.append(l2)
    elapsed = time.perf_counter() - t0
    # measured: 4.06e-6 at n=m=256, 1.04e-6 at n=m=512
    ok = l2s[-1] <= 1e-4 and l2s[1] < l2s[0] and elapsed <= 120.0
    report(capsys, 4, ok,
           f"reconstructed field vs reference: l2 {l2s[0]:.2e} -> {l2s[1]:.2e} "
           f"under joint refinement, {elapsed:.1f}s")
    assert l2s[-1] <= 1e-4
    assert l2s[1] < l2s[0]
    assert elapsed <= 120.0


def test_criterion_5_collision_against_reference_blowup(peakon_run, capped_references, capsys):
    grid, rec, mu, lag_elapsed = peakon_run
    refs, ref_elapsed = capped_references
    elapsed = lag_elapsed + ref_elapsed
    mid = grid.n // 2

    # (a) every reference run steepens to its cap at a finite time
    finite = all(traj.blowup and np.isfinite(traj.blowup_time) for _, _, traj in refs)

    # the continued run's breaking event at the collision node
    node_events = [e for e in rec.events if mid in e.locations]
    assert node_events, "no breaking event reached the collision node"
    t_event = node_events[0].time

    # (b) reference stopping times approach the event under refinement;
    # measured T: 1.495 / 1.524 / 1.546 against t_event 1.598
    gaps = [abs(t_event - traj.blowup_time) / t_event for _, _, traj in refs]
    approaching = gaps[0] > gaps[1] > gaps[2] and gaps[-1] <= 0.05

    # the run itself continues to twice the breaking time with finite fields
    s = rec.series
    continued = bool(s.t[-1] >= 2.0 * t_event and np.isfinite(s.energy).all())

    # (c) energy is conserved through 2T
    upto = int(np.searchsorted(s.t, 2.0 * t_event, side="right"))
    drift = float(np.max(np.abs(s.energy[:upto] - s.energy[0])) / s.energy[0])

    # (d) the density root actually crosses zero at the collision node
    ts = np.array([sn.t for sn in rec.snapshots])
    ia = int(np.searchsorted(ts, t_event)) - 1
    before = float(rec.snapshots[ia].rho[mid])
    after = float(rec.snapshots[ia + 1].rho[mid])
    crosses = before * after < 0.0

    ok = (finite and approaching and continued and drift <= 1e-6 and crosses
          and elapsed <= 600.0)
    gap_txt = "/".join(f"{g * 100:.1f}%" for g in gaps)
    report(capsys, 5, ok,
           f"collision event t={t_event:.4f}, reference gaps {gap_txt}, "
           f"drift(2T) {drift:.1e}, node density {before:+.1e} -> {after:+.1e}, {elapsed:.0f}s")
    assert finite
    assert approaching, (t_event, [traj.blowup_time for _, _, traj in refs])
    assert continued
    assert drift <= 1e-6
    assert crosses, (before, after)
    assert elapsed <= 600.0


def test_criterion_6_weak_form_residual_vanishes(capsys):
    # windows span the collision at t ~ 1.6; off-center bumps, since
    # symmetric ones are annihilated by the preserved odd symmetry
    phis = [bump_test(center=0.45, width=0.22, t0=1.35, t1=1.85),
            bump_test(center=0.40, width=0.30, t0=1.30, t1=1.90),
            bump_test(center=0.58, width=0.24, t0=1.42, t1=1.82)]
    t0 = time.perf_counter()
    rows = []
    for n, dt in ((256, 4e-4), (512, 2e-4), (1024, 1e-4)):
        grid, state, mu = initial_state(InitialSpec("peakon_pair", n, p=2.0))
        stride = max(1, int(round(0.01 / dt)))
        rec = evolve(grid, state, mu,
                     IntegratorConfig(dt=dt, t_end=2.0, snapshot_stride=stride))
        k = int(round(0.0096 * n))
        rows.append([abs(weak_residual(rec, mu, p, m=n, times=k, route="label"))
                     for p in phis])
    elapsed = time.perf_counter() - t0
    R = np.array(rows)
    orders = np.log2(R[:-1] / R[1:])
    # measured: 3.7e-3 / 8.4e-4 / 2.1e-4 for the first bump, orders ~ 2.1 / 2.0
    ok = (bool(np.all(R[:-1] > R[1:])) and bool(np.all(orders >= 1.0))
          and elapsed <= 600.0)
    report(capsys, 6, ok,
           f"weak residuals {R[0, 0]:.1e} -> {R[1, 0]:.1e} -> {R[2, 0]:.1e}, "
           f"min order {orders.min():.2f}, {elapsed:.0f}s")
    assert np.all(R[:-1] > R[1:]), R
    assert np.all(orders >= 1.0), orders
    assert elapsed <= 600.0


def test_criterion_7_mollified_map_stays_smooth(capsys):
    t0 = time.perf_counter()
    grid, state, mu = initial_state(
        InitialSpec("peakon_pair", 1024, p=2.0, mollify_width=1.0 / 128.0))
    slope0 = float(np.abs(slope_field(state)[0]).max())
    rec = evolve(grid, state, mu, IntegratorConfig(dt=1e-4, t_end=2.6))
    mid_events = [e for e in rec.events if 512 in e.locations]
    assert mid_events
    T = mid_events[0].time
    # mollifying the crests removes the early edge breaking entirely
    first_is_collision = abs(rec.events[0].time - T) < 1e-9

    rate_half = smoothness_diagnostic(flow_map(grid, state_at(rec, 0.5 * T)))
    rate_late = smoothness_diagnostic(flow_map(grid, state_at(rec, 1.5 * T)))
    rate_change = abs(rate_late - rate_half) / rate_half

    peak_slope = 0.0
    for sn in rec.snapshots:
        if 0.8 * T <= sn.t <= 1.2 * T:
            slopes, valid = slope_field(sn)
            if valid.any():
                peak_slope = max(peak_slope, float(np.abs(slopes[valid]).max()))
    growth = peak_slope / slope0
    elapsed = time.perf_counter() - t0
    # measured: rates 6.88 and 7.21 (4.7 percent apart), slope growth 3.0e3
    ok = (first_is_collision and rate_change <= 0.20 and growth >= 1e2
          and elapsed <= 600.0)
    report(capsys, 7, ok,
           f"map decay rate {rate_half:.2f} -> {rate_late:.2f} ({rate_change * 100:.1f}%), "
           f"slope growth {growth:.0f}x, {elapsed:.0f}s")
    assert first_is_collision, (rec.events[0].time, T)
    assert rate_change <= 0.20, (rate_half, rate_late)
    assert growth >= 1e2
    assert elapsed <= 600.0


def test_criterion_8_lower_envelope_every_step(sine_runs, peakon_run, capsys):
    runs, _ = sine_runs
    _, rec, _, _ = peakon_run
    ok_sine, margin_sine = gronwall_check(runs[1e-3], safety=0.5)
    ok_peak, margin_peak = gronwall_check(rec, safety=0.5)
    ok = ok_sine and ok_peak and min(margin_sine, margin_peak) >= 1.0
    report(capsys, 8, ok,
           f"decay envelope holds each step, margins {margin_sine:.2f} (sine) "
           f"and {margin_peak:.2f} (collision)")
    assert ok_sine and margin_sine >= 1.0
    assert ok_peak and margin_peak >= 1.0


# Times both kernel routes at n = 512 and n = 4096 and prints the best of
# seven per (mode, n) as JSON.  The sizes alternate inside every repeat, so
# a slow spell of the host falls on both sizes alike.
_KERNEL_TIMING = """
import json, sys, time
import numpy as np
from rhosphere import LagrangianState, PeriodicGrid, pressure

rng = np.random.default_rng(5)
cases = []
for n in (512, 4096):
    g = PeriodicGrid(n)
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * g.x) + 0.05 * rng.standard_normal(n)
    rho /= np.sqrt(g.quad(rho * rho))
    st = LagrangianState(rho, 0.2 * np.sin(2 * np.pi * g.x), 0.0, 0.0)
    cases.append((n, g, st, np.cos(2 * np.pi * g.x)))
best = {}
for mode in ("fast", "direct"):
    for n, g, st, vel in cases:
        pressure(g, st, vel, mode=mode)  # warm-up
        best[f"{mode} {n}"] = float("inf")
for _ in range(7):
    for mode in ("fast", "direct"):
        for n, g, st, vel in cases:
            s = time.perf_counter()
            pressure(g, st, vel, mode=mode)
            key = f"{mode} {n}"
            best[key] = min(best[key], time.perf_counter() - s)
json.dump(best, sys.stdout)
"""


def test_criterion_9_kernel_timing_scaling(capsys):
    # The timing runs in a child interpreter with BLAS and OpenMP capped at
    # one thread, as the benchmark runs; the cap must be set before numpy
    # loads.  Left multi-threaded, the dense route's matrix-vector products
    # take whatever the thread hand-off costs at the moment, so the ratio
    # would measure threading and host load instead of O(n^2) work.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src_root = str(Path(rhosphere.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _KERNEL_TIMING], env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    best = json.loads(proc.stdout)
    ratio_fast = best["fast 4096"] / best["fast 512"]
    ratio_direct = best["direct 4096"] / best["direct 512"]
    # measured with one BLAS thread: 1.2-1.6 for the transform route, whose
    # time at n = 512 is mostly fixed per-call cost, and 73-103 for the
    # dense kernel
    ok = ratio_fast <= 12.0 and ratio_direct >= 50.0
    report(capsys, 9, ok,
           f"8x grid costs {ratio_fast:.1f}x by transform, {ratio_direct:.0f}x dense, {elapsed:.0f}s")
    assert ratio_fast <= 12.0, best
    assert ratio_direct >= 50.0, best


def test_exact_pair_reference_solves_the_peakon_ode():
    # the reference criterion 10 relies on: it starts from the package's
    # initial profile, and its half-distance closes at d' = -p g(d)
    pair = ExactPair(energy=1.0, d=0.1)
    u0, _, _ = make_initial(InitialSpec("peakon_pair", 256, p=pair.p, q1=0.4, q2=0.6))
    assert np.max(np.abs(pair.velocity(0.0, np.arange(256) / 256) - u0)) <= 1e-13
    for t in (0.2, 0.9 * pair.collision_time):
        h = 1e-4
        slope = (pair.half_distance(t + h) - pair.half_distance(t - h)) / (2 * h)
        d = pair.half_distance(t)
        g = np.sinh(d) * np.sinh(0.5 - d) / np.sinh(0.5)
        assert slope == pytest.approx(-np.sqrt(pair.energy * g / 2), rel=1e-6)
    # the reflection past the collision swaps the crests' signs
    x = np.linspace(0.0, 1.0, 101)
    s = 0.3 * pair.collision_time
    assert np.max(np.abs(pair.velocity(pair.collision_time + s, x) + pair.velocity(pair.collision_time - s, x))) <= 1e-12


def test_criterion_10_exact_continuation_after_collision(capsys):
    # the conservative continuation of the antisymmetric pair is the
    # reflection u(t_c + s) = -u(t_c - s) of the exact solution; checked
    # at 1.4 and 1.8 t_c on the error-controlled default step, and at
    # n = 1024 also on a fixed step of 1e-3
    pair = ExactPair(energy=1.0, d=0.1)
    t_c = pair.collision_time
    t0 = time.perf_counter()
    l2 = {}
    for n, dt in ((1024, None), (4096, None), (1024, 1e-3)):
        grid, state, mu = initial_state(InitialSpec("peakon_pair", n, p=pair.p, q1=0.4, q2=0.6))
        for share in (1.4, 1.8):
            rec = evolve(grid, state, mu,
                         IntegratorConfig(dt=dt, t_end=share * t_c, snapshot_stride=10**9))
            field = eulerian_velocity(grid, rec.snapshots[-1], mu)
            exact = pair.velocity(field.t, field.y)
            l2[n, dt, share] = float(np.sqrt(np.mean((field.u - exact) ** 2)))
    elapsed = time.perf_counter() - t0
    coarse = [l2[1024, None, s] for s in (1.4, 1.8)]
    fine = [l2[4096, None, s] for s in (1.4, 1.8)]
    fixed = [l2[1024, 1e-3, s] for s in (1.4, 1.8)]
    drops = [c / f for c, f in zip(coarse, fine)]
    step_gap = max(abs(a - b) for a, b in zip(coarse, fixed))
    # measured: l2 3.9e-4 / 4.8e-4 at n = 1024 and 9.8e-5 / 1.2e-4 at
    # n = 4096, a drop of 4.0x, the two steps 1.8e-11 apart
    ok = (max(coarse) <= 1e-3 and max(fine) <= 2.5e-4 and min(drops) >= 3.0
          and step_gap <= 1e-6 and elapsed <= 120.0)
    report(capsys, 10, ok,
           f"exact continuation at 1.4/1.8 t_c: l2 {coarse[0]:.1e}/{coarse[1]:.1e} (n=1024) -> "
           f"{fine[0]:.1e}/{fine[1]:.1e} (n=4096), drop {min(drops):.1f}x, "
           f"fixed-step gap {step_gap:.1e}, {elapsed:.0f}s")
    assert max(coarse) <= 1e-3, coarse
    assert max(fine) <= 2.5e-4, fine
    assert min(drops) >= 3.0, drops
    assert step_gap <= 1e-6, (coarse, fixed)
    assert elapsed <= 120.0
