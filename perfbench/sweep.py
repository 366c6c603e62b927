"""Layer size sweep: median microseconds per call at n = 256 ... 16384.

Each size draws its own seeded band-limited state on the sphere (the
validation battery's generator) and times one public entry point per layer.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from rhosphere import grid as grid_mod
from rhosphere import integrate, lagrangian, oracle, reconstruct, validate

SIZES = (256, 1024, 4096, 16384)
DIRECT_MAX_N = 1024  # the dense kernel holds several n x n/2 complex matrices
STEPS = 16           # steps per timed `evolve` call, its set-up included


def median_us(fn, min_reps=5, min_seconds=0.05, max_reps=200):
    fn()  # warm caches and lazy set-up
    times = []
    start = perf_counter()
    while len(times) < max_reps and (len(times) < min_reps or perf_counter() - start < min_seconds):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_sweep(seed):
    out = {}
    for n in SIZES:
        rng = np.random.default_rng([seed, n])
        grid = grid_mod.PeriodicGrid(n)
        state = validate.random_state(grid, rng)
        mu = float(rng.uniform(-0.5, 0.5))
        vel = lagrangian.lagrangian_velocity(grid, state, mu)
        fmap = reconstruct.flow_map(grid, state)
        y = np.arange(n) / n
        rho2 = state.rho * state.rho
        u = reconstruct.eulerian_velocity(grid, state, mu).u
        cfg = integrate.IntegratorConfig(dt=1e-4, t_end=STEPS * 1e-4, snapshot_stride=STEPS)
        timed = {
            "lagrangian.rhs_us": lambda: lagrangian.evaluate(grid, state, mu),
            "lagrangian.kernel_fast_us": lambda: lagrangian.pressure(grid, state, vel, mode="fast"),
            "grid.antideriv_us": lambda: grid.cumint_spectral(rho2),
            "integrate.project_us": lambda: integrate.project(grid, state),
            "integrate.step_us": lambda: integrate.evolve(grid, state, mu, cfg),
            "reconstruct.flow_map_us": lambda: reconstruct.flow_map(grid, state),
            "reconstruct.invert_us": lambda: fmap.invert(y),
            "reconstruct.field_us": lambda: reconstruct.eulerian_velocity(grid, state, mu),
            "oracle.rhs_us": lambda: oracle.eulerian_rhs(grid, u),
        }
        if n <= DIRECT_MAX_N:
            timed["lagrangian.kernel_direct_us"] = lambda: lagrangian.pressure(grid, state, vel, mode="direct")
        for name, fn in timed.items():
            value = median_us(fn)
            if name == "integrate.step_us":
                value /= STEPS
            out[f"{name}.n{n}"] = value
    return out
