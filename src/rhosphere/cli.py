"""Command-line front end.

Four subcommands: ``simulate`` runs the label-space solver and writes a
run directory, ``validate`` runs the self-check battery, ``compare`` runs
both solvers on the same initial profile and reports the distance,
``sweep`` expands the Cartesian product of swept keys over a process pool.

Output files are plain CSV / key = value text, floats rendered with
repr() so that a rerun of the same configuration is byte-identical.
``simulate`` writes the snapshot files from up to one process per CPU
(forked children and this process, snapshot i from process i mod p); the
bytes of the run directory do not depend on p.

Exit codes: 0 success, 1 configuration problems, 2 a run that stopped
early (non-finite step or reference-solver blowup), 3 validation failure.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULTS, ConfigError, RunConfig, parse_config
from .grid import PeriodicGrid
from .integrate import SimulationRecord, StepFailure, StepLimitError, default_dt, evolve, step_count
from .lagrangian import H_CONVENTION_NOTE, energy, lagrangian_velocity
from .oracle import compare as compare_at
from .oracle import eulerian_evolve
from .reconstruct import flow_map, slope_field
from .scenarios import lagrangian_initial, make_initial
from .validate import full_validation


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, tuple):
        return " ".join(_fmt(v) for v in x)
    return str(x)


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _floats(a: np.ndarray):
    """A float column as strings: repr of an element of tolist() is exactly
    what _fmt gives the float, with no Python call of ours per entry."""
    return map(repr, a.tolist())


def _write_series(out: Path, record: SimulationRecord) -> None:
    s = record.series
    columns = (s.t, s.energy, s.sphere_defect, s.tangency_defect,
               s.min_rho, s.flat_measure, s.mu_check)
    rows = map(",".join, zip(*map(_floats, columns)))
    _write_lines(out / "series.csv",
                 chain(["t,energy,sphere_defect,tangency_defect,min_rho,flat_measure,mu_check"], rows))


def _write_events(out: Path, record: SimulationRecord) -> None:
    lines = ["time,min_rho,locations"]
    for ev in record.events:
        lines.append(f"{_fmt(ev.time)},{_fmt(ev.min_rho)},{';'.join(str(j) for j in ev.locations)}")
    _write_lines(out / "events.csv", lines)


def _write_snapshot(snapdir: Path, grid: PeriodicGrid, record: SimulationRecord, x: list[str], i: int) -> None:
    """Fields of snapshot i and its file; x is the grid's x column."""
    state = record.snapshots[i]
    fmap = flow_map(grid, state)
    vel = lagrangian_velocity(grid, state, record.mu)
    slopes, valid = slope_field(state)
    columns = (state.rho, state.rho_t, fmap.knots[:grid.n], vel, slopes)
    rows = map(",".join, zip(x, *map(_floats, columns), map("01".__getitem__, valid.tolist())))
    _write_lines(snapdir / f"snap_{record.snapshot_steps[i]:06d}.csv",
                 chain(["x,rho,rho_t,K,u,ux,valid_ux"], rows))


def _write_snapshots(snapdir: Path, grid: PeriodicGrid, record: SimulationRecord, x: list[str],
                     indices: range) -> None:
    for i in indices:
        _write_snapshot(snapdir, grid, record, x, i)


def _cpus() -> int:
    """Processes a run's snapshot files may be written from: the CPUs this
    process may run on, or 1 where processes cannot be forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_run_files(out: Path, grid: PeriodicGrid, record: SimulationRecord, processes: int) -> None:
    """series.csv, events.csv and the snapshot files, from p = min(processes,
    snapshots) processes: this one and p - 1 forked children, snapshot i
    from process i mod p.  The children read the record from the memory
    they share with this process, so nothing is pickled; they are forked
    before this process writes anything, and all are joined before this
    returns or raises.  A child that exits non-zero is a RuntimeError."""
    snapdir = out / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    x = list(_floats(grid.x))
    count = len(record.snapshots)
    p = max(1, min(processes, count))
    children = []
    try:
        for r in range(1, p):
            # the fork context flushes stdout and stderr first, and the child
            # leaves through os._exit, so no buffered output is written twice
            child = multiprocessing.get_context("fork").Process(
                target=_write_snapshots, args=(snapdir, grid, record, x, range(r, count, p)),
                name=f"snapshot writer {r} of {p}")
            child.start()
            children.append(child)
        _write_series(out, record)
        _write_events(out, record)
        _write_snapshots(snapdir, grid, record, x, range(0, count, p))
    finally:
        for child in children:
            child.join()
    failed = [f"{c.name} (pid {c.pid}) exited with code {c.exitcode}" for c in children if c.exitcode]
    if failed:
        raise RuntimeError("; ".join(failed))


def _write_metadata(out: Path, command: str, cfg: RunConfig, record: SimulationRecord | None,
                    extra: dict | None = None) -> None:
    lines = [
        f"package = rhosphere {__version__}",
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"command = {command}",
    ]
    keys = sorted(set(DEFAULTS) | set(cfg.values))
    for key in keys:
        lines.append(f"{key} = {_fmt(cfg.get(key))}")
    if record is not None:
        lines.append(f"dt = {_fmt(record.dt)}")
        lines.append(f"dt_heuristic = {_fmt(record.dt_heuristic)}")
        lines.append(f"mu = {_fmt(record.mu)}")
        lines.append(f"energy_initial = {_fmt(record.energy0)}")
        lines.append(f"energy_drift = {_fmt(record.energy_drift)}")
        lines.append(f"events = {len(record.events)}")
        if record.adaptive:
            lines.append(f"steps_accepted = {record.steps_accepted}")
            lines.append(f"steps_rejected = {record.steps_rejected}")
            lines.append(f"rhs_evaluations = {record.rhs_evaluations}")
    for k, v in (extra or {}).items():
        lines.append(f"{k} = {_fmt(v)}")
    lines.append(f"pressure_gradient_convention = {H_CONVENTION_NOTE}")
    _write_lines(out / "metadata.txt", lines)


def _build_run(cfg: RunConfig):
    """Grid, lifted initial state and mean velocity of a run.  A finite but
    huge profile can overflow u0, u0x or the energy every run starts from;
    that is a ConfigError, as is any profile the lift rejects."""
    spec = cfg.initial_spec()
    grid = PeriodicGrid(spec.n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            u0, u0x, mu = make_initial(spec)
            state = lagrangian_initial(grid, u0, u0x)
            energy(grid, state, mu)
    except ValueError as exc:
        raise ConfigError(f"initial profile {spec.kind!r} is unusable: {exc}") from None
    return grid, state, mu


def _check_snapshot_grid(grid, state, mu, icfg):
    """A run without run.dt too long for the snapshot grid of its default
    spacing is a configuration problem."""
    if icfg.dt is None:
        try:
            step_count(default_dt(grid, state, mu), icfg.t_end, "the snapshot spacing default_dt")
        except StepLimitError as exc:
            raise ConfigError(str(exc)) from None


def _simulate_to(cfg: RunConfig, out: Path, processes: int = 1):
    """Run cfg and write its run directory, the snapshot files from up to
    `processes` processes."""
    grid, state, mu = _build_run(cfg)
    icfg = cfg.integrator_config()
    _check_snapshot_grid(grid, state, mu, icfg)
    code = 0
    try:
        record = evolve(grid, state, mu, icfg)
    except StepFailure as fail:
        record = fail.record
        print(f"run stopped early: {fail}", file=sys.stderr)
        code = 2
    out.mkdir(parents=True, exist_ok=True)
    _write_run_files(out, grid, record, processes)
    _write_metadata(out, "simulate", cfg, record, {"completed": code == 0})
    print(f"wrote {out}  (steps={record.series.t.size - 1}, events={len(record.events)}, "
          f"energy drift={record.energy_drift:.3e})")
    return code, record, grid


def run_simulate(cfg: RunConfig, out: Path) -> int:
    code, _, _ = _simulate_to(cfg, out, _cpus())
    return code


def run_validate(cfg: RunConfig, out: Path | None, flip_h_sign: bool) -> int:
    checks = full_validation(**cfg.validation_args(), flip_h_sign=flip_h_sign)
    lines = [c.line() for c in checks]
    for line in lines:
        print(line)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_lines(out / "validation.txt", lines)
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    print(f"all {len(checks)} checks passed")
    return 0


def run_compare(cfg: RunConfig, out: Path | None) -> int:
    grid, state, mu = _build_run(cfg)
    icfg = cfg.integrator_config()
    args = cfg.compare_args()
    t_list, cap, m = args["times"], args["slope_cap"], args["m"]
    _check_snapshot_grid(grid, state, mu, icfg)
    try:
        record = evolve(grid, state, mu, icfg)
    except StepFailure as fail:
        print(f"run stopped early: {fail}", file=sys.stderr)
        return 2

    u0, _, _ = make_initial(cfg.initial_spec())
    dt_ref = record.dt if args["dt"] is None else float(args["dt"])
    traj = eulerian_evolve(u0, dt_ref, icfg.t_end, slope_cap=cap, dealias=args["dealias"])
    if traj.blowup:
        print(f"reference solver stopped at t = {traj.blowup_time:g} (slope cap {cap:g})",
              file=sys.stderr)
        if traj.times[-1] < t_list[0]:
            return 2
    m = int(m) if m is not None else traj.n
    rows = []
    skipped = []
    for t in t_list:
        if t > traj.times[-1]:
            skipped.append(t)
            continue
        l2, linf = compare_at(record, mu, traj, t, m)
        rows.append((t, l2, linf))
        print(f"t = {t:g}  l2 = {l2:.6e}  linf = {linf:.6e}")
    if skipped:
        print("skipped (past reference stop): " + " ".join(f"{t:g}" for t in skipped),
              file=sys.stderr)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["t,l2,linf"]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_lines(out / "compare.csv", lines)
        extra = {"oracle_dt": dt_ref, "compare_m": m,
                 "oracle_blowup_time": traj.blowup_time if traj.blowup else None}
        if skipped:
            extra["skipped_times"] = tuple(skipped)
        _write_metadata(out, "compare", cfg, record, extra)
    return 0


def _sweep_worker(payload):
    values, assignment, run_dir = payload
    cfg = RunConfig(dict(values))
    for key, val in assignment.items():
        cfg.values[key] = val
    # the sweep is parallel across its points already
    code, record, _ = _simulate_to(cfg, Path(run_dir), 1)
    drift = record.energy_drift if record.series.t.size else None
    breaking = record.events[0].time if record.events else None
    max_slope = 0.0
    for snap in record.snapshots:
        slopes, _ = slope_field(snap)
        max_slope = max(max_slope, float(np.max(np.abs(slopes))))
    return assignment, code, breaking, drift, max_slope


def run_sweep(cfg: RunConfig, out: Path, workers: int) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep requires at least one 'sweep.<key> = values' line")
    keys = list(cfg.sweep)
    combos = list(product(*(cfg.sweep[k] for k in keys)))
    payloads = []
    for idx, combo in enumerate(combos):
        assignment = dict(zip(keys, combo))
        # reject a bad swept value before any run starts
        run_cfg = cfg.with_values(assignment)
        icfg = run_cfg.integrator_config()
        _check_snapshot_grid(*_build_run(run_cfg), icfg)
        payloads.append((cfg.values, assignment, str(out / f"run_{idx:04d}")))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]
    out.mkdir(parents=True, exist_ok=True)
    lines = ["run," + ",".join(keys) + ",exit,breaking_time,energy_drift,max_slope"]
    succeeded = 0
    for idx, (assignment, code, breaking, drift, max_slope) in enumerate(results):
        succeeded += code == 0
        row = [f"run_{idx:04d}"]
        row += [_fmt(assignment[k]) for k in keys]
        row.append(str(code))
        row.append("" if breaking is None else _fmt(breaking))
        row.append("" if drift is None else _fmt(drift))
        row.append("" if max_slope is None else _fmt(max_slope))
        lines.append(",".join(row))
    _write_lines(out / "summary.csv", lines)
    print(f"wrote {out / 'summary.csv'}  ({len(combos)} runs, {len(keys)} swept keys, "
          f"{succeeded} succeeded)")
    return 0 if succeeded else 2


def _resolve_workers(arg_value) -> int:
    if arg_value is not None:
        value = arg_value
    else:
        env = os.environ.get("RHO_SPHERE_WORKERS")
        if env is None:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"RHO_SPHERE_WORKERS must be an integer, got {env!r}") from None
    if value < 1:
        raise ConfigError("worker count must be at least 1")
    return value


def _load(args) -> RunConfig:
    cfg = parse_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    if getattr(args, "n", None) is not None:
        overrides["grid.n"] = args.n
        overrides["validate.n"] = args.n
    if getattr(args, "dt", None) is not None:
        overrides["run.dt"] = args.dt
    if getattr(args, "t_end", None) is not None:
        overrides["run.t_end"] = args.t_end
    if getattr(args, "seed", None) is not None:
        overrides["validate.seed"] = args.seed
    return cfg.with_values(overrides) if overrides else cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhosphere",
        description="Periodic shallow-water waves continued through breaking in label-space coordinates.",
    )
    parser.add_argument("--version", action="version", version=f"rhosphere {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", type=Path, help="flat key = value configuration file")
        p.add_argument("--out", type=Path, required=out_required, help="output directory")
        p.add_argument("--n", type=int, help="override grid size")
        p.add_argument("--dt", type=float, help="override time step")
        p.add_argument("--t-end", type=float, help="override final time")

    common(sub.add_parser("simulate", help="run the label-space solver"), out_required=True)
    val = sub.add_parser("validate", help="run the self-check battery")
    common(val)
    val.add_argument("--seed", type=int, help="override validate.seed")
    val.add_argument("--flip-h-sign", action="store_true", help=argparse.SUPPRESS)
    common(sub.add_parser("compare", help="run both solvers and report their distance"))
    swp = sub.add_parser("sweep", help="Cartesian-product parameter sweep")
    common(swp, out_required=True)
    swp.add_argument("--workers", type=int, help="process count (default: RHO_SPHERE_WORKERS or all cores)")

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "simulate":
            return run_simulate(cfg, args.out)
        if args.command == "validate":
            return run_validate(cfg, args.out, args.flip_h_sign)
        if args.command == "compare":
            return run_compare(cfg, args.out)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, _resolve_workers(args.workers))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
