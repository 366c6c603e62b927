"""Command-line front end.

Four subcommands: ``simulate`` runs the label-space solver and writes a
run directory, ``validate`` runs the self-check battery, ``compare`` runs
both solvers on the same initial profile and reports the distance,
``sweep`` expands the Cartesian product of swept keys over a process pool.

Output files are plain CSV / key = value text, every float written as
its repr() so that a rerun of the same configuration is byte-identical.
The float blocks of series.csv and the snapshot files are formatted by
one orjson call each, whose shortest round-trip digits are repr's; an
entry whose layout orjson writes differently takes its repr instead (see
_rows).
``simulate`` streams its snapshots to one writer child, forked before
the run if it makes at least two, while `evolve` runs: the child is sent
raw float64 messages and allowed CREDITS files in flight, with this
process holding the rest, up to PENDING_BYTES, and writing the oldest
itself past that.  After the run this process writes series.csv and
events.csv, then shares the snapshots still held; metadata.txt comes
last.  Without the child (where `_affinity.can_fork` is false, for one
snapshot, or at a sweep point) each snapshot file is written as soon as
`evolve` makes it.  The bytes of the run directory are the same either
way.  The child comes from `_affinity.child`; that module says how
rhosphere forks and why the child keeps off this process's CPU.

Exit codes: 0 success, 1 configuration problems, 2 a run that stopped
early (non-finite step or reference-solver blowup), 3 validation failure.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from collections import deque
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__, _affinity
from .config import DEFAULTS, ConfigError, RunConfig, parse_config
from .grid import PeriodicGrid
from .integrate import SimulationRecord, StepFailure, StepLimitError, default_dt, evolve, step_count
from .lagrangian import H_CONVENTION_NOTE, LagrangianState, energy, lagrangian_velocity
from .oracle import compare as compare_at
from .oracle import eulerian_evolve
from .reconstruct import flow_map, slope_field
from .scenarios import initial_state, make_initial
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


def _make_dir(path: Path) -> None:
    """Create the directory path and its parents.  One that cannot be made,
    as under a regular file, is a configuration problem, met before any
    work."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {path}: {exc.strerror or exc}") from None


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _rows(block: np.ndarray) -> list[str]:
    """The rows of a 2-D C-contiguous float64 block as text, each the comma
    join of its entries' repr.

    One orjson call formats the whole block.  Its digits are repr's, the
    shortest that round-trip, and so is its layout for |x| < 1e-9 and for
    1e-4 <= |x| < 1e16.  Elsewhere it differs (0.0000123, 1e-9, 1e16 and
    null against 1.23e-05, 1e-09, 1e+16 and nan or inf), so such an entry
    takes its repr in place of orjson's text.
    """
    import orjson

    if not len(block):
        return []
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    a = np.abs(block)
    plain = (a < 1e-9) | ((a >= 1e-4) & (a < 1e16))
    for i in np.flatnonzero(~plain.all(axis=1)).tolist():
        rows[i] = ",".join([p if ok else repr(x) for p, ok, x in
                            zip(rows[i].split(","), plain[i].tolist(), block[i].tolist())])
    return rows


def _write_series(out: Path, record: SimulationRecord) -> None:
    s = record.series
    block = np.column_stack((s.t, s.energy, s.sphere_defect, s.tangency_defect,
                             s.min_rho, s.flat_measure, s.mu_check))
    _write_lines(out / "series.csv",
                 chain(["t,energy,sphere_defect,tangency_defect,min_rho,flat_measure,mu_check"], _rows(block)))


def _write_events(out: Path, record: SimulationRecord) -> None:
    lines = ["time,min_rho,locations"]
    for ev in record.events:
        lines.append(f"{_fmt(ev.time)},{_fmt(ev.min_rho)},{';'.join(str(j) for j in ev.locations)}")
    _write_lines(out / "events.csv", lines)


def _write_snapshot(snapdir: Path, grid: PeriodicGrid, mu: float, state: LagrangianState, step: int) -> None:
    """Fields of the snapshot at step and its file."""
    fmap = flow_map(grid, state)
    vel = lagrangian_velocity(grid, state, mu)
    slopes, valid = slope_field(state)
    block = np.column_stack((grid.x, state.rho, state.rho_t, fmap.knots[:grid.n], vel, slopes))
    rows = map(",".join, zip(_rows(block), map("01".__getitem__, valid.tolist())))
    _write_lines(snapdir / f"snap_{step:06d}.csv", chain(["x,rho,rho_t,K,u,ux,valid_ux"], rows))


# snapshot files the writer child may have in flight: the one it writes
# and the next, so that it never waits for the parent to send
CREDITS = 2
# bytes of snapshot messages the parent holds for its child; past this it
# writes the oldest itself, so its memory does not grow with the snapshots
PENDING_BYTES = 32 * 2**20


def _message(state: LagrangianState, step: int) -> np.ndarray:
    """A snapshot as one float64 message: step, t, k0, rho, rho_t."""
    return np.concatenate(((step, state.t, state.k0), state.rho, state.rho_t))


def _unpack(msg: np.ndarray) -> tuple[LagrangianState, int]:
    n = (msg.size - 3) // 2
    return LagrangianState(msg[3:3 + n], msg[3 + n:], float(msg[2]), float(msg[1])), int(msg[0])


def _window(fd: int, msg_bytes: int) -> int:
    """Files in flight the child's data pipe can hold without a send
    waiting on the child: CREDITS, or fewer if the pipe cannot be made that
    large."""
    import fcntl

    try:
        size = fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, CREDITS * msg_bytes)
    except (AttributeError, OSError):
        size = 2**16
    return max(1, min(CREDITS, size // msg_bytes))


class _SnapshotWriters:
    """The snapshot files of one run, written as `evolve` makes them.

    Without a child each call writes its file at once.  With one, a forked
    child writes them: each snapshot becomes a message of raw float64
    bytes, held in a deque until the child has fewer than its window of
    files in flight, and sent down its pipe; the child acks each file it
    finishes.  Nothing is pickled.  Past PENDING_BYTES held, this process
    writes the oldest message itself.  After the run, `drain` shares what
    is left: the child takes messages from the front, this process from
    the back.  `close` joins the child; a child that died is a
    RuntimeError from `check`, never an exception inside `evolve`.  The
    child comes from `_affinity.child`, so it keeps off the CPU this
    process was on, where each send would wake it and make `evolve` wait
    while it writes.
    """

    def __init__(self, snapdir: Path, grid: PeriodicGrid, mu: float, fork: bool):
        self.snapdir, self.grid, self.mu = snapdir, grid, mu
        self.pending = deque()
        self.pending_bytes = 0
        self.in_flight = 0
        self.alive = fork
        self.process = None
        if not fork:
            return
        data_r, self.data = os.pipe()
        self.ack, ack_w = os.pipe()
        os.set_blocking(self.ack, False)
        self.window = _window(self.data, 8 * (3 + 2 * grid.n))
        self.process = _affinity.child(self._child, (data_r, ack_w), "snapshot writer")
        try:
            self.process.start()
        except BaseException:
            self.close()
            raise
        finally:
            os.close(data_r)
            os.close(ack_w)

    def _child(self, data: int, ack: int) -> None:
        """The child's loop: read a message, write its file, ack one byte,
        until the parent closes the data pipe.  It first closes the
        parent's pipe ends it inherited, or the data pipe would never reach
        end of file."""
        os.close(self.data)
        os.close(self.ack)
        msg = np.empty(3 + 2 * self.grid.n)
        with open(data, "rb") as pipe:
            while pipe.readinto(memoryview(msg).cast("B")) == msg.nbytes:
                _write_snapshot(self.snapdir, self.grid, self.mu, *_unpack(msg))
                os.write(ack, b"\0")
        os.close(ack)

    def __call__(self, state: LagrangianState, step: int) -> None:
        """evolve's on_snapshot: write the file, or queue it for the child."""
        if self.process is None:
            _write_snapshot(self.snapdir, self.grid, self.mu, state, step)
            return
        msg = _message(state, step)
        self.pending.append(msg)
        self.pending_bytes += msg.nbytes
        self._feed()
        while self.pending_bytes > PENDING_BYTES:
            self._write_own(self.pending.popleft())

    def _write_own(self, msg: np.ndarray) -> None:
        self.pending_bytes -= msg.nbytes
        _write_snapshot(self.snapdir, self.grid, self.mu, *_unpack(msg))

    def _feed(self) -> None:
        """Send from the front of the deque while the child has room; its
        acks are read only when it has none."""
        while self.pending and self.alive:
            if self.in_flight == self.window:
                try:
                    acks = os.read(self.ack, 64)
                except BlockingIOError:
                    return
                self.in_flight -= len(acks)
                # end of file: the child is gone
                self.alive = bool(acks)
                continue
            msg = self.pending[0]
            try:
                view = memoryview(msg).cast("B")
                while view:
                    view = view[os.write(self.data, view):]
            except BrokenPipeError:
                self.alive = False
                return
            self.pending.popleft()
            self.pending_bytes -= msg.nbytes
            self.in_flight += 1

    def drain(self) -> None:
        """Write every pending snapshot, this process from the back of the
        deque while the child takes from the front."""
        while self.pending:
            self._feed()
            if self.pending:
                self._write_own(self.pending.pop())

    def close(self) -> None:
        """End of input for the child, then join it."""
        if self.process is not None:
            os.close(self.data)
            if self.process.pid is not None:
                self.process.join()
            os.close(self.ack)

    def check(self) -> None:
        """A RuntimeError if the child exited non-zero."""
        if self.process is not None and self.process.exitcode:
            raise RuntimeError(f"{self.process.name} (pid {self.process.pid}) exited with code "
                               f"{self.process.exitcode}")


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
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            grid, state, mu = initial_state(spec)
            energy(grid, state, mu)
    except ValueError as exc:
        raise ConfigError(f"initial profile {spec.kind!r} is unusable: {exc}") from None
    return grid, state, mu


def _snapshot_count(grid, state, mu, icfg) -> int:
    """Snapshots a run makes if it completes: every stride-th point of its
    dt grid, and the last.  A run without run.dt too long for the snapshot
    grid of its default spacing is a configuration problem."""
    adaptive = icfg.dt is None
    try:
        steps, _ = step_count(default_dt(grid, state, mu) if adaptive else icfg.dt, icfg.t_end,
                              "the snapshot spacing default_dt" if adaptive else "dt")
    except StepLimitError as exc:
        raise ConfigError(str(exc)) from None
    return (steps - 1) // icfg.snapshot_stride + 2 if steps else 1


def _simulate_to(cfg: RunConfig, out: Path, fork: bool = False, observe=None):
    """Run cfg and write its run directory, the snapshot files streamed to
    a writer child while `evolve` runs if `fork` and the run makes at least
    two; observe(state), when given, sees each snapshot too."""
    grid, state, mu = _build_run(cfg)
    icfg = cfg.integrator_config()
    fork = _snapshot_count(grid, state, mu, icfg) > 1 and fork
    snapdir = out / "snapshots"
    _make_dir(snapdir)
    writers = _SnapshotWriters(snapdir, grid, mu, fork)
    on_snapshot = writers
    if observe is not None:
        def on_snapshot(snapshot, step):
            observe(snapshot)
            writers(snapshot, step)
    code = 0
    try:
        try:
            record = evolve(grid, state, mu, icfg, on_snapshot=on_snapshot)
        except StepFailure as fail:
            record = fail.record
            print(f"run stopped early: {fail}", file=sys.stderr)
            code = 2
        _write_series(out, record)
        _write_events(out, record)
        writers.drain()
    finally:
        writers.close()
    writers.check()
    _write_metadata(out, "simulate", cfg, record, {"completed": code == 0})
    print(f"wrote {out}  (steps={record.series.t.size - 1}, events={len(record.events)}, "
          f"energy drift={record.energy_drift:.3e})")
    return code, record, grid


def run_simulate(cfg: RunConfig, out: Path) -> int:
    code, _, _ = _simulate_to(cfg, out, _affinity.can_fork())
    return code


def run_validate(cfg: RunConfig, out: Path | None, flip_h_sign: bool) -> int:
    args = cfg.validation_args()
    if out is not None:
        _make_dir(out)
    checks = full_validation(**args, flip_h_sign=flip_h_sign)
    lines = [c.line() for c in checks]
    for line in lines:
        print(line)
    if out is not None:
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
    _snapshot_count(grid, state, mu, icfg)  # for its ConfigError only
    fresh = out is not None and not out.exists()
    if out is not None:
        _make_dir(out)

    def stopped() -> int:
        # a compare that writes no file leaves no directory of its own
        if fresh:
            out.rmdir()
        return 2

    try:
        record = evolve(grid, state, mu, icfg)
    except StepFailure as fail:
        print(f"run stopped early: {fail}", file=sys.stderr)
        return stopped()

    u0, _, _ = make_initial(cfg.initial_spec())
    dt_ref = record.dt if args["dt"] is None else float(args["dt"])
    traj = eulerian_evolve(u0, dt_ref, icfg.t_end, slope_cap=cap, dealias=args["dealias"])
    if traj.blowup:
        print(f"reference solver stopped at t = {traj.blowup_time:g} (slope cap {cap:g})",
              file=sys.stderr)
        if traj.times[-1] < t_list[0]:
            return stopped()
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
    max_slope = 0.0

    def observe(snapshot):
        nonlocal max_slope
        max_slope = max(max_slope, float(np.max(np.abs(slope_field(snapshot)[0]))))

    # the sweep is parallel across its points already
    code, record, _ = _simulate_to(cfg, Path(run_dir), False, observe)
    drift = record.energy_drift if record.series.t.size else None
    breaking = record.events[0].time if record.events else None
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
        _snapshot_count(*_build_run(run_cfg), icfg)
        payloads.append((cfg.values, assignment, str(out / f"run_{idx:04d}")))
    _make_dir(out)
    # a fork pool starts all its workers at the first submit, so never
    # more than there are points
    workers = min(workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]
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
    if arg_value is None:
        return _affinity.cpus()
    if arg_value < 1:
        raise ConfigError("worker count must be at least 1")
    return arg_value


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
    swp.add_argument("--workers", type=int, help="process count (default: the CPUs this process may use)")

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
