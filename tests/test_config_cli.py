"""Configuration parsing and the command-line front end.

Runs main() in process with small grids so the whole file stays fast.
"""

import concurrent.futures
import contextlib
import errno
import io
import multiprocessing
import os
import re
import select
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rhosphere._affinity as affinity
import rhosphere.cli as cli
from rhosphere.cli import _fmt, _simulate_to, main
from rhosphere.config import (DEFAULTS, MAX_GRID_SIZE, MAX_VALIDATE_N, MAX_VALIDATE_STATES, SCHEMA, ConfigError,
                              RunConfig, parse_config)
from rhosphere.integrate import StepFailure, evolve
from rhosphere.lagrangian import lagrangian_velocity
from rhosphere.reconstruct import flow_map, slope_field
from rhosphere.validate import full_validation


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- config


def test_parse_config_types_and_comments(tmp_path):
    path = write_cfg(tmp_path, "\n".join([
        "# full-line comment",
        "grid.n = 96",
        "run.dt = 2e-3   # trailing comment",
        "run.projection = off",
        "initial.kind = fourier",
        "initial.cos_coeffs = 0.1 -0.2",
        "compare.times = 0.25 0.5",
        "",
        "validate.seed = 7",
    ]))
    cfg = parse_config(path)
    assert cfg.values["grid.n"] == 96
    assert cfg.values["run.dt"] == 2e-3
    assert cfg.values["run.projection"] is False
    assert cfg.values["initial.cos_coeffs"] == (0.1, -0.2)
    assert cfg.values["compare.times"] == (0.25, 0.5)
    assert cfg.values["validate.seed"] == 7
    assert cfg.sweep == {}


def test_parse_config_sweep_lines(tmp_path):
    path = write_cfg(tmp_path, "\n".join([
        "initial.kind = sine",
        "sweep.initial.amplitude = 0.5 1.0 2.0",
        "sweep.grid.n = 64 128",
    ]))
    cfg = parse_config(path)
    assert cfg.sweep["initial.amplitude"] == [0.5, 1.0, 2.0]
    assert cfg.sweep["grid.n"] == [64, 128]


@pytest.mark.parametrize("line,fragment", [
    ("no_such.key = 1", "unknown configuration key"),
    ("grid.n = twelve", "expected int"),
    ("run.projection = maybe", "expected a boolean"),
    ("grid.n =", "empty value"),
    ("just some words", "expected 'key = value'"),
    ("sweep.no_such.key = 1 2", "unknown sweep target"),
    ("sweep.compare.times = 1 2", "cannot sweep list-valued key"),
])
def test_parse_config_rejects(tmp_path, line, fragment):
    path = write_cfg(tmp_path, "grid.n = 64\n" + line + "\n")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_config_error_carries_line_number(tmp_path):
    path = write_cfg(tmp_path, "grid.n = 64\n\nbogus.key = 3\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3"):
        parse_config(path)


def test_runconfig_defaults_and_set():
    cfg = RunConfig()
    assert cfg.get("grid.n") == DEFAULTS["grid.n"]
    assert cfg.get("run.dt") is None  # no default: heuristic chooses
    # a value is set on a copy, which keeps the rest
    changed = cfg.with_values({"grid.n": 32})
    assert changed.get("grid.n") == 32
    assert changed.get("run.t_end") == DEFAULTS["run.t_end"]
    assert cfg.get("grid.n") == DEFAULTS["grid.n"]


def test_initial_spec_reflects_values():
    cfg = RunConfig({"initial.kind": "peakon_pair", "grid.n": 64,
                     "initial.p": 2.0, "initial.q1": 0.1})
    spec = cfg.initial_spec()
    assert spec.kind == "peakon_pair"
    assert spec.n == 64
    assert spec.p == 2.0
    assert spec.q1 == 0.1
    assert spec.q2 == DEFAULTS["initial.q2"]


def test_grid_sizes_bounded_from_above(tmp_path, capsys, monkeypatch):
    # 2^40 nodes would take 8 TB per array; rejected before any is made
    huge = 2**40
    with pytest.raises(ConfigError, match="grid.n must be a power of two from 16 to 1048576, got 1099511627776"):
        RunConfig({"grid.n": huge}).initial_spec()
    with pytest.raises(ConfigError, match="validate.n must be a power of two from 16 to 1048576"):
        RunConfig({"validate.n": huge}).validation_args()
    with pytest.raises(ConfigError, match="compare.m must be from 1 to 1048576, got 1099511627776"):
        RunConfig({"compare.m": huge}).compare_args()
    top = {"grid.n": MAX_GRID_SIZE, "validate.n": MAX_VALIDATE_N, "compare.m": MAX_GRID_SIZE}
    assert RunConfig(top).initial_spec().n == MAX_GRID_SIZE
    assert RunConfig(top).validation_args()["n"] == MAX_VALIDATE_N
    assert RunConfig(top).compare_args()["m"] == MAX_GRID_SIZE
    # the identity suite's direct route takes about 12 n^2 bytes, so
    # validate.n stops short of MAX_GRID_SIZE
    for n in (2 * MAX_VALIDATE_N, MAX_GRID_SIZE):
        with pytest.raises(ConfigError, match=f"validate.n must be at most {MAX_VALIDATE_N}.*got {n}"):
            RunConfig({"validate.n": n}).validation_args()
    # on the command line, with the calls that would allocate replaced
    monkeypatch.setattr(cli, "evolve", None)
    monkeypatch.setattr(cli, "full_validation", None)
    cfg = write_cfg(tmp_path, f"grid.n = 64\nrun.t_end = 0.05\ncompare.m = {huge}\n")
    argvs = [["validate", "--n", str(huge)], ["validate", "--n", str(2 * MAX_VALIDATE_N)],
             ["validate", "--n", str(MAX_GRID_SIZE)], ["compare", "--config", str(cfg)],
             ["simulate", "--n", str(huge), "--out", str(tmp_path / "r")]]
    for argv in argvs:
        if argv[0] == "simulate":
            monkeypatch.setattr(cli, "PeriodicGrid", None)
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err.startswith("config error: "), argv[0]
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------- simulate


def simulate_cfg(tmp_path):
    return write_cfg(tmp_path, "\n".join([
        "grid.n = 64",
        "run.dt = 1e-3",
        "run.t_end = 0.05",
        "initial.kind = constant",
        "initial.value = 0.5",
    ]))


def test_simulate_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(simulate_cfg(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,energy,sphere_defect,tangency_defect,min_rho,flat_measure,mu_check"
    assert len(series) == 52  # header + 51 recorded steps
    # constant profile is a fixed point: no breaking events
    assert (out / "events.csv").read_text() == "time,min_rho,locations\n"
    snaps = sorted((out / "snapshots").iterdir())
    assert snaps[0].name == "snap_000000.csv"
    assert snaps[0].read_text().splitlines()[0] == "x,rho,rho_t,K,u,ux,valid_ux"
    meta = (out / "metadata.txt").read_text()
    assert "command = simulate" in meta
    assert "completed = true" in meta
    assert "grid.n = 64" in meta
    assert "pressure_gradient_convention = " in meta
    assert "wrote" in capsys.readouterr().out


def run_files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = simulate_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    files = run_files(a)
    assert {"metadata.txt", "series.csv", "events.csv", "snapshots/snap_000050.csv"} <= set(files)
    assert files == run_files(b)


# Entries where orjson's layout differs from repr's, and their neighbours.
ROWS_EDGES = [0.0, 5e-324, np.nextafter(1e-4, 0), 1e-4, 1e-5, 1.23e-5, np.nextafter(1e-5, 0), 9.99e-5,
              1e-9, np.nextafter(1e-9, 0), np.nextafter(1e-9, np.inf), 9.9e-10, 1.5e-10, 1e-8,
              np.nextafter(1e16, 0), 1e16, 1e22, 1.5, np.nan, np.inf]


def repr_rows(block):
    return [",".join(map(repr, row)) for row in block.tolist()]


_ROWS_ELEMENTS = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(1e-10, 1e-8),
    st.sampled_from(ROWS_EDGES))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 7)),
              elements=st.one_of(_ROWS_ELEMENTS, _ROWS_ELEMENTS.map(lambda v: -v))))
def test_rows_are_repr_joins(block):
    assert cli._rows(block) == repr_rows(block)


def test_rows_edges_and_empty_blocks():
    edges = np.array(ROWS_EDGES)
    edges = np.concatenate((edges, -edges, np.linspace(1e-5, 1e-4, 50, endpoint=False)))
    for block in (edges[:, None], edges[None, :], np.tile(edges[:, None], (1, 6)),
                  np.column_stack((edges, np.full(edges.size, 0.25)))):
        assert cli._rows(block) == repr_rows(block)
    assert cli._rows(np.empty((0, 6))) == []
    assert cli._rows(np.empty((3, 0))) == ["", "", ""]


# The per-node writers the column-wise ones replaced, kept as the reference
# for their bytes.
def reference_series(record):
    s = record.series
    lines = ["t,energy,sphere_defect,tangency_defect,min_rho,flat_measure,mu_check"]
    for i in range(s.t.size):
        lines.append(",".join(_fmt(v) for v in (
            s.t[i], s.energy[i], s.sphere_defect[i], s.tangency_defect[i],
            s.min_rho[i], s.flat_measure[i], s.mu_check[i])))
    return "\n".join(lines) + "\n"


def reference_snapshot(grid, record, state):
    fmap = flow_map(grid, state)
    vel = lagrangian_velocity(grid, state, record.mu)
    slopes, valid = slope_field(state)
    lines = ["x,rho,rho_t,K,u,ux,valid_ux"]
    for j in range(grid.n):
        lines.append(",".join((
            _fmt(grid.x[j]), _fmt(state.rho[j]), _fmt(state.rho_t[j]),
            _fmt(fmap.knots[j]), _fmt(vel[j]), _fmt(slopes[j]),
            "1" if valid[j] else "0")))
    return "\n".join(lines) + "\n"


PEAKON_PAIR_BREAKING = ["grid.n = 64", "initial.kind = peakon_pair", "initial.p = 3.0",
                        "run.t_end = 1.5", "run.snapshot_stride = 1"]


def library_record(cfg):
    """The record a library evolve of cfg keeps, snapshots included; a
    streamed simulate keeps none."""
    grid, state, mu = cli._build_run(cfg)
    try:
        return grid, evolve(grid, state, mu, cfg.integrator_config())
    except StepFailure as fail:
        return grid, fail.record


@pytest.mark.parametrize("lines,expected_code", [
    # a peakon pair through breaking, every step stored; the step is the
    # snapshot spacing default_dt gives this state
    (PEAKON_PAIR_BREAKING + ["run.dt = 0.0052132512748285275"], 0),
    # the same pair with error-controlled steps: snapshots at every point
    # of the default_dt grid, interpolated inside the accepted steps
    (PEAKON_PAIR_BREAKING, 0),
    # the first step overflows: one stored state, exit 2
    (["grid.n = 64", "run.dt = 10.0", "run.t_end = 50.0", "initial.kind = sine"], 2),
], ids=["peakon_pair_breaking", "peakon_pair_breaking_adaptive", "early_stop"])
def test_writers_match_per_node_reference(tmp_path, lines, expected_code):
    cfg = parse_config(write_cfg(tmp_path, "\n".join(lines)))
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code, streamed, _ = _simulate_to(cfg, out)
        grid, record = library_record(cfg)
    assert code == expected_code
    assert streamed.snapshots == []
    if expected_code == 0:
        assert record.events
        assert record.snapshot_steps == list(range(len(record.snapshots)))
        assert record.snapshots[-1].t == 1.5
        if not record.adaptive:
            assert record.dt == record.dt_heuristic
            assert len(record.snapshots) == record.series.t.size
    assert (out / "series.csv").read_bytes() == reference_series(record).encode()
    snaps = sorted((out / "snapshots").iterdir())
    assert [p.name for p in snaps] == [f"snap_{i:06d}.csv" for i in record.snapshot_steps]
    with np.errstate(all="ignore"):
        for path, state in zip(snaps, record.snapshots):
            assert path.read_bytes() == reference_snapshot(grid, record, state).encode()


@pytest.mark.parametrize("lines,expected_code", [
    # 289 snapshots at stride 1
    (PEAKON_PAIR_BREAKING + ["run.dt = 0.0052132512748285275"], 0),
    # error-controlled steps, 30 snapshots
    (PEAKON_PAIR_BREAKING[:4] + ["run.snapshot_stride = 10"], 0),
    # stops at its first step: one snapshot, written by whichever process gets it
    (["grid.n = 64", "run.dt = 10.0", "run.t_end = 50.0", "initial.kind = sine"], 2),
], ids=["fixed_dt", "adaptive", "early_stop"])
def test_split_snapshot_writer_is_byte_identical(tmp_path, lines, expected_code):
    # written in this process, and streamed to a forked child
    cfg = parse_config(write_cfg(tmp_path, "\n".join(lines)))
    runs = {fork: tmp_path / ("forked" if fork else "inline") for fork in (False, True)}
    with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = {fork: _simulate_to(cfg, out, fork)[0] for fork, out in runs.items()}
        _, record = library_record(cfg)
    assert set(codes.values()) == {expected_code}
    assert multiprocessing.active_children() == []
    if expected_code == 0:
        # the child is forked only for a run of at least two snapshots
        grid, state, mu = cli._build_run(cfg)
        assert cli._snapshot_count(grid, state, mu, cfg.integrator_config()) == len(record.snapshots)
    files = run_files(runs[False])
    assert sorted(k for k in files if k.startswith("snapshots/")) == [
        f"snapshots/snap_{i:06d}.csv" for i in record.snapshot_steps]
    assert files == run_files(runs[True])


def every_step_cfg(tmp_path):
    # 51 snapshots
    return write_cfg(tmp_path, simulate_cfg(tmp_path).read_text() + "\nrun.snapshot_stride = 1\n",
                     name="every_step.cfg")


def present_files_match(out, reference):
    """Every file of the run directory out is byte-identical to its namesake
    in reference; returns how many snapshot files out holds."""
    files = run_files(out)
    assert files and all(reference[k] == v for k, v in files.items())
    return len([k for k in files if k.startswith("snapshots/")])


def test_split_snapshot_writer_failures_join_every_child(tmp_path, monkeypatch, capfd):
    cfg = parse_config(every_step_cfg(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        _simulate_to(cfg, tmp_path / "ref")
    reference = run_files(tmp_path / "ref")
    parent = os.getpid()
    write_snapshot = cli._write_snapshot

    def fails_in_child(*args):
        if os.getpid() != parent:
            raise OSError("disk full")
        write_snapshot(*args)

    monkeypatch.setattr(cli, "_write_snapshot", fails_in_child)
    with pytest.raises(RuntimeError, match=r"^snapshot writer \(pid \d+\) exited with code 1$"):
        _simulate_to(cfg, tmp_path / "a", True)
    err = capfd.readouterr().err
    assert err.count("Traceback") == err.count("OSError: disk full") == 1
    assert "BrokenPipeError" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "a" / "metadata.txt").exists()
    present_files_match(tmp_path / "a", reference)

    # the parent's own error propagates after the children are joined
    monkeypatch.setattr(cli, "_write_snapshot", write_snapshot)
    monkeypatch.setattr(cli, "_write_events", lambda out, record: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        _simulate_to(cfg, tmp_path / "b", True)
    assert multiprocessing.active_children() == []
    present_files_match(tmp_path / "b", reference)
    assert not (tmp_path / "b" / "metadata.txt").exists()

    # and so does an error inside evolve, at its tenth snapshot
    def evolve_fails(grid, state, mu, icfg, on_snapshot):
        def failing(snapshot, step):
            if step == 10:
                raise KeyboardInterrupt
            on_snapshot(snapshot, step)
        return evolve(grid, state, mu, icfg, on_snapshot=failing)

    monkeypatch.setattr(cli, "evolve", evolve_fails)
    with pytest.raises(KeyboardInterrupt):
        _simulate_to(cfg, tmp_path / "c", True)
    assert multiprocessing.active_children() == []
    assert present_files_match(tmp_path / "c", reference) <= 10
    assert not (tmp_path / "c" / "series.csv").exists()


FAILING_CHILD = """
import multiprocessing, sys
from pathlib import Path

import rhosphere.cli as cli
from rhosphere.config import parse_config

write_snapshot = cli._write_snapshot
written = 0


def fails_on_kth(*args):
    global written
    written += 1
    if multiprocessing.current_process().name == "snapshot writer" and written == int(sys.argv[3]):
        raise OSError("disk full")
    write_snapshot(*args)


cli._write_snapshot = fails_on_kth
try:
    cli._simulate_to(parse_config(sys.argv[1]), Path(sys.argv[2]), True)
except RuntimeError as exc:
    print(f"RuntimeError: {exc}")
print(f"active children: {multiprocessing.active_children()}")
"""


def test_writer_child_failing_mid_run(tmp_path):
    # 501 snapshots; the child fails on its 5th file while the run goes on,
    # so the parent's later sends to it meet a closed pipe
    cfg = write_cfg(tmp_path, simulate_cfg(tmp_path).read_text()
                    + "\nrun.t_end = 0.5\nrun.snapshot_stride = 1\n", name="long.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        _simulate_to(parse_config(cfg), tmp_path / "ref")
    script = write_cfg(tmp_path, FAILING_CHILD, name="failing_child.py")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script), str(cfg), str(tmp_path / "run"), "5"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        line for line in done.stdout.splitlines() if line.startswith(("RuntimeError", "active"))]
    error, active = done.stdout.splitlines()
    assert re.fullmatch(r"RuntimeError: snapshot writer \(pid \d+\) exited with code 1", error)
    assert active == "active children: []"
    # the child's own traceback, and nothing from inside evolve
    assert done.stderr.count("Traceback") == 1
    assert "OSError: disk full" in done.stderr
    assert "BrokenPipeError" not in done.stderr
    assert not (tmp_path / "run" / "metadata.txt").exists()
    present_files_match(tmp_path / "run", run_files(tmp_path / "ref"))


def test_streamed_writer_holds_at_most_the_cap(tmp_path, monkeypatch):
    # a slow child and a cap of two messages: the parent must write the
    # oldest pending snapshots itself while evolve runs
    cfg = parse_config(every_step_cfg(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        _simulate_to(cfg, tmp_path / "ref")
    cap = 2 * 8 * (3 + 2 * 64)
    monkeypatch.setattr(cli, "PENDING_BYTES", cap)
    parent = os.getpid()
    write_snapshot = cli._write_snapshot
    own = []

    def slow_in_child(*args):
        if os.getpid() == parent:
            own.append(args[-1])
        else:
            time.sleep(0.02)
        write_snapshot(*args)

    put = cli._SnapshotWriters.__call__
    held = []

    def checked_put(self, state, step):
        written = len(own)
        put(self, state, step)
        assert self.pending_bytes == sum(m.nbytes for m in self.pending) <= cap
        held.append((self.pending_bytes, len(own) - written))

    monkeypatch.setattr(cli, "_write_snapshot", slow_in_child)
    monkeypatch.setattr(cli._SnapshotWriters, "__call__", checked_put)
    with contextlib.redirect_stdout(io.StringIO()):
        assert _simulate_to(cfg, tmp_path / "run", True)[0] == 0
    assert multiprocessing.active_children() == []
    assert len(held) == 51
    assert max(b for b, _ in held) == cap
    assert sum(w for _, w in held) > 0  # written by the parent during the run
    assert run_files(tmp_path / "run") == run_files(tmp_path / "ref")


def test_simulate_forks_one_writer_whatever_the_cpus(tmp_path, monkeypatch):
    # a host with 8 CPUs this process may run on, and 51 snapshots
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(every_step_cfg(tmp_path)), "--out", str(tmp_path / "run")]) == 0
    assert len(forks) == 1
    assert multiprocessing.active_children() == []
    assert len(list((tmp_path / "run" / "snapshots").iterdir())) == 51


@contextlib.contextmanager
def live_thread():
    """A second thread, alive until the block ends, waiting on an Event."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="waiting")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()


def test_simulate_forks_no_writer_beside_a_live_thread(tmp_path, monkeypatch):
    # a fork copies only the forking thread, so a lock another thread held
    # would stay locked in the child; 8 CPUs and 51 snapshots would fork
    cfg = every_step_cfg(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        _simulate_to(parse_config(cfg), tmp_path / "inline")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with live_thread(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert forks == []
    assert run_files(tmp_path / "run") == run_files(tmp_path / "inline")


@pytest.mark.parametrize("usable,has_fork,thread,expected", [
    (1, True, False, False), (8, False, False, False), (8, True, True, False), (8, True, False, True),
], ids=["one_cpu", "no_fork", "live_thread", "may_fork"])
def test_can_fork(monkeypatch, usable, has_fork, thread, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    if not has_fork:
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    with live_thread() if thread else contextlib.nullcontext():
        assert affinity.can_fork() is expected


def refuse_pin(pid, cpus):
    # raised in the child, where it would be exit code 1 and a RuntimeError
    raise AssertionError(f"pinned to {cpus}")


def einval_pin(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("stat,cpu,allowed,set_affinity", [
    (None, None, None, refuse_pin),
    (b"", None, None, refuse_pin),
    (b"1 (a) b) R" + b" 0" * 35, None, None, refuse_pin),
    (b"1 (python) R" + b" 0" * 35 + b" cpu0 0", None, None, refuse_pin),
    ("real", 0, {0}, refuse_pin),
    ("real", None, None, einval_pin),
], ids=["no_stat", "empty_stat", "short_stat", "garbled_stat", "no_cpu_left", "einval"])
def test_writer_child_runs_unpinned_when_the_pin_fails(tmp_path, monkeypatch, stat, cpu, allowed,
                                                       set_affinity):
    cfg = parse_config(every_step_cfg(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        _simulate_to(cfg, tmp_path / "inline")
    if stat != "real":
        path = tmp_path / "stat"
        if stat is not None:
            path.write_bytes(stat)
        monkeypatch.setattr(affinity, "THREAD_STAT", str(path))
        assert affinity.this_cpu() is None
    if cpu is not None:
        monkeypatch.setattr(affinity, "this_cpu", lambda: cpu)
    if allowed is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", set_affinity, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert _simulate_to(cfg, tmp_path / "forked", True)[0] == 0
    assert multiprocessing.active_children() == []
    assert run_files(tmp_path / "forked") == run_files(tmp_path / "inline")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs this process may use")
def test_writer_child_keeps_off_the_parents_cpu(tmp_path, monkeypatch):
    if affinity.this_cpu() is None:
        pytest.skip(f"{affinity.THREAD_STAT} cannot be read")
    read_cpu = affinity.this_cpu
    at_fork = []

    def recorded_cpu():
        at_fork.append(read_cpu())
        return at_fork[-1]

    monkeypatch.setattr(affinity, "this_cpu", recorded_cpu)
    grid, state, mu = cli._build_run(parse_config(simulate_cfg(tmp_path)))
    writers = cli._SnapshotWriters(tmp_path, grid, mu, True)
    try:
        writers(state, 0)
        assert select.select([writers.ack], [], [], 60)[0]
        assert os.read(writers.ack, 64) == b"\0"
        child_cpus = os.sched_getaffinity(writers.process.pid)
    finally:
        writers.close()
    writers.check()
    assert len(at_fork) == 1 and at_fork[0] is not None
    assert child_cpus and at_fork[0] not in child_cpus
    assert os.sched_getaffinity(0) >= child_cpus | {at_fork[0]}
    assert [p.name for p in tmp_path.glob("snap_*.csv")] == ["snap_000000.csv"]


def test_package_and_cli_import_neither_orjson_nor_the_process_pool():
    # each costs peak memory in every process that imports the CLI; only the
    # float writers, a run that forks and sweep load them
    import rhosphere

    env = dict(os.environ, PYTHONPATH=str(Path(rhosphere.__file__).parents[1]))
    code = ("import sys, rhosphere, rhosphere.cli\n"
            "print([m for m in ('orjson', 'concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_simulate_with_piped_stdout_prints_once(tmp_path):
    import rhosphere

    env = dict(os.environ, PYTHONPATH=str(Path(rhosphere.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "rhosphere.cli", "simulate", "--config",
                           str(every_step_cfg(tmp_path)), "--out", str(tmp_path / "run")],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("wrote")] == [done.stdout.strip()]
    assert len(list((tmp_path / "run" / "snapshots").iterdir())) == 51


def test_simulate_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(simulate_cfg(tmp_path)),
                 "--out", str(out), "--n", "32", "--t-end", "0.02"])
    assert code == 0
    meta = (out / "metadata.txt").read_text()
    assert "grid.n = 32" in meta
    assert "run.t_end = 0.02" in meta


def test_simulate_blowup_exits_2_and_keeps_partial_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "\n".join([
        "grid.n = 64",
        "run.dt = 10.0",      # absurd step: RK4 overflows within a few steps
        "run.t_end = 50.0",
        "initial.kind = sine",
    ]))
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "run stopped early" in capsys.readouterr().err
    assert "completed = false" in (out / "metadata.txt").read_text()
    assert (out / "series.csv").exists()


def test_simulate_blowup_prints_no_numpy_warnings(tmp_path):
    # the same run in a fresh interpreter, numpy's warnings at their
    # defaults: stderr holds the one line that says where the run stopped
    import rhosphere

    cfg = write_cfg(tmp_path, "grid.n = 64\nrun.dt = 10.0\nrun.t_end = 50.0\ninitial.kind = sine\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rhosphere.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "rhosphere.cli", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "run")],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2
    assert "RuntimeWarning" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("run stopped early: non-finite state"), done.stderr


def adaptive_cfg(tmp_path):
    # a peakon pair through breaking, with no run.dt: error-controlled steps
    return write_cfg(tmp_path, "\n".join(PEAKON_PAIR_BREAKING[:4] + ["run.snapshot_stride = 10"]),
                     name="adaptive.cfg")


def test_adaptive_run_directory(tmp_path, capsys):
    a, b, fixed = tmp_path / "a", tmp_path / "b", tmp_path / "fixed"
    assert main(["simulate", "--config", str(adaptive_cfg(tmp_path)), "--out", str(a)]) == 0
    wrote = capsys.readouterr().out
    assert main(["simulate", "--config", str(adaptive_cfg(tmp_path)), "--out", str(b)]) == 0
    files = run_files(a)
    assert files == run_files(b)
    meta = dict(line.split(" = ", 1) for line in files["metadata.txt"].decode().splitlines())
    rows = files["series.csv"].decode().splitlines()[1:]
    accepted = len(rows) - 1
    assert meta["steps_accepted"] == str(accepted)
    assert f"steps={accepted}," in wrote
    assert int(meta["rhs_evaluations"]) == 1 + 6 * (accepted + int(meta["steps_rejected"]))
    # snapshots carry the names a fixed run at the snapshot spacing writes
    assert meta["dt"] == meta["dt_heuristic"]
    capsys.readouterr()
    assert main(["simulate", "--config", str(adaptive_cfg(tmp_path)), "--out", str(fixed),
                 "--dt", meta["dt"]]) == 0
    fixed_files = run_files(fixed)
    snaps = sorted(k for k in files if k.startswith("snapshots/"))
    assert snaps == sorted(k for k in fixed_files if k.startswith("snapshots/"))
    assert len(snaps) == 30  # steps 0, 10, ..., 280 and the last, 288
    # fixed-step run directories keep the parent's metadata keys
    assert b"steps_accepted" not in fixed_files["metadata.txt"]
    assert len(fixed_files["series.csv"].decode().splitlines()) == 290
    assert accepted < 288


def test_adaptive_step_floor_exits_2(tmp_path, capsys, monkeypatch):
    import rhosphere.integrate as integrate
    from rhosphere.lagrangian import LagrangianState

    def broken(grid, state, mu, h, stage1, t, ws):
        return LagrangianState(np.full(grid.n, np.inf), state.rho_t, state.k0, t), np.zeros(2 * grid.n + 1)

    monkeypatch.setattr(integrate, "_dp_trial", broken)
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(adaptive_cfg(tmp_path)), "--out", str(out)])
    assert code == 2
    assert "below the floor" in capsys.readouterr().err
    assert "completed = false" in (out / "metadata.txt").read_text()


def test_run_too_long_for_the_snapshot_grid_exits_1(tmp_path, capsys):
    # no run.dt: the snapshot spacing default_dt would need 3e14 points;
    # the sweep's first point is short, and must not run either
    cfg = write_cfg(tmp_path, "grid.n = 64\nrun.t_end = 1e12\n")
    swept = write_cfg(tmp_path, "grid.n = 64\nsweep.run.t_end = 0.01 1e12\n", name="sweep.cfg")
    for argv in (["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")],
                 ["compare", "--config", str(cfg)],
                 ["sweep", "--config", str(swept), "--out", str(tmp_path / "s"), "--workers", "1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the snapshot spacing default_dt = "), err
        assert "more than 10000000 steps" in err
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "s").exists()


def test_simulate_requires_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(simulate_cfg(tmp_path))])


@pytest.mark.parametrize("line", [
    "grid.n = 100",
    "initial.kind = bogus",
    "run.snapshot_stride = 0",
    "run.snapshot_stride = -3",
    "run.dt = -1",
    "run.dt = inf",
    "run.dt = 1e-300",
    "run.t_end = nan",
    "run.t_end = -1",
    "run.breaking_eps = nan",  # a retired key, unknown now
    "initial.amplitude = inf",
    "initial.mollify_width = -0.1",
    "initial.wavenumber = 0",
    "initial.wavenumber = 32",
    "initial.kind = fourier\ninitial.sin_coeffs = " + " ".join(["0.1"] * 32),
    "seed = 7",
    # finite, but the profile or its energy overflows to inf
    "initial.amplitude = 1e160",
    "initial.kind = constant\ninitial.value = 1e200",
    "initial.kind = peakon_pair\ninitial.p = 1e300",
    "initial.kind = fourier\ninitial.cos_coeffs = 1e308",
    "initial.kind = fourier\ninitial.sin_coeffs = 1e170",
])
def test_bad_run_inputs_exit_1(tmp_path, capsys, line):
    # checked where the config becomes an initial spec and an integrator
    # config, so every command that runs the solver rejects them
    cfg = write_cfg(tmp_path, f"grid.n = 64\nrun.t_end = 0.01\n{line}\n")
    swept = write_cfg(tmp_path, f"grid.n = 64\nrun.t_end = 0.01\n{line}\n"
                      "sweep.run.projection = true false\n", name="sweep.cfg")
    for argv in (["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")],
                 ["compare", "--config", str(cfg)],
                 ["sweep", "--config", str(swept), "--out", str(tmp_path / "s"),
                  "--workers", "1"]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("config error"), (argv[0], err)
        assert "Traceback" not in err
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "s").exists()


def test_huge_periodic_profile_gives_no_tangency_warning(tmp_path, capsys):
    # quad(u0x) of a periodic profile is round-off, about 1e144 here: the
    # warning scales it by max|2 rho rho_t| as the lift does, so only the
    # config error for the overflowing energy is reported
    cfg = write_cfg(tmp_path, "grid.n = 64\nrun.t_end = 0.01\ninitial.amplitude = 1e160\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not [w for w in caught if "tangency defect" in str(w.message)]


# Malformed config files: every key of the schema and some unknown ones,
# with small, huge, negative and non-finite numbers, words and lists, and
# sweep lines over them.  The keys that set the cost of a run, a reference
# run or a comparison only take values that either fail or keep it at
# n = 16 and t_end <= 0.01, with at most a few fixed steps; the validation
# battery runs at most 2 states at n <= 32, or fails.  Numbers are
# small (|x| <= 10) or huge (|x| >= 1e150): an amplitude in between is
# valid but can ask for millions of error-controlled steps and snapshots.
_NUMBERS = st.one_of(
    st.integers(min_value=-100, max_value=100).map(str),
    st.integers(min_value=10**20, max_value=10**30).map(str),
    st.integers(min_value=-10**30, max_value=-10**20).map(str),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
    st.floats(min_value=1e150).map(repr),
    st.floats(max_value=-1e150).map(repr),
    st.just("nan"),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from(["true", "off", "maybe", "sine", "constant", "fourier",
                     "peakon_pair", "bogus", ""]),
    st.lists(_NUMBERS, min_size=1, max_size=4).map(" ".join),
)
_COSTLY = {
    "grid.n": ["16", "0", "-16", "17", "1e3", "twelve"],
    "run.t_end": ["0.01", "0.005", "0", "-1", "nan", "inf", "1e-300", "soon"],
    "run.dt": ["0.01", "2e-3", "1e300", "0", "-1e-3", "nan", "inf", "1e-300", "5e-324"],
    "oracle.dt": ["0.01", "2e-3", "1e300", "0", "-1e-3", "nan", "inf", "1e-300", "5e-324"],
    "compare.m": ["16", "32", "17", "1", "0", "-16", "1e3", "many"],
    # past MAX_VALIDATE_N = 4096, validate.n is a config error
    "validate.n": ["16", "32", "17", "0", "-16", "8192", "1048576", "1e3", "many"],
    # past MAX_VALIDATE_STATES = 10 000, validate.n_states is a config error
    "validate.n_states": ["1", "2", "0", "-1", "1e3", "few", "10001", "100000000"],
}
_FREE_KEYS = sorted(set(SCHEMA) - set(_COSTLY)) + ["no_such.key", "grid"]
# and lines a run mostly accepts, so that some files get as far as a run
_PLAUSIBLE = st.tuples(
    st.sampled_from([k for k in _FREE_KEYS if k.startswith(("initial.", "run."))]),
    st.one_of(st.integers(min_value=0, max_value=8).map(str),
              st.floats(min_value=-10.0, max_value=10.0).map(repr),
              st.sampled_from(["1e160", "-1e200", "1e308"])),
)
# one or two of a costly key's values
_COSTLY_PAIRS = st.sampled_from(sorted(_COSTLY)).flatmap(
    lambda key: st.lists(st.sampled_from(_COSTLY[key]), min_size=1, max_size=2).map(
        lambda vs: (key, " ".join(vs))))
_LINES = st.one_of(
    st.tuples(st.sampled_from(_FREE_KEYS), _VALUES).map(" = ".join),
    _PLAUSIBLE.map(" = ".join),
    _COSTLY_PAIRS.map(" = ".join),
    st.sampled_from(["just some words", "= 3", "initial.value"]),
    st.one_of(_PLAUSIBLE, _COSTLY_PAIRS).map(lambda kv: f"sweep.{kv[0]} = {kv[1]}"),
)
# each command's extra arguments; validate's --n sets validate.n as well
_COMMANDS = {
    "simulate": st.just([]),
    "compare": st.just([]),
    "sweep": st.just(["--workers", "1"]),
    "validate": st.sampled_from([[], ["--n", "32"], ["--n", "8192"], ["--n", "1048576"]]),
}
_BASE = {"validate": ["validate.n = 16", "validate.n_states = 1"]}


def _guarded_validation(n, n_states, **kwargs):
    # a validate.n or validate.n_states past its cap is a config error
    # before the battery allocates or runs anything
    assert n <= MAX_VALIDATE_N, n
    assert n_states <= MAX_VALIDATE_STATES, n_states
    return full_validation(n=n, n_states=n_states, **kwargs)


@settings(max_examples=90, deadline=None)
@given(st.lists(_LINES, max_size=6),
       st.sampled_from(sorted(_COMMANDS)).flatmap(lambda c: _COMMANDS[c].map(lambda args: (c, args))))
def test_malformed_config_files_exit_cleanly(lines, command_args):
    # simulate, compare and sweep exit 0, 1 (config error) or 2 (a run that
    # stopped early), and validate 0, 1 or 3 (a failed check), never with a
    # traceback
    command, args = command_args
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(["grid.n = 16", "run.t_end = 0.01", *_BASE.get(command, []), *lines]) + "\n",
                       encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"), mock.patch.object(cli, "full_validation", _guarded_validation):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out"), *args])
    assert code in ((0, 1, 3) if command == "validate" else (0, 1, 2))
    said = err.getvalue()
    assert (code == 1) == ("\nconfig error: " in "\n" + said), said


@pytest.mark.parametrize("command", ["simulate", "validate", "compare", "sweep"])
def test_an_out_under_a_regular_file_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch, command):
    for name in ("evolve", "full_validation", "_SnapshotWriters"):
        monkeypatch.setattr(cli, name, None)
    cfg = write_cfg(tmp_path, "grid.n = 16\nrun.dt = 1e-2\nrun.t_end = 0.02\n"
                    "sweep.initial.amplitude = 0.5 1.0\n")
    (tmp_path / "plainfile").write_text("", encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "plainfile" / "x")]
    assert main(argv + (["--workers", "1"] if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create the output directory "), err
    assert "Traceback" not in err


def test_sweep_rejects_bad_swept_value_before_any_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.t_end = 0.01\nsweep.grid.n = 32 100\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 1
    assert "grid.n must be a power of two" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nope = 1\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------- validate


def validate_cfg(tmp_path):
    return write_cfg(tmp_path, "\n".join([
        "validate.n = 64",
        "validate.n_states = 4",
        "validate.seed = 7",
    ]))


def test_validate_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["validate", "--config", str(validate_cfg(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    report = (out / "validation.txt").read_text().splitlines()
    assert all(line.startswith("ok  ") for line in report)


def test_validate_flip_hook_exits_3(tmp_path, capsys):
    code = main(["validate", "--config", str(validate_cfg(tmp_path)),
                 "--flip-h-sign"])
    assert code == 3
    err = capsys.readouterr().err
    assert "validation failed" in err
    assert "slope_identity" in err
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("line,fragment", [
    ("validate.n_states = 0", "validate.n_states must be >= 1"),
    ("validate.n_states = -1", "validate.n_states must be >= 1"),
    ("validate.n_states = 10001", "validate.n_states must be at most 10000, got 10001"),
    ("validate.n = 100", "validate.n must be a power of two"),
    ("validate.seed = -1", "validate.seed must be >= 0"),
])
def test_validate_rejects_bad_keys(tmp_path, capsys, line, fragment):
    # zero states made every identity check pass over nothing
    cfg = write_cfg(tmp_path, f"validate.n = 64\n{line}\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {fragment}")
    assert "checks passed" not in captured.out


# ---------------------------------------------------------------- compare


def test_compare_constant_profile_matches_reference(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "\n".join([
        "grid.n = 64",
        "run.dt = 2e-3",
        "run.t_end = 0.2",
        "initial.kind = constant",
        "initial.value = 0.5",
        "compare.times = 0.1 0.2",
    ]))
    out = tmp_path / "c"
    code = main(["compare", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[0] == "t,l2,linf"
    assert len(rows) == 3
    # both solvers hold a constant exactly
    for row in rows[1:]:
        assert float(row.split(",")[1]) < 1e-10
    assert "l2 = " in capsys.readouterr().out
    assert "oracle_blowup_time = " in (out / "metadata.txt").read_text()


def test_compare_times_outside_window_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "\n".join([
        "grid.n = 64",
        "run.t_end = 0.2",
        "compare.times = 0.5",
    ]))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert "compare.times" in capsys.readouterr().err


def test_compare_skips_times_past_reference_stop(tmp_path, capsys):
    # cap the reference solver low so it stops early in a steepening run
    base = [
        "grid.n = 64",
        "run.dt = 1e-3",
        "run.t_end = 1.0",
        "initial.kind = sine",
        "oracle.slope_cap = 20.0",
    ]
    cfg = write_cfg(tmp_path, "\n".join(base + ["compare.times = 0.05 0.9"]),
                    name="partial.cfg")
    out = tmp_path / "c"
    code = main(["compare", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "reference solver stopped" in captured.err
    assert "skipped" in captured.err
    rows = (out / "compare.csv").read_text().splitlines()
    assert len(rows) == 2  # header + the one reachable time
    assert rows[1].startswith("0.05,")

    # when every requested time is unreachable the command fails
    cfg2 = write_cfg(tmp_path, "\n".join(base + ["compare.times = 0.9"]),
                     name="lost.cfg")
    assert main(["compare", "--config", str(cfg2)]) == 2


def test_compare_oracle_step_not_dividing_t_end(tmp_path, capsys):
    # the reference run ends at run.t_end with a shorter last step
    cfg = write_cfg(tmp_path, "\n".join([
        "grid.n = 64",
        "run.dt = 1e-2",
        "run.t_end = 0.05",
        "initial.amplitude = 0.1",
        "oracle.dt = 0.04",
    ]))
    out = tmp_path / "c"
    code = main(["compare", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "t = 0.05  l2 = " in captured.out
    assert "skipped" not in captured.err
    rows = (out / "compare.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.05,")


def test_compare_at_t_end_of_a_summed_step(tmp_path, capsys):
    # ten steps of 1e-2 summed fall short of 0.1; the run must still end at
    # run.t_end, the default comparison time
    cfg = write_cfg(tmp_path, "\n".join(["grid.n = 64", "run.dt = 1e-2", "run.t_end = 0.1"]))
    assert main(["compare", "--config", str(cfg)]) == 0
    assert "t = 0.1  l2 = " in capsys.readouterr().out


def test_compare_of_a_run_that_stops_early_exits_2(tmp_path, capsys):
    # the first fixed step of this steep sine goes non-finite
    cfg = write_cfg(tmp_path, "grid.n = 16\nrun.dt = 0.01\nrun.t_end = 0.01\ninitial.amplitude = 1e3\n")
    with np.errstate(all="ignore"):
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    assert "run stopped early: non-finite state at step 1" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("line", [
    "oracle.dt = 0",
    "oracle.dt = nan",
    "oracle.dt = -1e-3",
    "compare.m = 0",
    "oracle.slope_cap = nan",
    # the reference run would take 5e298 steps
    "oracle.dt = 1e-300",
    "compare.times = nan",
    "compare.times = 0.01 -0.01",
])
def test_compare_rejects_bad_oracle_keys(tmp_path, capsys, line, monkeypatch):
    # RunConfig checks them before any run starts
    monkeypatch.setattr(cli, "evolve", None)
    cfg = write_cfg(tmp_path, "\n".join(["grid.n = 64", "run.t_end = 0.05", line]))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err
    with pytest.raises(ConfigError):
        parse_config(cfg).compare_args()


# ---------------------------------------------------------------- sweep


def test_sweep_amplitude_moves_breaking_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "\n".join([
        "grid.n = 128",
        "run.dt = 1e-3",
        "run.t_end = 1.0",
        "initial.kind = sine",
        "sweep.initial.amplitude = 0.6 1.2 2.4",
    ]))
    out = tmp_path / "s"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--workers", "1"])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "run,initial.amplitude,exit,breaking_time,energy_drift,max_slope"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["run_0000", "run_0001", "run_0002"]
    assert all(r[2] == "0" for r in rows)
    for idx in range(3):
        assert (out / f"run_{idx:04d}" / "series.csv").exists()
    # steeper initial data breaks sooner
    breaking = [float(r[3]) for r in rows]
    assert breaking[0] > breaking[1] > breaking[2]
    # slopes recorded in the summary grow with amplitude
    slopes = [float(r[5]) for r in rows]
    assert slopes[0] < slopes[2]


def test_sweep_without_sweep_keys_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.n = 64\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--workers", "1"])
    assert code == 1
    assert "sweep requires" in capsys.readouterr().err


def test_sweep_workers_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sweep.grid.n = 32\n")
    for workers in ("0", "-1"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--workers", workers]) == 1
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_pool_has_no_more_workers_than_points(tmp_path, monkeypatch):
    # a fork pool starts every worker it may have at the first submit, so a
    # typo in --workers must not reach it: the fake records the count and
    # runs the points here
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    base = "grid.n = 32\nrun.dt = 1e-3\nrun.t_end = 0.005\n"
    two = write_cfg(tmp_path, base + "sweep.initial.amplitude = 0.5 1.0\n", name="two.cfg")
    assert main(["sweep", "--config", str(two), "--out", str(tmp_path / "two"), "--workers", "100000"]) == 0
    assert pools == [2]
    one = write_cfg(tmp_path, base + "sweep.initial.amplitude = 0.5\n", name="one.cfg")
    assert main(["sweep", "--config", str(one), "--out", str(tmp_path / "one"), "--workers", "100000"]) == 0
    assert pools == [2]  # one point runs inline
    assert len((tmp_path / "two" / "summary.csv").read_text().splitlines()) == 3


def test_sweep_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    # a host with 64 CPUs, of which this process may run on 3
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert cli._resolve_workers(None) == 3
    assert cli._resolve_workers(5) == 5
    if "fork" in multiprocessing.get_all_start_methods():
        assert affinity.cpus() == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("rhosphere ")
