import ast
import errno
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rhosphere
import rhosphere._affinity as affinity
import rhosphere.validate as validate
from rhosphere import PeriodicGrid, full_validation
from rhosphere.integrate import project
from rhosphere.lagrangian import LagrangianState, kernel_fields, lagrangian_velocity
from rhosphere.validate import (derivative_tol, random_state, run_envelope_check, run_evolution_checks,
                                run_identity_suite)


def test_random_state_satisfies_constraints():
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(42)
    for _ in range(5):
        st = random_state(grid, rng)
        assert abs(grid.quad(st.rho**2) - 1.0) < 1e-14
        assert abs(grid.quad(st.rho * st.rho_t)) < 1e-15
        assert np.all(st.rho > 0.0)


def test_random_state_reproducible():
    grid = PeriodicGrid(64)
    a = random_state(grid, np.random.default_rng(7))
    b = random_state(grid, np.random.default_rng(7))
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.rho_t, b.rho_t)


def random_state_per_mode(grid, rng, kmax=None, amp_rho=0.12, amp_rho_t=0.35):
    """random_state as a loop over modes, one draw and one cos/sin per mode."""
    if kmax is None:
        kmax = min(8, grid.n // 8)
    kmax = max(1, kmax)

    def field(amp):
        out = np.zeros(grid.n)
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) * amp / (k * k)
            out += a * np.cos(2.0 * np.pi * k * grid.x) + b * np.sin(2.0 * np.pi * k * grid.x)
        return out

    return project(grid, LagrangianState(1.0 + field(amp_rho), field(amp_rho_t), 0.0, 0.0))


@pytest.mark.parametrize("n", [16, 128])
def test_random_state_matches_per_mode_loop(n):
    grid = PeriodicGrid(n)
    for seed in (0, 7, 2026):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for kwargs in ({}, {"amp_rho": 0.05, "amp_rho_t": 0.1}, {"kmax": 3}):
            st, ref = random_state(grid, rng, **kwargs), random_state_per_mode(grid, ref_rng, **kwargs)
            assert np.array_equal(st.rho, ref.rho)
            assert np.array_equal(st.rho_t, ref.rho_t)


def test_identity_suite_all_pass():
    results = run_identity_suite(n=64, seed=123, n_states=20)
    assert len(results) == 8
    for r in results:
        assert r.passed, f"{r.name}: {r.value:.3e} vs {r.tol:.1e}"
    by_name = {r.name: r for r in results}
    # dual-route evaluations sit at round-off, far under the bar
    assert by_name["pressure_dual_route"].value < 1e-13
    assert by_name["velocity_cube_flux"].value < 1e-14


def test_identity_suite_catches_sign_flip():
    results = run_identity_suite(n=32, seed=5, n_states=4, flip_h_sign=True)
    by_name = {r.name: r for r in results}
    assert not by_name["pressure_slope_identity"].passed
    assert not by_name["gradient_slope_identity"].passed
    # the flip leaves the norm identity alone, so it still passes
    assert by_name["kernel_normalization"].passed


def test_envelope_check():
    r = run_envelope_check(n=64, seed=3, n_states=15)
    assert r.passed
    assert r.value <= 1.0


def test_evolution_checks_pass():
    results = run_evolution_checks(n=64, dt=1e-3, t_end=0.3)
    for r in results:
        assert r.passed, f"{r.name}: {r.value:.3e} vs {r.tol:.1e}"


def test_full_validation_quick_battery():
    results = full_validation(n=64, seed=11, n_states=15)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_derivative_tol_grows_with_n():
    assert derivative_tol(1024) > derivative_tol(64)
    assert derivative_tol(16) > 0.0


def no_fork():
    raise AssertionError("the battery forked")


def test_full_validation_runs_in_this_process(monkeypatch):
    # on one CPU the battery runs here
    monkeypatch.setattr(affinity, "cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    results = full_validation(n=32, seed=5, n_states=6)
    assert len(results) == 17
    assert all(r.passed for r in results)


def rows(results):
    return [(r.name, r.value, r.tol, r.passed, r.detail) for r in results]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forked_battery(monkeypatch, **kwargs):
    """full_validation with a fork whatever the CPUs, and the fork count."""
    monkeypatch.setattr(affinity, "cpus", lambda: 2)
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(None)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", counted_fork)
        results = full_validation(**kwargs)
    assert len(forks) == 1
    no_child_left()
    return results


def inline_battery(monkeypatch, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(affinity, "cpus", lambda: 1)
        patch.setattr(os, "fork", no_fork)
        return full_validation(**kwargs)


@pytest.mark.parametrize("flip_h_sign", [False, True])
def test_forked_battery_matches_inline(monkeypatch, flip_h_sign):
    kwargs = dict(n=32, seed=5, n_states=6, flip_h_sign=flip_h_sign)
    inline = inline_battery(monkeypatch, **kwargs)
    forked = forked_battery(monkeypatch, **kwargs)
    assert rows(forked) == rows(inline)
    assert len(forked) == 17
    failed = [r.name for r in forked if not r.passed]
    assert failed == (["pressure_slope_identity", "gradient_slope_identity"] if flip_h_sign else [])


def test_a_failing_child_is_a_runtime_error_with_its_traceback(monkeypatch):
    def raises(**kwargs):
        raise ZeroDivisionError("in the identity suite")

    monkeypatch.setattr(validate, "run_identity_suite", raises)
    monkeypatch.setattr(affinity, "cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^the validation child \(pid \d+\) raised:") as info:
        full_validation(n=32, seed=5, n_states=6)
    assert "Traceback (most recent call last)" in str(info.value)
    assert "ZeroDivisionError: in the identity suite" in str(info.value)
    no_child_left()


def test_a_child_that_exits_without_its_rows_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(validate, "run_identity_suite", lambda **kwargs: os._exit(5))
    monkeypatch.setattr(affinity, "cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^the validation child \(pid \d+\) exited with code 5 before"):
        full_validation(n=32, seed=5, n_states=6)
    no_child_left()


def test_an_error_in_the_parent_reaps_the_child(monkeypatch):
    def reversal_fails(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(validate, "_time_reversal", reversal_fails)
    monkeypatch.setattr(affinity, "cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        full_validation(n=32, seed=5, n_states=6)
    no_child_left()


def cpus_in_envelope_detail(monkeypatch):
    """Make the envelope row, which the child computes, report the CPUs
    the child may run on in its detail."""
    envelope = validate.run_envelope_check

    def with_cpus():
        row = envelope()
        row.detail = " ".join(map(str, sorted(os.sched_getaffinity(0))))
        return row

    monkeypatch.setattr(validate, "run_envelope_check", with_cpus)


def child_cpus(results):
    return {int(c) for c in next(r for r in results if r.name == "field_gap_envelope").detail.split()}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs this process may use")
def test_validation_child_keeps_off_the_parents_cpu(monkeypatch):
    if affinity.this_cpu() is None:
        pytest.skip(f"{affinity.THREAD_STAT} cannot be read")
    read_cpu = affinity.this_cpu
    at_fork = []

    def recorded_cpu():
        at_fork.append(read_cpu())
        return at_fork[-1]

    monkeypatch.setattr(affinity, "this_cpu", recorded_cpu)
    cpus_in_envelope_detail(monkeypatch)
    results = forked_battery(monkeypatch, n=32, seed=5, n_states=6)
    assert len(at_fork) == 1 and at_fork[0] is not None
    cpus = child_cpus(results)
    assert cpus and at_fork[0] not in cpus
    assert os.sched_getaffinity(0) >= cpus | {at_fork[0]}


def refuse_pin(pid, cpus):
    # raised in the child, where it would be a RuntimeError
    raise AssertionError(f"pinned to {cpus}")


def einval_pin(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("stat,set_affinity", [(None, refuse_pin), (b"1 (python) R 0", refuse_pin),
                                               ("real", einval_pin)], ids=["no_stat", "short_stat", "einval"])
def test_validation_child_runs_unpinned_when_the_pin_fails(tmp_path, monkeypatch, stat, set_affinity):
    # unpinned, the child reports the CPUs this process may use, as the
    # inline run does
    cpus_in_envelope_detail(monkeypatch)
    kwargs = dict(n=32, seed=5, n_states=6)
    inline = inline_battery(monkeypatch, **kwargs)
    assert child_cpus(inline) == os.sched_getaffinity(0)
    if stat != "real":
        path = tmp_path / "stat"
        if stat is not None:
            path.write_bytes(stat)
        monkeypatch.setattr(affinity, "THREAD_STAT", str(path))
        assert affinity.this_cpu() is None
    monkeypatch.setattr(os, "sched_setaffinity", set_affinity, raising=False)
    assert rows(forked_battery(monkeypatch, **kwargs)) == rows(inline)


def two_calls(grid, state, mu):
    vel = lagrangian_velocity(grid, state, mu)
    return vel, kernel_fields(grid, state, vel)[1]


def test_offset_series_takes_both_fields_from_one_pair(monkeypatch):
    # the offset slope check is bit for bit what two field routes per
    # snapshot gave
    grid, _, mu, rec = validate._forward_run(64, 1e-3, 0.1)
    one = validate._offset_slope_check(grid, rec, mu, 1e-3)
    monkeypatch.setattr(validate, "velocity_and_gradient", two_calls)
    assert one == validate._offset_slope_check(grid, rec, mu, 1e-3)


def test_import_leaves_multiprocessing_out():
    code = "import sys, rhosphere; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


EXPORTS = {
    "PeriodicGrid", "LagrangianState", "InitialSpec", "initial_state", "make_initial", "IntegratorConfig",
    "evolve", "StepFailure", "default_dt", "energy", "lagrangian_velocity", "kernel_fields", "gronwall_check",
    "eulerian_velocity", "flow_map", "slope_field", "state_at", "weak_residual", "bump_test",
    "smoothness_diagnostic", "eulerian_evolve", "compare", "full_validation",
}


def test_package_exports_exactly_its_api():
    assert len(rhosphere.__all__) == len(EXPORTS) == 23
    assert set(rhosphere.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(rhosphere, name) is not None
    namespace = {}
    exec("from rhosphere import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    # a name that stays in its module only
    with pytest.raises(AttributeError):
        rhosphere.pressure


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _rhosphere_names(tree, seen):
    """What the file's `from rhosphere... import` lines bind, each name
    resolved; seen collects them as "module.name"."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "rhosphere":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module, alias.name)
                seen.add(f"{node.module.rpartition('.')[2]}.{alias.name}")
    return bound


def _resolve(node, bound, seen):
    """The object an attribute chain rooted at a bound rhosphere module
    names, or None for a chain rooted elsewhere."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound, seen)
        if inspect.ismodule(owner) or inspect.isclass(owner):
            assert hasattr(owner, node.attr), f"{owner.__name__}.{node.attr} is gone"
            if inspect.ismodule(owner):
                seen.add(f"{owner.__name__.rpartition('.')[2]}.{node.attr}")
            return getattr(owner, node.attr)
    return None


def test_the_benchmark_reaches_every_name_it_uses():
    # perfbench calls into the package through module attributes; a name
    # that went missing would fail its runs with AttributeError
    seen = set()
    for name in ("spans.py", "sweep.py", "workloads.py", "run.py", "setup_probe.py"):
        tree = _perfbench_tree(name)
        bound = _rhosphere_names(tree, seen)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = _resolve(node.func, bound, seen)
                if callable(fn):
                    params = inspect.signature(fn).parameters
                    for kw in node.keywords:
                        assert kw.arg is None or kw.arg in params, f"{fn.__qualname__} takes no {kw.arg}"
            else:
                _resolve(node, bound, seen)
    # the span wrappers patch these (owner, attribute) pairs
    spans = _perfbench_tree("spans.py")
    bound = _rhosphere_names(spans, set())
    points = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                  and node.targets[0].id == "_WRAP_POINTS")
    assert len(points.elts) >= 20
    for point in points.elts:
        owner, attr = _resolve(point.elts[0], bound, seen), point.elts[1].value
        assert hasattr(owner, attr), (ast.unparse(point.elts[0]), attr)
    assert {"lagrangian.pressure", "lagrangian.evaluate", "oracle.eulerian_rhs", "oracle.compare",
            "validate.random_state", "reconstruct.FlowMap", "reconstruct.EulerianField", "reconstruct.bump_test",
            "scenarios.initial_state", "scenarios.make_initial"} <= seen
    assert callable(PeriodicGrid.cumint_spectral)
