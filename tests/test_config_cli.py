"""Configuration parsing and the command-line front end.

Runs main() in process with small grids so the whole file stays fast.
"""

import numpy as np
import pytest

from rhosphere.cli import main
from rhosphere.config import DEFAULTS, ConfigError, RunConfig, parse_config


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
        "seed = 7",
    ]))
    cfg = parse_config(path)
    assert cfg.values["grid.n"] == 96
    assert cfg.values["run.dt"] == 2e-3
    assert cfg.values["run.projection"] is False
    assert cfg.values["initial.cos_coeffs"] == (0.1, -0.2)
    assert cfg.values["compare.times"] == (0.25, 0.5)
    assert cfg.values["seed"] == 7
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
    cfg.set("grid.n", 32)
    assert cfg.get("grid.n") == 32
    with pytest.raises(ConfigError):
        cfg.set("imaginary", 1)


def test_initial_spec_reflects_values():
    cfg = RunConfig({"initial.kind": "peakon_pair", "grid.n": 64,
                     "initial.p": 2.0, "initial.q1": 0.1})
    spec = cfg.initial_spec()
    assert spec.kind == "peakon_pair"
    assert spec.n == 64
    assert spec.p == 2.0
    assert spec.q1 == 0.1
    assert spec.q2 == DEFAULTS["initial.q2"]


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


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = simulate_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ["series.csv", "events.csv", "snapshots/snap_000000.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_simulate_requires_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(simulate_cfg(tmp_path))])


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


@pytest.mark.parametrize("line", [
    "oracle.dt = 0",
    "oracle.dt = nan",
    "oracle.dt = -1e-3",
    "compare.m = 0",
    "oracle.slope_cap = nan",
])
def test_compare_rejects_bad_oracle_keys(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, "\n".join(["grid.n = 64", "run.t_end = 0.05", line]))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err


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


def test_sweep_worker_env_must_be_positive_integer(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "sweep.grid.n = 32\n")
    monkeypatch.setenv("RHO_SPHERE_WORKERS", "lots")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert "RHO_SPHERE_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("RHO_SPHERE_WORKERS", "0")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("rhosphere ")
