"""The four benchmark workloads: seeded inputs, one job each, and its gates.

A workload builds its inputs from the seed once; each job then runs the
program on them (`produce`, the timed part) and the benchmark checks what
came out (`check`, untimed).  A job is a list of operations, each a solver
run, a comparison time, a weak-residual window or a validation check; an
operation fails when any of its gates fails or when it raises, and a
failure never stops the run.

Cost must not depend on the seed, or the spread between seeds would hide
regressions.  So a seed moves the peakon pair along a family of fixed
energy (the default step depends only on the energy), every run length
and step is fixed per workload, and the sine amplitude changes no cost.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from peakon import PeakonPair, amplitude_for_energy
from rhosphere import cli, integrate, oracle, reconstruct, scenarios
from rhosphere.config import parse_config
from speed import now

# half-distance of the peakon pair; at fixed energy the collision time
# moves by about 5 percent across this range
HALF_DISTANCE = (0.10, 0.11)

# gates: fixed bounds, several times the values measured at the parent
ENERGY_DRIFT_MAX = 1e-6
DEFECT_MAX = 1e-12
CROSSING_WINDOW = (0.98, 1.02)  # zero crossing at label n/2, as a share of the collision time
REFERENCE_L2_MAX = {1024: 1e-3, 4096: 5e-4}  # reconstructed u against the exact peakon ODE solution
COMPARE_L2_MAX = 1e-3           # label-space solver against the oracle, before its cap
ORACLE_GAP_MAX = 0.15           # oracle stops before the collision, by at most this share
WEAK_RESIDUAL_MAX = 2e-3        # label-route weak residual across the collision
SINE_ENERGY_REL = 1e-6          # initial energy against a^2 (1/2 + 2 pi^2)


def below(label, value, bound):
    return label, bool(value <= bound), f"{label} {value:.3e} (bound {bound:.1e})"


def holds(label, ok, detail=""):
    return label, bool(ok), f"{label} {detail}".strip()


class Operations:
    """Operations of one job with the outcome of their gates."""

    def __init__(self):
        self.rows = []  # (operation, passed, failed gate details)

    def add(self, name, gates):
        """Run `gates()` (a list of gate tuples) and record the operation."""
        try:
            results = gates()
        except Exception as exc:  # a crashing gate fails its operation only
            results = [(name, False, f"{type(exc).__name__}: {exc}")]
        failed = [detail for _, ok, detail in results if not ok]
        self.rows.append((name, not failed, failed))

    @property
    def failed(self):
        return [row for row in self.rows if not row[1]]


def _series_gates(energy, sphere, tangency):
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    return [below("energy drift", drift, ENERGY_DRIFT_MAX),
            below("sphere defect", float(np.max(sphere)), DEFECT_MAX),
            below("tangency defect", float(np.max(tangency)), DEFECT_MAX)]


def _crossing_gate(event_times, t_c):
    lo, hi = CROSSING_WINDOW
    first = min(event_times, default=math.nan)
    return holds("zero crossing at label n/2", lo * t_c <= first <= hi * t_c,
                 f"at t = {first:.5g}, collision {t_c:.5g}")


def _l2(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _read_metadata(path):
    meta = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


class EvolveTimer:
    """Times every `evolve` call made through one module's global name."""

    def __init__(self, module):
        self.module, self.orig = module, module.evolve
        self.seconds = self.model_time = 0.0
        module.evolve = self._timed

    def _timed(self, *args, **kwargs):
        t0 = now()
        record = self.orig(*args, **kwargs)
        self.seconds += now() - t0
        self.model_time += float(record.series.t[-1] - record.series.t[0])
        return record

    def take(self):
        out = {"evolve_s": self.seconds, "model_t": self.model_time}
        self.seconds = self.model_time = 0.0
        return out

    def close(self):
        self.module.evolve = self.orig


def files_in(path):
    files = [p for p in Path(path).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _run_cli(argv):
    # the program's console output is part of its cost but not of ours
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Workload:
    name = ""
    n = 0

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.config_path = Path(workdir) / f"{self.name}.cfg"
        self.inputs = {}  # what the seed generated, for the result record
        self.timer = None

    def write_config(self, text):
        self.config_path.write_text(text, encoding="utf-8")
        self.spec = parse_config(self.config_path).initial_spec()

    def simulate(self, jobdir):
        """`rhosphere simulate` in process, with `evolve` timed."""
        code = _run_cli(["simulate", "--config", self.config_path, "--out", jobdir])
        return {"code": code, "out": Path(jobdir), **self.timer.take()}

    def close(self):
        if self.timer is not None:
            self.timer.close()


class PeakonWorkload(Workload):
    """A seeded peakon pair of fixed energy, with its exact collision time."""

    energy = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        d = float(self.rng.uniform(*HALF_DISTANCE))
        self.pair = PeakonPair(amplitude_for_energy(self.energy, d), 0.5 - d, 0.5 + d)
        self.t_c = self.pair.collision_time()
        # run lengths follow the latest collision of the family, not this
        # seed's, so that they do not depend on the seed
        d = HALF_DISTANCE[1]
        self.latest = PeakonPair(amplitude_for_energy(self.energy, d), 0.5 - d, 0.5 + d).collision_time()
        self.inputs = {"p": self.pair.p, "q1": self.pair.q1, "q2": self.pair.q2, "collision_time": self.t_c}

    def config_text(self, t_end, extra=""):
        return (f"grid.n = {self.n}\ninitial.kind = peakon_pair\ninitial.p = {self.pair.p!r}\n"
                f"initial.q1 = {self.pair.q1!r}\ninitial.q2 = {self.pair.q2!r}\nrun.t_end = {t_end!r}\n"
                + extra)

    def reference_gates(self, field):
        """The reconstructed velocity against the exact peakon solution."""
        exact = self.pair.velocity(field.t, field.y)
        return [below(f"l2 against exact peakons at t = {field.t:.4f}", _l2(field.u, exact),
                      REFERENCE_L2_MAX[self.n])]

    def run_gates(self, rec):
        s = rec.series
        crossings = [e.time for e in rec.events if self.n // 2 in e.locations]
        return (_series_gates(s.energy, s.sphere_defect, s.tangency_defect)
                + [_crossing_gate(crossings, self.t_c)])


class CollisionCli(PeakonWorkload):
    """`rhosphere simulate` of a peakon pair at the library's default step."""

    name = "collision_cli"
    n = 1024

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.write_config(self.config_text(1.06 * self.latest))
        self.timer = EvolveTimer(cli)

    def produce(self, jobdir):
        return self.simulate(jobdir)

    def check(self, art):
        ops = Operations()
        out = art["out"]

        def run_gates():
            meta = _read_metadata(out / "metadata.txt")
            s = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
            crossings = []
            for line in (out / "events.csv").read_text().splitlines()[1:]:
                time, _, locs = line.split(",")
                if str(self.n // 2) in locs.split(";"):
                    crossings.append(float(time))
            return ([holds("exit code 0", art["code"] == 0, str(art["code"])),
                     holds("completed", meta.get("completed") == "true")]
                    + _series_gates(s[:, 1], s[:, 2], s[:, 3])
                    + [_crossing_gate(crossings, self.t_c)])

        ops.add("simulate run", run_gates)
        for share in (0.3, 0.6):
            ops.add(f"reference at {share} of the collision time",
                    lambda share=share: self.reference_gates(self._snapshot_field(out, share)))
        return ops

    def _snapshot_field(self, out, share):
        """u at the flow-map positions K from the snapshot file nearest share * t_c."""
        dt = float(_read_metadata(out / "metadata.txt")["dt"])
        snaps = sorted((out / "snapshots").glob("snap_*.csv"))
        steps = np.array([int(p.stem.split("_")[1]) for p in snaps])
        k = int(np.argmin(np.abs(steps * dt - share * self.t_c)))
        snap = np.loadtxt(snaps[k], delimiter=",", skiprows=1)  # x, rho, rho_t, K, u, ux, valid_ux
        return reconstruct.EulerianField(steps[k] * dt, snap[:, 3], snap[:, 4], snap[:, 5], snap[:, 6] > 0)


class SmallGridIO(Workload):
    """`rhosphere simulate` of the unit sine on a small grid, writing often."""

    name = "smallgrid_io"
    n = 256
    dt = 1e-3
    t_end = 1.5
    stride = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = float(self.rng.uniform(0.9, 1.1))
        self.inputs = {"amplitude": self.amplitude}
        self.write_config(
            f"grid.n = {self.n}\ninitial.kind = sine\ninitial.amplitude = {self.amplitude!r}\n"
            f"run.dt = {self.dt!r}\nrun.t_end = {self.t_end!r}\nrun.snapshot_stride = {self.stride}\n")
        self.timer = EvolveTimer(cli)

    def produce(self, jobdir):
        return self.simulate(jobdir)

    def check(self, art):
        ops = Operations()
        out = art["out"]
        steps = round(self.t_end / self.dt)

        def run_gates():
            meta = _read_metadata(out / "metadata.txt")
            s = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
            exact = self.amplitude ** 2 * (0.5 + 2.0 * math.pi ** 2)
            snaps = len(list((out / "snapshots").glob("snap_*.csv")))
            return ([holds("exit code 0", art["code"] == 0, str(art["code"])),
                     holds("completed", meta.get("completed") == "true"),
                     holds("series rows", s.shape[0] == steps + 1, str(s.shape[0])),
                     holds("snapshot files", snaps == steps // self.stride + 1, str(snaps)),
                     below("initial energy error", abs(s[0, 1] - exact) / exact, SINE_ENERGY_REL)]
                    + _series_gates(s[:, 1], s[:, 2], s[:, 3]))

        ops.add("simulate run", run_gates)
        return ops


class FineGrid(PeakonWorkload):
    """Library `evolve` on a fine grid at a pinned step, then every snapshot's field."""

    name = "fine_grid"
    n = 4096
    dt = 5e-4
    energy = 4.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.t_end = 1.06 * self.latest
        self.write_config(self.config_text(self.t_end, f"run.dt = {self.dt!r}\n"))
        self.grid, self.state, self.mu = scenarios.initial_state(self.spec)

    def produce(self, jobdir):
        cfg = integrate.IntegratorConfig(dt=self.dt, t_end=self.t_end)
        t0 = now()
        rec = integrate.evolve(self.grid, self.state, self.mu, cfg)
        evolve_s = now() - t0
        fields = [reconstruct.eulerian_velocity(self.grid, s, self.mu, m=2 * self.n)
                  for s in rec.snapshots]
        return {"record": rec, "fields": fields, "evolve_s": evolve_s,
                "model_t": float(rec.series.t[-1])}

    def check(self, art):
        ops = Operations()
        rec, fields = art["record"], art["fields"]
        ops.add("evolve run", lambda: self.run_gates(rec) + [
            holds("fields finite", all(np.isfinite(f.u).all() for f in fields))])
        times = np.array([f.t for f in fields])
        for share in (0.3, 0.6):
            f = fields[int(np.argmin(np.abs(times - share * self.t_c)))]
            ops.add(f"reference at {share} of the collision time", lambda f=f: self.reference_gates(f))
        return ops


class Verify(PeakonWorkload):
    """The correctness toolchain: validate, the oracle, compare, weak residuals."""

    name = "verify"
    n = 1024
    dt = 2e-3
    stride = 5
    oracle_dt = 1e-3
    residual_times = 10
    # (bump centre, window start, window end), the window relative to the
    # collision; off-centre bumps, since the odd symmetry annihilates centred ones
    windows = [(c, a, b) for c in (0.45, 0.58) for a, b in ((-0.3, 0.1), (-0.2, 0.2), (-0.1, 0.3))]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.validate_seed = int(self.rng.integers(1, 2**31))
        self.inputs["validate_seed"] = self.validate_seed
        self.t_end = self.latest + 0.32
        self.oracle_t_end = 1.06 * self.latest
        # criterion 5's cap: 85 percent of the dealiased slope ceiling sqrt(2 n E / 3)
        self.slope_cap = 0.85 * math.sqrt(2.0 * self.n * self.energy / 3.0)
        self.write_config(self.config_text(self.t_end, f"validate.seed = {self.validate_seed}\n"))
        self.grid, self.state, self.mu = scenarios.initial_state(self.spec)
        self.u0 = scenarios.make_initial(self.spec)[0]

    def produce(self, jobdir):
        code = _run_cli(["validate", "--config", self.config_path, "--out", jobdir])
        t0 = now()
        traj = oracle.eulerian_evolve(self.u0, self.oracle_dt, self.oracle_t_end, slope_cap=self.slope_cap)
        oracle_s = now() - t0
        cfg = integrate.IntegratorConfig(dt=self.dt, t_end=self.t_end, snapshot_stride=self.stride)
        t0 = now()
        rec = integrate.evolve(self.grid, self.state, self.mu, cfg)
        evolve_s = now() - t0
        # compare at stored oracle times, so that only the label side interpolates
        compare_times = sorted({float(traj.times[np.argmin(np.abs(traj.times - share * self.t_c))])
                                for share in (0.25, 0.5, 0.75)})
        distances = [(t, oracle.compare(rec, self.mu, traj, t, self.n)) for t in compare_times]
        field = reconstruct.eulerian_velocity(self.grid, reconstruct.state_at(rec, 0.6 * self.t_c), self.mu)
        residuals = [reconstruct.weak_residual(
            rec, self.mu, reconstruct.bump_test(c, 0.22, self.t_c + a, self.t_c + b),
            m=self.n, times=self.residual_times, route="label") for c, a, b in self.windows]
        return {"code": code, "out": Path(jobdir), "traj": traj, "record": rec,
                "distances": distances, "field": field, "residuals": residuals,
                "evolve_s": evolve_s, "model_t": float(rec.series.t[-1]),
                "oracle_s": oracle_s, "oracle_t": float(traj.times[-1])}

    def check(self, art):
        ops = Operations()
        report = art["out"] / "validation.txt"
        lines = report.read_text().splitlines() if report.is_file() else []
        for line in lines:
            ops.add(f"validate {line[5:].split()[0]}",
                    lambda line=line: [holds("check passed", line.startswith("ok"), line)])
        ops.add("validate exit", lambda: [holds("exit code 0", art["code"] == 0, str(art["code"])),
                                          holds("checks reported", len(lines) > 0)])

        traj = art["traj"]
        ops.add("oracle run", lambda: [
            holds("stopped at the slope cap", traj.blowup),
            holds("stops before the collision, within the gap band",
                  0.0 < (self.t_c - (traj.blowup_time or math.inf)) / self.t_c <= ORACLE_GAP_MAX,
                  f"at t = {traj.blowup_time}, collision {self.t_c:.5g}")])
        ops.add("evolve run", lambda: self.run_gates(art["record"]))
        ops.add("reference at 0.6 of the collision time", lambda: self.reference_gates(art["field"]))
        for t, (l2, _) in art["distances"]:
            ops.add(f"compare t={t:.3f}", lambda l2=l2: [below("l2 against the oracle", l2, COMPARE_L2_MAX)])
        for (c, a, b), r in zip(self.windows, art["residuals"]):
            ops.add(f"weak residual c={c} [{a:+.1f}, {b:+.1f}]",
                    lambda r=r: [below("|residual|", abs(r), WEAK_RESIDUAL_MAX)])
        return ops


WORKLOADS = {w.name: w for w in (CollisionCli, FineGrid, SmallGridIO, Verify)}
