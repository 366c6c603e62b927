"""Run one workload of the rhosphere benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src`.
Workloads: collision_cli, fine_grid, smallgrid_io, verify (see README.md).
The seed generates every input.  Jobs of the workload run one after
another, in this one process, for about S seconds.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the seed, the inputs, the
machine and any failed operation.  With --trace 0 the metrics are the
end-to-end ones, timed at nominal processor speed (`speed.py`); the
record keeps the raw wall times too.  With --trace 1 they are the
per-layer ones, in wall time, from traced jobs alternating with untraced
ones, plus the layer size sweep.

Run directories, spans and result records go to `.perfbench/` in the
checkout; run directories are deleted after each job.
"""

import os

# one BLAS / OpenMP thread, set before numpy is imported here or in a child
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_MIN_REPEATS = 7


class SetupProbe:
    """Set-up times from fresh interpreters: import, configuration, initial state.

    One probe runs before each job, so that the probes sample the same
    stretch of time as the jobs.  Times are at nominal speed, from a
    `speed.SpeedClock` in the probe's interpreter.
    """

    def __init__(self, config_path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(config_path)]
        self.times, self.raw = [], []
        self._run()  # warms the file cache; not counted

    def _run(self):
        done = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return [float(v) for v in done.stdout.split()[-2:]]

    def __call__(self):
        nominal, raw = self._run()
        self.times.append(nominal)
        self.raw.append(raw)

    def median(self):
        while len(self.times) < SETUP_MIN_REPEATS:
            self()
        return statistics.median(self.times)


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "thread_caps": THREAD_CAPS}


class Job:
    """One job: the program's work (timed), then the benchmark's gates.

    With `scaled`, the job is timed on a `speed.SpeedClock`: `wall` is at
    nominal speed, `raw_wall` is the wall time less the clock's kernel
    samples.  Otherwise both are wall seconds.
    """

    def __init__(self, workload, jobdir, tracer=None, scaled=False):
        from workloads import Operations, files_in

        jobdir.mkdir(parents=True)
        art, self.ops = {}, Operations()
        clock = speed.SpeedClock() if scaled else None
        t0 = perf_counter()
        try:
            if clock is not None:
                with speed.timing(clock):
                    art = workload.produce(jobdir)
            elif tracer is None:
                art = workload.produce(jobdir)
            else:
                tracer.install()
                try:
                    with tracer.region("job"):
                        art = workload.produce(jobdir)
                finally:
                    tracer.uninstall()
        except Exception as exc:  # the program failed: one failed operation, the run goes on
            self.ops.add("job", lambda: [("job", False, f"{type(exc).__name__}: {exc}")])
        self.raw_wall = perf_counter() - t0
        self.wall, self.slowdown = self.raw_wall, 1.0
        if clock is not None:
            self.raw_wall -= clock.kernel_s
            self.wall, self.slowdown = clock.nominal, clock.mean_slowdown()
        if art:
            self.ops = workload.check(art)
        # keep only the timings, so that the run's memory does not grow with its jobs
        self.timings = {k: v for k, v in art.items() if k in ("evolve_s", "model_t", "oracle_s", "oracle_t")}
        self.files, self.nbytes = files_in(jobdir)
        shutil.rmtree(jobdir)

    def rate(self, time_key, seconds_key):
        s = self.timings.get(seconds_key, 0.0)
        return self.timings[time_key] / s if s else 0.0


def run_jobs(workload, workdir, seconds, tracer=None, before_each=None):
    """Jobs until the next one would end past `seconds`; with a tracer,
    untraced and traced jobs alternate and at least one of each runs."""
    deadline = perf_counter() + seconds
    jobs = []
    while True:
        if before_each is not None:
            before_each()
        traced = tracer is not None and len(jobs) % 2 == 1
        jobs.append(Job(workload, workdir / f"job{len(jobs)}", tracer if traced else None, scaled=tracer is None))
        typical = statistics.median(j.raw_wall for j in jobs)
        if perf_counter() + typical > deadline and (tracer is None or len(jobs) >= 2):
            return jobs


def end_to_end(workload, workdir, args):
    probe = SetupProbe(workload.config_path)
    jobs = run_jobs(workload, workdir, args.seconds, before_each=probe)
    return {
        "setup_s": (probe.median(), "s"),
        "wall_s": (statistics.median(j.wall for j in jobs), "s"),
        "model_time_per_s": (statistics.median(j.rate("model_t", "evolve_s") for j in jobs), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, jobs, {"setup_s": probe.times, "setup_raw_s": probe.raw}


def per_layer(workload, workdir, args):
    from rhosphere.config import parse_config
    from rhosphere.scenarios import initial_state
    from spans import Tracer, layer_metrics
    from sweep import layer_sweep, median_us

    metrics = {
        "config.parse_ms": (median_us(lambda: parse_config(workload.config_path)) / 1e3, "ms"),
        "scenarios.initial_state_ms": (median_us(lambda: initial_state(workload.spec)) / 1e3, "ms"),
    }
    metrics.update((k, (v, "us")) for k, v in layer_sweep(args.seed).items())
    tracer = Tracer()
    jobs = run_jobs(workload, workdir, args.seconds, tracer)
    plain, traced = jobs[0::2], jobs[1::2]
    metrics.update(layer_metrics(tracer, len(traced), sum(j.files for j in traced), sum(j.nbytes for j in traced)))
    metrics["trace.overhead_s"] = (
        statistics.median(j.wall for j in traced) - statistics.median(j.wall for j in plain), "s")
    metrics["oracle_model_time_per_s"] = (statistics.median(j.rate("oracle_t", "oracle_s") for j in plain), "1/s")
    tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    return metrics, jobs, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one rhosphere benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rhosphere" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'rhosphere'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rhosphere

    if Path(rhosphere.__file__).resolve().parent != (SRC / "rhosphere").resolve():
        print(f"benchmark: imported rhosphere from {rhosphere.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    for sub in ("tmp", "traces", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            measure = end_to_end if args.trace == 0 else per_layer
            metrics, jobs, samples = measure(workload, workdir, args)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(j.ops.rows) for j in jobs)
    failures = [(name, detail) for j in jobs for name, _, detail in j.ops.failed]
    for name, detail in failures:
        print(f"benchmark: failed operation {name}: {'; '.join(detail)}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "jobs": len(jobs), "job_wall_s": [j.wall for j in jobs],
              "job_raw_wall_s": [j.raw_wall for j in jobs], "job_slowdown": [j.slowdown for j in jobs],
              "job_model_time_per_s": [j.rate("model_t", "evolve_s") for j in jobs],
              **samples,
              "inputs": workload.inputs, "machine": machine_record(), "failed_operations": failures}
    result = {"correct": not failures and attempted > 0, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
