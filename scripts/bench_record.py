"""Record the benchmark of a change, and optionally of its parent, in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N --baseline ../parent-checkout
    python3 scripts/bench_record.py --pr N --baseline ../parent-checkout \
        --held-out 7 --workloads smallgrid_io

Runs `perfbench/run.py` for every workload (or those of `--workloads`),
REPEATS times at `--trace 0` (end-to-end metrics) and once at `--trace 1`
(per-layer metrics), each run as long as BENCHMARK.json sets, in this
checkout and, with `--baseline`, in another checkout of the repository.
With a baseline the two checkouts alternate run by run, so that a slow
spell of the host falls on both alike.  The output holds each run's result line (metrics, failed
operations), the machine (processor count, Python, numpy and BLAS, as
perfbench records them) and, with a baseline, a summary of each
end-to-end metric: both medians, the baseline's interquartile range, the
ratio of the medians, the number of pairs the change won, whether the
gain rule holds and whether the change is within the metric's bound.
Each run also records the host's steal share over it, the share of all
CPU time in /proc/stat that the hypervisor gave to other guests, and its
run-delay share, the time /proc/<pid>/schedstat says the perfbench
process was runnable but waiting for a CPU over the run's wall time,
which also sees contention the steal share misses.  The summary
gives each side's median of both, so that a record shows when one side
ran in a spell of contention.  Each run records too its CPU seconds per
job: the user and system time of the perfbench process and of every
descendant it waited for, snapshot writers and sweep workers included,
over the run's jobs; the summary gives each side's median.  The gain
rule: the change won at least 9 of 10 pairs, and its median is better
than the baseline's by more than the baseline's interquartile range.
The bound rule, which a change that claims no gain must meet: the
change's median is no worse than the baseline's by more than the
metric's relative `bound` in BENCHMARK.json.  A metric is unresolved
when the baseline's interquartile range exceeds that bound times its
median: its runs spread too widely for the bound rule to tell a
regression from noise.

Both checkouts run with the same bytecode-cache state: each side's runs
get their own PYTHONPYCACHEPREFIX directory, empty at the start, under
one temporary directory that lasts the whole recording, and perfbench's
set-up probe inherits it.  A checkout's own __pycache__ is then neither
read nor written, so a side that had one does not start its imports
sooner than a fresh clone.  PYTHONDONTWRITEBYTECODE is dropped from the
runs' environment, so that each side's first run fills its directory and
the later runs import from a warm cache, as an installed package does;
otherwise every run would compile the standard library and numpy anew.

With `--held-out SEED` the runs use that seed instead, only at `--trace 0`,
and go under the key "held_out" of the existing BENCH_<pr>.json, so that a
gain measured while working on seed 1 is checked on a seed it was not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
REPEATS = 10
SEED = 1


def commit_of(checkout: Path) -> dict | None:
    """The checkout's HEAD, and whether tracked files other than the
    BENCH_*.json records (which the seed-1 pass writes into this checkout
    before a held-out pass) differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", ".",
                             ":!BENCH_*.json"], cwd=checkout, capture_output=True, text=True)
    return {"head": head.stdout.strip(), "modified": bool(status.stdout.strip())}


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host's `cpu` line in /proc/stat, the
    guest fields left out of the total since user and nice hold them; None
    where there is no such file."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_delay_ns(pid: int) -> int | None:
    """The run-delay field of /proc/<pid>/schedstat, the nanoseconds the
    process's main thread was runnable but not running; None where there
    is no such file."""
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as f:
            return int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None


def run_one(checkout: Path, workload: str, trace: int, seed: int, pycache: Path) -> tuple[dict, dict]:
    """(record, result) of one perfbench run in `checkout`, its bytecode
    read from and written to `pycache` (PYTHONPYCACHEPREFIX); the result
    gains the steal share and the run-delay share over the run, each None
    where it is unknown, and the CPU seconds per job, None for a run of no
    jobs.  The run delay is read after the child exits and before it is
    reaped, while its /proc entry still holds the figure; the CPU time is
    the rusage of reaping it, which holds its waited-for descendants'."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    before = cpu_times()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=err, env=env)
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        delay = run_delay_ns(child.pid)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        after = cpu_times()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv, stdout, stderr)
    lines = stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    total = after[1] - before[1] if before and after else 0
    result["steal_share"] = (after[0] - before[0]) / total if total > 0 else None
    result["run_delay_share"] = delay / 1e9 / wall if delay is not None else None
    cpu_s = usage.ru_utime + usage.ru_stime
    result["cpu_s_per_job"] = cpu_s / record["jobs"] if record["jobs"] else None
    return record, result


def median_of(runs: list[dict], key: str) -> float | None:
    shares = [r[key] for r in runs if r.get(key) is not None]
    return statistics.median(shares) if shares else None


def summary(change: list[dict], baseline: list[dict]) -> dict:
    """Per end-to-end metric: medians, the baseline's interquartile range,
    the ratio of the medians, the pairs the change won, whether the gain
    rule holds (at least 9 of 10 pairs won, and the median better by more
    than the baseline's interquartile range) and whether the change is
    within its bound (the median worse than the baseline's by at most the
    metric's relative bound), and whether it is unresolved (the
    baseline's interquartile range above the bound times its median).
    Under "steal_share", "run_delay_share" and
    "cpu_s_per_job", each side's median of that figure."""
    out = {}
    for m in BENCHMARK["end_to_end"]:
        metric, is_lower = m["name"], m["better"] == "lower"
        ch = [r["metrics"][metric]["value"] for r in change]
        base = [r["metrics"][metric]["value"] for r in baseline]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0], None, base[0])
        wins = sum((c < b) if is_lower else (c > b) for c, b in zip(ch, base))
        ch_median, base_median = statistics.median(ch), statistics.median(base)
        gain = base_median - ch_median if is_lower else ch_median - base_median
        out[metric] = {"change_median": ch_median, "baseline_median": base_median,
                       "baseline_iqr": q3 - q1, "ratio": ch_median / base_median,
                       "change_won": f"{wins}/{len(ch)}",
                       "gain_rule_holds": 10 * wins >= 9 * len(ch) and gain > q3 - q1,
                       "within_bound": -gain <= m["bound"] * base_median,
                       "unresolved": q3 - q1 > m["bound"] * base_median}
    for key in ("steal_share", "run_delay_share", "cpu_s_per_job"):
        out[key] = {"change_median": median_of(change, key), "baseline_median": median_of(baseline, key)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--baseline", type=Path, help="checkout to measure alongside this one")
    ap.add_argument("--held-out", type=int, metavar="SEED",
                    help="run this seed at --trace 0 only and add the runs to BENCH_<pr>.json")
    ap.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated (default: all)")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if unknown := set(workloads) - set(WORKLOADS):
        ap.error(f"unknown workloads {sorted(unknown)}")
    path = ROOT / f"BENCH_{args.pr}.json"
    if args.held_out is not None and not path.exists():
        ap.error(f"{path.name} must exist to add held-out runs to")
    seed = SEED if args.held_out is None else args.held_out
    traces = ((0, REPEATS),) if args.held_out is not None else ((0, REPEATS), (1, 1))

    checkouts = {"change": ROOT}
    if args.baseline is not None:
        checkouts["baseline"] = args.baseline.resolve()
    runs = {name: {w: {"trace0": [], "trace1": None} for w in workloads} for name in checkouts}
    machine = None
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as caches:
        for workload in workloads:
            for trace, repeats in traces:
                for repeat in range(repeats):
                    # alternate which checkout runs first
                    order = list(checkouts.items())[::-1 if repeat % 2 else 1]
                    for name, checkout in order:
                        record, result = run_one(checkout, workload, trace, seed, Path(caches) / name)
                        machine = machine or record["machine"]
                        entry = {"jobs": record["jobs"], "failed_operations": record["failed_operations"],
                                 **result}
                        if trace == 0:
                            runs[name][workload]["trace0"].append(entry)
                        else:
                            runs[name][workload]["trace1"] = entry
                        print(f"{name} {workload} trace {trace}: {result['failed']} failed of "
                              f"{result['attempted']}", file=sys.stderr)

    out = {"pr": args.pr, "seed": seed, "seconds": SECONDS, "repeats": REPEATS,
           "machine": machine, "commits": {name: commit_of(c) for name, c in checkouts.items()},
           "runs": runs}
    if "baseline" in checkouts:
        out["summary"] = {w: summary(runs["change"][w]["trace0"], runs["baseline"][w]["trace0"])
                          for w in workloads}
    if args.held_out is not None:
        held_out, out = out, json.loads(path.read_text(encoding="utf-8"))
        out["held_out"] = held_out
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
