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
ratio of the medians, the number of pairs the change won and whether the
gain rule holds.  Each run also records the host's steal share over it,
the share of all CPU time in /proc/stat that the hypervisor gave to other
guests, and the summary gives each side's median, so that a record shows
when one side ran in a spell of contention.  The gain rule: the change won at least 9 of 10 pairs,
and its median is better than the baseline's by more than the baseline's
interquartile range.

With `--held-out SEED` the runs use that seed instead, only at `--trace 0`,
and go under the key "held_out" of the existing BENCH_<pr>.json, so that a
gain measured while working on seed 1 is checked on a seed it was not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def run_one(checkout: Path, workload: str, trace: int, seed: int = SEED) -> tuple[dict, dict]:
    """(record, result) of one perfbench run in `checkout`; the result
    gains the steal share over the run, or None where it is unknown."""
    before = cpu_times()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    after = cpu_times()
    lines = done.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    total = after[1] - before[1] if before and after else 0
    result["steal_share"] = (after[0] - before[0]) / total if total > 0 else None
    return record, result


def median_steal(runs: list[dict]) -> float | None:
    shares = [r["steal_share"] for r in runs if r.get("steal_share") is not None]
    return statistics.median(shares) if shares else None


def summary(change: list[dict], baseline: list[dict]) -> dict:
    """Per end-to-end metric: medians, the baseline's interquartile range,
    the ratio of the medians, the pairs the change won and whether the
    gain rule holds: at least 9 of 10 pairs won, and the median better by
    more than the baseline's interquartile range.  Under "steal_share",
    each side's median steal share."""
    lower = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
    out = {}
    for metric, is_lower in lower.items():
        ch = [r["metrics"][metric]["value"] for r in change]
        base = [r["metrics"][metric]["value"] for r in baseline]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0], None, base[0])
        wins = sum((c < b) if is_lower else (c > b) for c, b in zip(ch, base))
        ch_median, base_median = statistics.median(ch), statistics.median(base)
        gain = base_median - ch_median if is_lower else ch_median - base_median
        out[metric] = {"change_median": ch_median, "baseline_median": base_median,
                       "baseline_iqr": q3 - q1, "ratio": ch_median / base_median,
                       "change_won": f"{wins}/{len(ch)}",
                       "gain_rule_holds": 10 * wins >= 9 * len(ch) and gain > q3 - q1}
    out["steal_share"] = {"change_median": median_steal(change), "baseline_median": median_steal(baseline)}
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
    for workload in workloads:
        for trace, repeats in traces:
            for repeat in range(repeats):
                # alternate which checkout runs first
                order = list(checkouts.items())[::-1 if repeat % 2 else 1]
                for name, checkout in order:
                    record, result = run_one(checkout, workload, trace, seed)
                    machine = machine or record["machine"]
                    entry = {"jobs": record["jobs"], "failed_operations": record["failed_operations"], **result}
                    if trace == 0:
                        runs[name][workload]["trace0"].append(entry)
                    else:
                        runs[name][workload]["trace1"] = entry
                    print(f"{name} {workload} trace {trace}: {result['failed']} failed of {result['attempted']}",
                          file=sys.stderr)

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
