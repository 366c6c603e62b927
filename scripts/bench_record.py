"""Record the benchmark of a change, and optionally of its parent, in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N --baseline ../parent-checkout

Runs `perfbench/run.py` for every workload, REPEATS times at `--trace 0`
(end-to-end metrics) and once at `--trace 1` (per-layer metrics), each
run as long as BENCHMARK.json sets, in this checkout and, with
`--baseline`, in another checkout of the repository.  With a baseline the
two checkouts alternate run by run, so that a slow spell of the host falls
on both alike.  The output holds each run's result line (metrics, failed
operations), the machine (processor count, Python, numpy and BLAS, as
perfbench records them) and, with a baseline, a summary of each
end-to-end metric: both medians, the baseline's interquartile range, the
ratio of the medians and the number of pairs the change won.
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
    """The checkout's HEAD, and whether tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
                            capture_output=True, text=True)
    return {"head": head.stdout.strip(), "modified": bool(status.stdout.strip())}


def run_one(checkout: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """(record, result) of one perfbench run in `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(change: list[dict], baseline: list[dict]) -> dict:
    """Per end-to-end metric: medians, the baseline's interquartile range,
    the ratio of the medians and the pairs the change won."""
    lower = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
    out = {}
    for metric, is_lower in lower.items():
        ch = [r["metrics"][metric]["value"] for r in change]
        base = [r["metrics"][metric]["value"] for r in baseline]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0], None, base[0])
        wins = sum((c < b) if is_lower else (c > b) for c, b in zip(ch, base))
        out[metric] = {"change_median": statistics.median(ch), "baseline_median": statistics.median(base),
                       "baseline_iqr": q3 - q1, "ratio": statistics.median(ch) / statistics.median(base),
                       "change_won": f"{wins}/{len(ch)}"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--baseline", type=Path, help="checkout to measure alongside this one")
    args = ap.parse_args(argv)

    checkouts = {"change": ROOT}
    if args.baseline is not None:
        checkouts["baseline"] = args.baseline.resolve()
    runs = {name: {w: {"trace0": [], "trace1": None} for w in WORKLOADS} for name in checkouts}
    machine = None
    for workload in WORKLOADS:
        for trace, repeats in ((0, REPEATS), (1, 1)):
            for repeat in range(repeats):
                # alternate which checkout runs first
                order = list(checkouts.items())[::-1 if repeat % 2 else 1]
                for name, checkout in order:
                    record, result = run_one(checkout, workload, trace)
                    machine = machine or record["machine"]
                    entry = {"jobs": record["jobs"], "failed_operations": record["failed_operations"], **result}
                    if trace == 0:
                        runs[name][workload]["trace0"].append(entry)
                    else:
                        runs[name][workload]["trace1"] = entry
                    print(f"{name} {workload} trace {trace}: {result['failed']} failed of {result['attempted']}",
                          file=sys.stderr)

    out = {"pr": args.pr, "seed": SEED, "seconds": SECONDS, "repeats": REPEATS,
           "machine": machine, "commits": {name: commit_of(c) for name, c in checkouts.items()},
           "runs": runs}
    if "baseline" in checkouts:
        out["summary"] = {w: summary(runs["change"][w]["trace0"], runs["baseline"][w]["trace0"])
                          for w in WORKLOADS}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
