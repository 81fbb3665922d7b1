"""Write a committed baseline, perfbench/BENCH_<label>.json.

    python3 perfbench/baseline.py --label 0 --runs 10

Runs run.py on every workload `--runs` times, each with another seed and
the workloads interleaved so that slow phases of a shared machine spread
over all of them; then one traced run per workload. For each end-to-end
metric it records the median, the quartiles (statistics.quantiles, n=4)
and the spread (interquartile range over median) over the runs, and the
per-layer metrics and counters of the traced run, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH, "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    result["environment"] = record["environment"]
    # The time as measured, before speed normalisation, to show what it removes.
    result["raw_wall_s"] = statistics.median(
        s["raw_wall_s"] for s in record["samples"] if not s["problems"] and s["workload"] != "setup")
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:3]), flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "min": min(values), "max": max(values), "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            runs[w].append(run(w, seed, 0, seconds))
    traced = {w: run(w, args.first_seed, 1, seconds) for w in workloads}

    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for w in workloads:
        out["workloads"][w] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"] for r in runs[w]]), unit=m["unit"])
                for m in spec["end_to_end"]
            },
            "raw_wall_s": summary([r["raw_wall_s"] for r in runs[w]]),
            "per_layer": {k: v["value"] for k, v in traced[w]["metrics"].items()},
            "per_layer_correct": traced[w]["correct"],
        }
    envs = [r["environment"] for rs in runs.values() for r in rs]
    out["environment"] = dict(envs[0], loadavg_end=envs[-1]["loadavg_end"])
    path = os.path.join(BENCH, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
