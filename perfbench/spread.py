#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload solve-halo-4k --seeds 1-10

Run it from the repository root. For every metric of the result line it
prints the median, the first and third quartiles (statistics.quantiles with
n=4) and the quartile distance as a share of the median, which is how the
benchmark's bounds in BENCHMARK.json are judged. With --sets 2 it repeats
the seed list and also prints how far the second set's median moved from
the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace, log):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if log:
        log.write(p.stdout + p.stderr)
        log.flush()
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    return res["metrics"]


def summary(runs):
    out = {}
    for name in runs[0]:
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0, runs[0][name]["unit"])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--log", help="file that collects every run's full report")
    args = ap.parse_args()
    log = open(args.log, "a") if args.log else None
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run(args.workload, seed, seconds, args.trace, log))
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1].items() if k in bounds)
            print(f"set {s + 1} seed {seed}: {vals}", flush=True)
        sets.append(summary(runs))
    for i, summ in enumerate(sets):
        print(f"{args.workload} set {i + 1}:")
        for name, (med, q1, q3, spread, unit) in summ.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD ABOVE BOUND"
            drift = ""
            if i > 0 and sets[0][name][0]:
                d = med / sets[0][name][0] - 1
                drift = f"  median moved {d:+.2%} from set 1"
            print(f"  {name:28s} median {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g}"
                  f"  iqr/median {spread:.2%} (bound {bound}){flag}{drift}")


if __name__ == "__main__":
    main()
