#!/usr/bin/env python3
"""Steadiness report: runs each workload k times, each with another seed,
and prints every end-to-end metric's median, quartiles and spread (the
distance between the first and third quartile, as a share of the median)
against the bound BENCHMARK.json gives it.

    python3 drbench/steadiness.py [--runs 10] [--seed0 1] [--workload NAME]...
                                  [--seconds S] [--json-out FILE]

Run from the repository root. A spread at or above a third of its bound is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: result not correct")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json-out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            result = run_once(w, args.seed0 + k, seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {args.seed0 + k}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        report[w] = {}
        print(f"\n{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread < m["bound"] / 3 or spread == 0 else "  <-- too wide"
            steady = steady and not flag
            report[w][m["name"]] = {"values": v, "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": m["bound"]}
            print(f"  {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6.3g}{flag}")
        print(flush=True)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
