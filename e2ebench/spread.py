#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

    python3 e2ebench/spread.py [--runs 10] [--sets 2] [--seconds S]
                               [--workloads a,b] [--first-seed 1] [--trace 0|1]

Run it from the root of a checkout. For each set and workload it runs the
BENCHMARK.json command --runs times, each with another seed, and prints
every metric's median, first and third quartile (statistics.quantiles,
n=4) and spread, (q3 - q1) / median. A metric BENCHMARK.json bounds is
marked "ok" when its spread is within a third of the bound, "wide" when it
is within the bound, and "TOO WIDE" beyond it. With two or more sets it
also prints how far each later set's median moved from the first set's in
the metric's worse direction, against the bound. Exit code 1 when a run
fails or a bounded metric (other than setup_s's spread) is out of bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return statistics.median(values), q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        medians = []  # per set: {metric: median}
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                try:
                    runs.append(run_once(spec, workload, seed, seconds,
                                         args.trace))
                except RuntimeError as e:
                    print("FAILED: %s" % e)
                    return 1
            print("\n%s, set %d: %d runs of %g s" % (workload, s + 1,
                                                     args.runs, seconds))
            print("%-40s %14s %14s %14s %8s %6s  %s" % (
                "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
            medians.append({})
            for name in runs[0]:
                median, q1, q3, spread = summarize([r[name] for r in runs])
                medians[-1][name] = median
                bound = bounded.get(name, {}).get("bound")
                verdict = ""
                if bound is not None:
                    verdict = ("ok" if spread <= bound / 3 else
                               "wide" if spread <= bound else "TOO WIDE")
                    if verdict == "TOO WIDE" and name != "setup_s":
                        ok = False
                print("%-40s %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
                    name, median, q1, q3, spread,
                    "" if bound is None else "%g" % bound, verdict))
        for s in range(1, len(medians)):
            print("\n%s: set %d median vs set 1" % (workload, s + 1))
            for name, metric in bounded.items():
                first, later = medians[0].get(name), medians[s].get(name)
                if first is None or later is None or not first:
                    continue
                worse = (later - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= metric["bound"] else "REGRESSED"
                if verdict != "ok":
                    ok = False
                print("%-40s %+8.4f (bound %g) %s" % (name, worse,
                                                      metric["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
