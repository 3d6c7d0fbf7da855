#!/usr/bin/env python3
"""Steadiness report: run every workload many times, alternating
workloads (and sets), and summarise each metric.

    python3 vpbench/steady.py [--runs 10] [--sets 1] [--seed-base 1]

Run from the root of a checkout. Every run measures for BENCHMARK.json's
run_seconds and reports the end-to-end metrics. Each run gets its own
seed (set k, run i uses seed-base + i, so every set sees the same
seeds). For each workload and metric it prints the median, the
quartiles (Python's statistics.quantiles(values, n=4)), min and max,
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json. With --sets 2 it also compares the second set's median
with the first's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" %
                         (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("run reported failures: %s" % lines[-1])
    return result, wall


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": spread}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> [values]
    walls = []
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = args.seed_base + i
                result, wall = run_once(w, seed, seconds)
                walls.append(wall)
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print("run %d set %d %s seed %d: %.1f s" %
                      (i + 1, s + 1, w, seed, wall), file=sys.stderr,
                      flush=True)

    worst = 0.0
    for w in workloads:
        print("\n== %s (%d runs per set, %d s each)" %
              (w, args.runs, seconds))
        print("%-28s %4s %12s %12s %12s %12s %12s %7s %6s" %
              ("metric", "set", "median", "q1", "q3", "min", "max",
               "spread", "bound"))
        for name in spec:
            sets = []
            for s in range(args.sets):
                vals = values.get((s, w, name))
                if not vals:
                    continue
                st = summarise(vals)
                sets.append(st)
                bound = spec[name]["bound"]
                worst = max(worst, st["spread"] / bound)
                print("%-28s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %6.1f%% %6.2f"
                      % (name, s + 1, st["median"], st["q1"], st["q3"],
                         st["min"], st["max"], 100 * st["spread"], bound))
            if len(sets) == 2:
                a, b = sets[0]["median"], sets[1]["median"]
                lower = spec[name]["better"] == "lower"
                worse = (b - a) / a if lower else (a - b) / a
                print("%-28s      set 2 vs set 1: %+.1f%% (worse by %.1f%%"
                      " of a %.0f%% bound)" %
                      ("", 100 * (b - a) / a, 100 * max(0.0, worse),
                       100 * spec[name]["bound"]))
    print("\nworst spread / bound: %.2f" % worst)
    print("mean wall per run: %.1f s" % statistics.mean(walls))


if __name__ == "__main__":
    main()
