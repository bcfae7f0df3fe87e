#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two interleaved sets of every workload (set A and set B alternate run by
run, each run on its own seed), then prints, per workload and end-to-end
metric, each set's median, quartiles and relative spread (quartile distance
over median, from statistics.quantiles(values, n=4)) next to the metric's
bound, and how far set B's median moved against set A's in the worse
direction. Seeds run from 1000 up. Exits 1 if any end-to-end metric's
spread in either set, or its shift, exceeds the metric's bound, or if any
run failed.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a checkout; each run is the benchmark's own command.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2  # set A and set B, interleaved run by run
SEED_BASE = 1000


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    p.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {}  # (set, workload, metric) -> [values]
    for i in range(args.runs):
        seed = SEED_BASE + i
        for s in range(SETS):
            for w in workloads:
                got = run_once(spec, w, seed, 0)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        got[m["name"]])
                print("run %d set %s %s seed %d done" % (i, "AB"[s], w, seed),
                      file=sys.stderr, flush=True)

    ok = True
    print("%-12s %-16s %6s | %-40s | %-40s | %s" % (
        "workload", "metric", "bound", "set A median [q1, q3] spread",
        "set B median [q1, q3] spread", "B vs A"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds = [], []
            for s in range(SETS):
                med, q1, q3, spread = stats(values[(s, w, name)])
                meds.append(med)
                flag = "" if spread <= bound else " !"
                ok = ok and not flag
                cols.append("%.6g [%.6g, %.6g] %.1f%%%s" % (
                    med, q1, q3, 100 * spread, flag))
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            bad = worse > bound
            ok = ok and not bad
            print("%-12s %-16s %5.0f%% | %-40s | %-40s | %+.1f%%%s" % (
                w, name, 100 * bound, cols[0], cols[1], 100 * worse,
                " !" if bad else ""))
    print("steady" if ok else "NOT steady: a spread or shift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print("steady.py: " + str(e), file=sys.stderr)
        sys.exit(1)
