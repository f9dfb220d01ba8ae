#!/usr/bin/env python3
"""Steadiness check for the expansion benchmark.

Runs the benchmark command of BENCHMARK.json several times on the same
build, alternating workloads (the order rotates every round, and every
round uses a new seed), then prints for each workload and end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4)),
and the spread (q3 - q1) / median next to the metric's bound. A spread
under a third of the bound is marked "ok", any other "WIDE"; setup_s is
judged like every other metric.

With --sets 2 it makes two such sets of runs (the second with the next
seeds) and also prints, per workload and metric, how much worse the
second median is than the first, as a share of the first, next to the
bound: two sets of runs of one build must agree within the bound.

Usage (from the root of the checkout):

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                                [--first-seed 1]
                                [--workloads cold-expand,warm-edit]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(argv), proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()
    workloads = opts.workloads.split(",")

    sets = [run_set(bench, workloads, opts.runs,
                    opts.first_seed + k * opts.runs, opts.seconds)
            for k in range(opts.sets)]
    steady = True
    for k, (values, failed) in enumerate(sets):
        print("set %d (seeds %d-%d)" % (k + 1, opts.first_seed + k * opts.runs,
                                        opts.first_seed + (k + 1) * opts.runs - 1))
        steady = report(bench, workloads, values, failed) and steady
    if len(sets) > 1:
        print("%-12s %-14s %12s %12s %8s %6s" %
              ("workload", "metric", "median 1", "median 2", "worse", "bound"))
        for w in workloads:
            for metric in bench["end_to_end"]:
                m1, m2 = (statistics.median(s[0][w][metric["name"]])
                          for s in sets[:2])
                worse = (m2 - m1) / m1
                if metric["better"] == "higher":
                    worse = -worse
                mark = "ok" if worse <= metric["bound"] else "WORSE"
                steady = steady and mark == "ok"
                print("%-12s %-14s %12.6g %12.6g %8.4f %6.2f %s" %
                      (w, metric["name"], m1, m2, worse, metric["bound"], mark))
            same = sets[0][1][w][0] == sets[1][1][w][0]
            steady = steady and same
            print("%-12s %-14s failed share equal in both sets: %s" %
                  (w, "failed", same))
    return 0 if steady else 1


def run_set(bench, workloads, runs, first_seed, seconds):
    """One set of runs; returns ({workload: {metric: [values]}},
    {workload: [failed share per run]})."""
    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for r in range(runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            res = run_once(bench["command"], w, first_seed + r, seconds)
            if not res["correct"]:
                sys.exit("incorrect output: %s seed %d" % (w, first_seed + r))
            failed[w].append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %s: %s" % (r + 1, w, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
                file=sys.stderr, flush=True)
    return values, failed


def report(bench, workloads, values, failed):
    """Prints one set's table; true when every spread is under a third of
    its bound and the failed share is the same in every run."""
    print("%-12s %-14s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    steady = True
    for w in workloads:
        for metric in bench["end_to_end"]:
            vals = values[w].get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "ok" if spread < metric["bound"] / 3 else "WIDE"
            steady = steady and mark == "ok"
            print("%-12s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
                  (w, metric["name"], med, q1, q3, spread, metric["bound"],
                   mark))
        same = len(set(failed[w])) == 1
        steady = steady and same
        print("%-12s %-14s %12.6g (failed share, identical in every run: %s)" %
              (w, "failed", failed[w][0], same))
    return steady

if __name__ == "__main__":
    sys.exit(main())
