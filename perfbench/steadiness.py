#!/usr/bin/env python3
"""Steadiness report: run each workload several times and show how much
every end-to-end metric moves.

Run from the root of the repository:

    python3 perfbench/steadiness.py                      # 10 seeds each
    python3 perfbench/steadiness.py --runs 5 --workload serve
    python3 perfbench/steadiness.py --out a.json
    python3 perfbench/steadiness.py --compare a.json b.json

Run i of a workload uses seed i (1..runs). For every
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the interquartile spread and the max-min spread, both as a share of the
median, and flags a spread above a tenth or above a third of the metric's
bound in BENCHMARK.json. --compare prints, for two saved result sets, the
change of each median as a share of the first, flagged against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if out.returncode != 0:
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("  note: %s seed %d had %d failed of %d"
              % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread_table(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload, runs in results.items():
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-22s %12s %12s %12s %8s %8s  %s"
              % ("metric", "median", "q1", "q3", "iqr/med", "rng/med",
                 "flag"))
        for name in sorted(bounds):
            vals = [r[name] for r in runs if name in r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            flag = []
            if iqr > 0.1:
                flag.append("iqr>0.1")
            if iqr > bounds[name] / 3 and name != "setup_s":
                flag.append("iqr>bound/3")
            flagged += bool(flag)
            print("  %-22s %12.5g %12.5g %12.5g %8.4f %8.4f  %s"
                  % (name, med, q1, q3, iqr, rng, " ".join(flag)))
    return flagged


def compare(spec, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    for workload in a:
        if workload not in b:
            continue
        print("\n%s" % workload)
        print("  %-22s %12s %12s %9s  %s"
              % ("metric", "median A", "median B", "change", "flag"))
        for name, (bound, better) in sorted(bounds.items()):
            ma = statistics.median(r[name] for r in a[workload])
            mb = statistics.median(r[name] for r in b[workload])
            change = (mb - ma) / ma if ma else 0.0
            regress = -change if better == "higher" else change
            flag = "WORSE>bound" if regress > bound else ""
            worse += bool(flag)
            print("  %-22s %12.5g %12.5g %+8.4f  %s"
                  % (name, ma, mb, change, flag))
    return worse


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out", help="save the raw results here (JSON)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two saved result sets instead of running")
    a = p.parse_args()
    spec = load_spec()
    if a.compare:
        sets = []
        for path in a.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(1 if compare(spec, *sets) else 0)
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    # Seed-major order, so a drift in the host's load spreads over every
    # workload instead of landing on one.
    results = {w: [] for w in workloads}
    for seed in range(1, a.runs + 1):
        for w in workloads:
            results[w].append(run_once(w, seed, seconds))
            print("  %s seed %d done" % (w, seed), file=sys.stderr)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(results, f, indent=1)
    flagged = spread_table(spec, results)
    print("\n%d metric(s) flagged" % flagged)


if __name__ == "__main__":
    main()
