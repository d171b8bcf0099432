#!/usr/bin/env python3
"""Steadiness tool: runs each workload repeatedly and reports the spread.

Usage (from the repository root):
  python3 perfbench/steady.py [--workloads firehose,jellybean,dashboard]
      [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]

Each run uses its own seed (first-seed, first-seed + 1, ...); workloads are
interleaved run by run so host drift spreads over all of them alike. For
every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json; a spread above a third of the
bound is flagged. All results are also written to
.bench_out/steady_<first-seed>_<runs>.json.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.first_seed + i, args.seconds, args.trace)
            results[w].append(r)
            print("%-10s seed %-4d correct=%s attempted=%d failed=%d %.1fs"
                  % (w, args.first_seed + i, r["correct"], r["attempted"],
                     r["failed"], r["wall_s"]), flush=True)

    summary = {}
    print()
    print("%-10s %-34s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        runs = results[w]
        summary[w] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"]
                                    for r in runs}),
            "metrics": {},
        }
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and \
                    spread > bound / 3:
                flag = "  <-- above bound/3"
            print("%-10s %-34s %12.6g %12.6g %12.6g %7.3f %6s%s" %
                  (w, m["name"], med, q1, q3, spread,
                   "" if bound is None else bound, flag))
            summary[w]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
        print("%-10s correct in every run: %s; failed shares: %s" %
              (w, summary[w]["correct"], summary[w]["failed_share"]))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady_%d_%d%s.json" %
                        (args.first_seed, args.runs,
                         "_trace" if args.trace else ""))
    with open(path, "w") as f:
        json.dump({"seconds": args.seconds, "trace": args.trace,
                   "summary": summary}, f, indent=1)
    print("written to %s" % path)


if __name__ == "__main__":
    main()
