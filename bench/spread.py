#!/usr/bin/env python3
"""Runs every workload several times, each time with another seed, and
prints for each end-to-end metric the distance between the first and the
third quartile of its values as a share of their median — the spread the
driver holds against the metric's bound in BENCHMARK.json.

    python3 bench/spread.py [runs [first_seed [workload ...]]]
"""
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
names = sys.argv[3:] or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

worst = 0.0
for name in names:
    values = {}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
    for metric, vals in sorted(values.items()):
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q[2] - q[0]) / med
        worst = max(worst, share / bounds[metric])
        flag = "" if share <= bounds[metric] / 3 else ("  > bound/3" if share <= bounds[metric] else "  > BOUND")
        print(f"{name:16s} {metric:14s} median {med:14.4f}  iqr {100 * share:6.2f}%  bound {100 * bounds[metric]:5.1f}%{flag}",
              flush=True)
print(f"worst spread is {worst:.2f} of its bound")
