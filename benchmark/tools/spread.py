#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs the command in BENCHMARK.json ten times per workload, each with
another seed, and prints for each end-to-end metric the distance between
the first and third quartile of the ten values as a share of their
median, beside a third of the metric's bound (the target) and the bound
(the limit). Run from the repository root:

    python3 benchmark/tools/spread.py [first-seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

decl = json.load(open("BENCHMARK.json"))
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 100
workloads = sys.argv[2:] or [w["name"] for w in decl["workloads"]]
worst = 0.0
for workload in workloads:
    values = {m["name"]: [] for m in decl["end_to_end"]}
    for seed in range(first_seed, first_seed + 10):
        cmd = decl["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(decl["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0, (workload, seed, line)
        for name, m in line["metrics"].items():
            values[name].append(m["value"])
    for m in decl["end_to_end"]:
        v = values[m["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        flag = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread < m["bound"] else "  > BOUND")
        print(f"{workload:<22} {m['name']:<22} median {median:>14.5f}  spread {spread:6.2%}"
              f"  bound {m['bound']:.0%}{flag}", flush=True)
print(f"largest spread is {worst:.2f} of its bound")
