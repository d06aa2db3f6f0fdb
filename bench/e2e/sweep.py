#!/usr/bin/env python3
"""Runs the benchmark over several seeds and workloads to make one result set.

    python3 bench/e2e/sweep.py --out <results.jsonl> [--seeds 1-10] [--seconds 10]
                               [--trace 0|1] [--workloads a,b,...] [--commit <id>]

Each (seed, workload) pair is one bench/e2e/run.py process; seeds are the
outer loop, so the workloads interleave. Every run appends its metric lines
to --out. At the end the script prints, per workload and metric, the median
over seeds and the quartile spread (Q3 - Q1) / median, with the quartiles
of statistics.quantiles(values, n=4). Set the end-to-end spreads against
the bounds in BENCHMARK.json. The exit code is 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-ensemble", "cluster-pressure", "serve-icebreaker", "ingest-2021"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--commit", default="unknown")
    args = p.parse_args()

    values = {}  # (workload, metric) -> [value per seed]
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
                   "--out", args.out, "--commit", args.commit]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"FAILED {workload} seed {seed} (exit {proc.returncode})", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr)

    print(f"{'workload':17} {'metric':32} {'median':>14} {'spread':>8}  runs")
    for (workload, name), xs in values.items():
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        print(f"{workload:17} {name:32} {med:14.6g} {spread:8.2%}  {len(xs)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
