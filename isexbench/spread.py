#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and spread.

    python3 isexbench/spread.py --seeds 301-310 --seconds 25 [--workload W ...]

Run from the root of the repository.  For every workload it runs
`run.py --workload W --seed S --seconds N --trace 0` for each seed, one run
at a time, and prints a markdown table: per metric the median over the runs
and, in brackets, the spread (interquartile range over the median, from
`statistics.quantiles(values, n=4)`).  This makes the README's reference
figures anew.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_sweep", "large_blocks", "portfolio_cached", "service_mix"]


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}, no result")
    return json.loads(lines[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="301-310")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS
    seeds = seed_list(args.seeds)

    table = {}  # metric -> {workload: (median, spread)}
    units = {}
    counts = []
    for workload in workloads:
        values = {}
        attempted, failed, correct = set(), set(), True
        for seed in seeds:
            result = run_one(workload, seed, args.seconds)
            correct = correct and result["correct"]
            attempted.add(result["attempted"])
            failed.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + json.dumps(result), file=sys.stderr,
                  flush=True)
        for name, v in values.items():
            table.setdefault(name, {})[workload] = (
                statistics.median(v), spread(v) if len(v) >= 2 else 0.0)
        counts.append(f"{workload}: attempted {min(attempted)}–{max(attempted)}, "
                      f"failed share {sorted(failed)}, correct {correct}")

    print("| metric | " + " | ".join(f"`{w}`" for w in workloads) + " |")
    print("| --- |" + " --- |" * len(workloads))
    for name, cells in table.items():
        row = [f"{cells[w][0]:.4g} ({cells[w][1]:.3f})" if w in cells else "–"
               for w in workloads]
        print(f"| `{name}` ({units[name]}) | " + " | ".join(row) + " |")
    print()
    for line in counts:
        print(line)


if __name__ == "__main__":
    main()
