#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread across the runs.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload stream-d5 --seeds 1-10 [--seconds 10]

The spread is the distance between the first and third quartile of the
per-run values, as statistics.quantiles(values, n=4) gives them, as a share
of their median; it is compared with the bound BENCHMARK.json fixes for the
metric. Runs are sequential; every run is its own process. The spread rule
has a doctest: python3 -m doctest perfbench/spread.py
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    """(median, (q3 - q1) / median) across runs.

    >>> spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    (5.5, 1.0)
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / abs(q2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: no result (exit code {run.returncode})", flush=True)
            continue
        result = json.loads(lines[-1])
        ok = run.returncode == 0 and result["correct"]
        print(f"seed {seed}: {'ok' if ok else 'FAILED'}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median, relative = spread(series)
        bound = bounds.get(name, float("nan"))
        flag = "" if relative <= bound / 3 else "  <-- above a third of the bound"
        print(f"{name:28} {median:14.6g} {relative:8.4f} {bound:6.3f}{flag}")
        print("    " + " ".join(f"{v:.6g}" for v in series))


if __name__ == "__main__":
    main()
