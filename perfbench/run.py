#!/usr/bin/env python3
"""Builds the decoder benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload batch-d13 --seed 1 --seconds 10 --trace 0

Workloads: batch-d13 and stream-d5. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the workspace crates by path.
It is built in release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and each run is one process, so its peak
memory belongs to that workload alone. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, end-to-end with
--trace 0 and per-layer with --trace 1. A traced run also writes its spans to
<target dir>/perfbench/trace-<workload>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-d13", "stream-d5")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(target, "perfbench", f"trace-{args.workload}.jsonl")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
