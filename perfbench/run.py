#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload reproduce|observe|wide \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (perfbench/bin/main.exe)
from source with dune, runs it, and passes its output through. The last
line printed is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. Exits non-zero, without a result line, when the source
tree is incomplete or the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("reproduce", "observe", "wide")
TARGET = "./perfbench/bin/main.exe"
EXE = "_build/default/perfbench/bin/main.exe"
# What the build and the run read; without these there is nothing to run.
NEEDED = (
    "dune-project",
    "lib",
    "bench/baseline.json",
    "perfbench/refs.json",
    "perfbench/bin/main.ml",
)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in NEEDED if not Path(p).exists()]
    if missing:
        fail("not a source checkout (missing: " + ", ".join(missing) + ")")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", TARGET],
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
            # Build inside the checkout only: no shared cache in $HOME.
            env={**os.environ, "DUNE_CACHE": "disabled"},
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"run failed (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the run is not JSON")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
