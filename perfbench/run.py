#!/usr/bin/env python3
"""Repository benchmark: builds the driver from this checkout and runs one
workload for a fixed wall-clock budget.

    python3 perfbench/run.py --workload solo --seed 1 --seconds 20 --trace 0

Workloads and metric names are declared in BENCHMARK.json; driver.cpp says
what each workload runs and how each metric is measured. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics and writes the driver's spans as a Chrome trace under
.bench_build/perfbench/.

The driver is built with CMake into .bench_build/perfbench (the first run
compiles the FastPSO libraries from src/). FASTPSO_* switches are removed
from the driver's environment so every run measures the default paths.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# Configure and build share one deadline, so a cold first run (build plus
# driver) stays within 15 minutes.
BUILD_TIMEOUT_S = 700
# The driver measures for --seconds, then spends a few seconds on cold
# starts and correctness reruns; anything far beyond that is a hang.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no FastPSO sources (src/) next to perfbench/; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    commands = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                         *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", str(BUILD), "--target",
                     "perfbench_driver", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(BUILD / "build.log", "w") as log:
        for command in commands:
            try:
                subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                               check=True,
                               timeout=max(1.0, deadline - time.monotonic()))
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as error:
                fail(f"build failed ({error}); see {BUILD / 'build.log'}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solo", "serve", "tiny"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    command = [str(DRIVER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_path = BUILD / f"trace-{args.workload}-{args.seed}.json"
        command += ["--trace-out", str(trace_path)]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FASTPSO_")}
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             env=env, cwd=ROOT,
                             timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {args.seconds + RUN_GRACE_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        fail(f"driver exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected driver output: {run.stdout!r}")
    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"driver metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
