#!/usr/bin/env python3
"""Build and run the end-to-end sweep-serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_stream --seed 1 --seconds 25 --trace 0

Builds perfbench/ (the xysig library, example_sweep_server and
perfbench_driver) in Release mode into .bench_build/, then runs the driver,
whose last stdout line is the JSON result. Build output goes to stderr.
Extra flags (e.g. --inject-corruption) are passed through to the driver.
`--workload all` runs every workload of BENCHMARK.json in turn.
Exits non-zero when the build fails or any check of the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", JOBS,
         "--target", "perfbench_driver", "example_sweep_server"],
        check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    driver = [os.path.join(BUILD, "perfbench_driver"),
              "--server", os.path.join(BUILD, "xysig", "example_sweep_server"),
              "--out-dir", os.path.join(BUILD, "perfbench-out")]
    args = sys.argv[1:]
    if "all" not in args:
        sys.stdout.flush()
        return subprocess.run(driver + args, cwd=ROOT).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in workloads:
        sys.stdout.flush()
        run = [name if a == "all" else a for a in args]
        status = max(status, subprocess.run(driver + run, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
