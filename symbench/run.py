#!/usr/bin/env python3
"""Build and run the symref benchmark from the repository root.

    python3 symbench/run.py --workload ref-mid --seed 1 --seconds 15 --trace 0

Builds the benchmark executable and the `symref` binary the fleet workloads
start, then runs one workload; the last line of stdout is the JSON result.
Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys


def main():
    # The shared dune cache lives outside the checkout: keep it out.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./symbench/main.exe", "./bin/symref.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join("_build", "default", "symbench", "main.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
