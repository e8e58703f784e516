#!/usr/bin/env python3
"""Builds and runs the EV-Matching end-to-end benchmark.

    python3 e2ebench/run.py --workload batch_paper --seed 1 --seconds 8 --trace 0

Run it from the root of a source checkout. The first run configures and
builds the libraries, the evm_worker binary and the evm_e2e binary under
.bench_build/ (Release); later runs only let the build tool confirm the tree
is up to date. Build output goes to stderr, so the last line of stdout is the
benchmark's result object. Extra options (--dataset-seed, --population) pass
through to evm_e2e; see README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("batch_paper", "stream_replay")


def build():
    """Configures (once) and builds evm_e2e; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "evm_e2e", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "evm_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--dataset-seed", type=int, default=2017)
    parser.add_argument("--population", type=int, default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dataset-seed", str(args.dataset_seed),
               "--population", str(args.population), "--out-dir", TRACES]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
