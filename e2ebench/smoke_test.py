#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny population.

    python3 e2ebench/smoke_test.py [--binary PATH/evm_e2e]

Runs every workload once untraced and once traced with a small world and a
short budget. Each run must pass every correctness check and print exactly
the metrics BENCHMARK.json names for its mode, each with that unit. The
traced runs must also write both trace files, and no program span may
escape the op trees (obs.orphan_spans is 0). Without
--binary the benchmark is built first (see run.py).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
BINARY = None


def run(workload, trace, out_dir):
    command = [BINARY, "--workload", workload, "--seed", "3", "--seconds",
               "0.2", "--trace", str(trace), "--population", "120",
               "--out-dir", out_dir]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr: {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        with tempfile.TemporaryDirectory() as out_dir:
            code, result, stdout = run(workload, trace, out_dir)
            self.assertEqual(code, 0, stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"], stdout)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            spec = SPEC["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in spec}
            got = result["metrics"]
            self.assertEqual(set(got), set(expected))
            for name, metric in got.items():
                self.assertEqual(metric["unit"], expected[name], name)
                self.assertTrue(math.isfinite(metric["value"]), name)
                if not trace:
                    self.assertNotEqual(metric["value"], 0, name)
                self.assertIn(f"metric {name} = ", stdout)
            if trace:
                self.check_trace(workload, got, out_dir)

    def check_trace(self, workload, got, out_dir):
        base = os.path.join(out_dir, f"trace-{workload}-seed3")
        with open(base + ".evm.json") as f:
            evm = json.load(f)
        self.assertEqual(evm["schema"], "evm-trace-v1")
        ids = {s["id"] for s in evm["spans"]}
        self.assertTrue(all(s["parent"] == 0 or s["parent"] in ids
                            for s in evm["spans"]))
        with open(base + ".chrome.json") as f:
            chrome = json.load(f)
        self.assertEqual(len(chrome["traceEvents"]), len(evm["spans"]))
        self.assertTrue(any(e["name"].startswith("op.")
                            for e in chrome["traceEvents"]))
        self.assertGreater(got["obs.op_wall_s"]["value"], 0)
        self.assertEqual(got["obs.orphan_spans"]["value"], 0)
        self.assertTrue(all("self_us" in e["args"]
                            for e in chrome["traceEvents"]))


def add_tests():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            def test(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SmokeTest, f"test_{workload}_trace{trace}", test)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args, rest = parser.parse_known_args()
    if args.binary:
        BINARY = args.binary
    else:
        sys.path.insert(0, HERE)
        import run as bench_run  # noqa: E402
        BINARY = bench_run.build()
        if BINARY is None:
            sys.exit("build failed")
    add_tests()
    unittest.main(argv=[sys.argv[0]] + rest)
