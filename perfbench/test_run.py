#!/usr/bin/env python3
"""Tests of the benchmark itself, on seconds-long smoke sizes.

    python3 perfbench/test_run.py

Runs every workload of BENCHMARK.json through run.py with --smoke, untraced
and traced, and checks that the result object is well formed, correct,
failure-free and names every metric of BENCHMARK.json with its unit. Then
runs the benchmark crate's unit tests (the arm-run composition reproduces
`run_probe` and `MembershipStudy`; traced runs simulate exactly what
untraced runs do).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


class SmokeRuns(unittest.TestCase):
    def check(self, trace, wanted):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = run(w["name"], trace)
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = result["metrics"]
                self.assertEqual(list(got), [m["name"] for m in wanted])
                for m in wanted:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got[m["name"]]["value"], (int, float))
                report = "\n".join(lines[:-1])
                self.assertIn("sim_digest", report)
                self.assertIn("fail_ratio", report)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_unknown_workload_fails_without_result(self):
        code, lines = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{\"correct\""))


class CrateTests(unittest.TestCase):
    def test_cargo_tests(self):
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        done = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                               "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                              env=env, cwd=ROOT, timeout=900)
        self.assertEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
