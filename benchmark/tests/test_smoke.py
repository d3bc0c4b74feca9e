#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 benchmark/tests/test_smoke.py        # from the repository root

Runs every workload at tiny sizes (--smoke) untraced and traced, and asserts
that each prints exactly the metrics BENCHMARK.json names, each with its
unit. Then corrupts one expectation of every correctness check (--corrupt)
and asserts that the run fails: non-zero exit, "CHECK FAILED" on stderr and
no result line. Takes a few minutes (every run pays a cold score-table
build).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmark" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every correctness check, by the workload that runs it.
CHECKS = {
    "churn-10k": ["churn.replay", "churn.digest"],
    "socket-mixed-1k": ["socket.fifo", "socket.digest"],
    "cells-grouped-4k": ["cells.group", "cells.lookup", "cells.digest"],
}


def run(workload, trace, corrupt=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
                 "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for spec in specs:
            self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metrics[spec["name"]]["value"], (int, float))

    def test_every_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = run(workload, 0)
                self.assert_metrics(proc, SPEC["end_to_end"])
                values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                for name, metric in values.items():
                    self.assertGreater(metric["value"], 0, f"{workload} {name}")
            with self.subTest(workload=workload, trace=1):
                proc = run(workload, 1)
                self.assert_metrics(proc, SPEC["per_layer"])
                self.assertIn("RECORD ", proc.stdout)

    def test_checks_fire_on_corrupted_expectation(self):
        for workload, checks in CHECKS.items():
            for check in checks:
                with self.subTest(check=check):
                    proc = run(workload, 0, corrupt=check)
                    self.assertNotEqual(proc.returncode, 0, f"{check} did not fail the run")
                    self.assertIn("CHECK FAILED", proc.stderr)
                    self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
