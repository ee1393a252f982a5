#!/usr/bin/env python3
"""Tests of the benchmark's own correctness checks.

    python3 e2ebench/test_checks.py

Each check must fail the run: a corrupted 1-thread/nproc map hash or a
corrupted served response (the binary's --inject hook) has to make the
command exit non-zero without printing a result line. A clean short run of
the same workload must exit 0 and end with a well-formed result. Runs are
short (1-2 s timed phase) so the suite finishes in a few minutes once the
benchmark is built.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, *extra, trace=0):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if "correct" in result else None


class CorrectnessChecks(unittest.TestCase):
    def assert_fails(self, done, message):
        self.assertNotEqual(done.returncode, 0, done.stdout)
        self.assertIsNone(result_line(done.stdout))
        self.assertIn(message, done.stderr)

    def assert_passes(self, done, trace):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_line(done.stdout)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        bench_def = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = bench_def["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_hash_mismatch_fails_the_run(self):
        self.assert_fails(bench("sparse_scan", "--inject", "hash"),
                          "map hash differs")

    def test_response_mismatch_fails_the_run(self):
        self.assert_fails(bench("served_mix", "--inject", "response"),
                          "differs from a direct detect")

    def test_clean_runs_pass(self):
        self.assert_passes(bench("sparse_scan"), trace=0)
        self.assert_passes(bench("served_mix", trace=1), trace=1)


if __name__ == "__main__":
    unittest.main()
