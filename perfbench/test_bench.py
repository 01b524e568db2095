#!/usr/bin/env python3
"""Smoke-size tests of the benchmark itself.

    python3 perfbench/test_bench.py

Builds the benchmark through run.py, then checks that
  * every workload prints every metric named in BENCHMARK.json, with its
    unit: the end-to-end ones with --trace 0, the per-layer ones with
    --trace 1, and nothing else;
  * the program's self-test passes: the same seed gives the same graph
    checksum and query set (another seed different ones), and the oracle
    comparison flags a corrupted distance vector, a wrong query distance
    and an unanswered query;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench did not build")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[kind]}
            for workload in self.spec["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    p = bench("--workload", workload["name"], "--seed", "3",
                              "--seconds", "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_self_test(self):
        p = subprocess.run([run.BINARY, "--self-test"], capture_output=True,
                           text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("self-test passed", p.stdout)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = bench("--workload", "sssp-rand", "--seed", "1", "--seconds", "1",
                      "--trace", "0", root=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
