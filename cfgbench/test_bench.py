#!/usr/bin/env python3
"""The benchmark's own tests, on scaled-down inputs (--short).

    python3 cfgbench/test_bench.py

Each test runs cfgbench/run.py with a workload's arguments and checks its
result line against BENCHMARK.json and the benchmark's invariants.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    """Returns (exit code, result line, detail line) of one short run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--short",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
    return proc.returncode, result, detail


class BenchmarkTest(unittest.TestCase):
    runs = {}

    @classmethod
    def result(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.runs:
            cls.runs[key] = run(workload, trace)
        return cls.runs[key]

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            expected = {m["name"]: m["unit"] for m in specs}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, detail = self.result(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(detail["seed"], 7)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result, _ = self.result(workload, 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_explain_paper_layers_add_up_to_explain(self):
        _, result, _ = self.result("explain-paper", 1)
        m = {name: v["value"] for name, v in result["metrics"].items()}
        parts = (m["core.score_ms"] + m["gnn.embed_ms"] + m["graph.normalize_ms"]
                 + m["graph.renorm_ms"] + m["core.select_ms"])
        self.assertAlmostEqual(parts, m["explain.cfg_ms"], delta=1e-9 * m["explain.cfg_ms"])
        self.assertGreater(m["core.score_ms"], 0)
        self.assertGreater(m["gnn.embed_ms"], 0)

    def test_no_workspace_allocation_after_warm_up(self):
        _, result, _ = self.result("explain-paper", 1)
        self.assertEqual(result["metrics"]["nn.workspace_alloc_bytes"]["value"], 0)

    def test_kernel_call_counts_repeat_exactly(self):
        _, first, _ = self.result("explain-paper", 1)
        _, second, _ = run("explain-paper", 1)
        for name in ("nn.spmm_calls", "nn.matmul_calls"):
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)

    def test_corrupted_ranking_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_bad_arguments_exit_non_zero_without_a_result(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=600)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
