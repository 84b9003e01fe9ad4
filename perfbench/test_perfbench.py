#!/usr/bin/env python3
"""Self-tests for the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the naming rules, that perfbench/predictions.json
covers every metric and workload, and that a tiny-size run of every workload
(--scale 0.1, one second) finishes quickly, passes its output checks and
prints exactly the declared metrics with their declared units, traced and
untraced. The first tiny run builds the benchmark binary.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_RUN_LIMIT_S = 60  # per run, once the binary is built


def load(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json"
              else os.path.join(HERE, name)) as f:
        return json.load(f)


def run_bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.bench = load("BENCHMARK.json")

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_names_and_units(self):
        b = self.bench
        names = [x["name"] for x in b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_command_stays_inside_paths(self):
        b = self.bench
        for p in b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        for arg in b["command"][1:]:
            self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in b["paths"]),
                            arg)

    def test_predictions_cover_every_metric_and_workload(self):
        b, pred = self.bench, load("predictions.json")
        workloads = {w["name"] for w in b["workloads"]}
        e2e = {m["name"] for m in b["end_to_end"]}
        self.assertEqual(set(pred["workloads"]), workloads)
        for w in pred["workloads"].values():
            self.assertTrue(w["stresses"] and w["bypasses"])
        self.assertEqual(set(pred["per_layer"]), {m["name"] for m in b["per_layer"]})
        for name, p in pred["per_layer"].items():
            self.assertTrue(p["layer"], name)
            self.assertIn("no_change", p)
            for metric, on in p["moves"].items():
                self.assertIn(metric, e2e, name)
                for w in on:
                    self.assertIn(w.split(" ")[0], workloads, name)
        self.assertEqual(set(pred["unmeasured_layers"]), {"store", "ps"})


class TinyRunTest(unittest.TestCase):
    """One tiny run per workload and trace mode."""

    @classmethod
    def setUpClass(cls):
        cls.bench = load("BENCHMARK.json")
        # Build once so the per-run time limit measures the run, not the build.
        first = cls.bench["workloads"][0]["name"]
        run_bench("--workload", first, "--seed", "1", "--seconds", "1", "--trace", "0",
                  "--scale", "0.1")

    def check(self, workload, trace):
        declared = {m["name"]: m["unit"]
                    for m in self.bench["per_layer" if trace else "end_to_end"]}
        start = time.monotonic()
        proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--scale", "0.1")
        elapsed = time.monotonic() - start
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertLess(elapsed, TINY_RUN_LIMIT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for n, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), n)
        self.assertIn("stamp:", proc.stdout)

    def test_w2v(self):
        self.check("w2v-sync-h3", 0)
        self.check("w2v-sync-h3", 1)

    def test_node2vec(self):
        self.check("node2vec-stream-h2", 0)
        self.check("node2vec-stream-h2", 1)

    def test_unknown_workload_fails_without_result(self):
        proc = run_bench("--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
