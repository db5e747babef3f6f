#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The first test that needs ufc_perfbench builds it through run.py (about a
minute on a 4-core host); later runs reuse the build.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args):
    """run.py with the given arguments: (exit code, result, stdout)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout


class PaperErr(unittest.TestCase):
    def test_hand_computed(self):
        sim = {"fig10a.delay": 2.2, "fig12.ckks.pe": 0.65, "unrelated": 9.0}
        paper = {"fig10a.delay": 1.1, "fig12.ckks.pe": 0.65,
                 "fig10b.delay": 6.0}
        # |ln(2.2/1.1)| = ln 2 and |ln 1| = 0 over the two shared keys.
        self.assertAlmostEqual(run.paper_err(sim, paper),
                               math.log(2.0) / 2.0, places=12)

    def test_direction_does_not_matter(self):
        paper = {"a": 1.0}
        self.assertAlmostEqual(run.paper_err({"a": 0.5}, paper),
                               run.paper_err({"a": 2.0}, paper), places=12)

    def test_no_overlap_is_an_error(self):
        with self.assertRaises(ValueError):
            run.paper_err({"a": 1.0}, {"b": 1.0})


class MetricNames(unittest.TestCase):
    def test_every_name_is_well_formed_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_finish_fills_every_metric(self):
        spec = load_spec()
        with open(os.path.join(HERE, "paper_values.json")) as f:
            paper = json.load(f)
        e2e = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in spec["end_to_end"] if m["name"] != "paper_err"}
        child = {"correct": True, "attempted": 3, "failed": 0,
                 "metrics": e2e, "paper_sim": {"fig10a.delay": 1.1}}
        result, errors = run.finish(child, 0, spec, paper)
        self.assertEqual(errors, [])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(result["metrics"]["paper_err"]["value"], 0.0)
        child = {"correct": True, "attempted": 3, "failed": 0,
                 "metrics": {}, "paper_sim": {}}
        result, errors = run.finish(child, 1, spec, paper)
        self.assertEqual(errors, [])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in spec["per_layer"]])

    def test_missing_end_to_end_metric_is_an_error(self):
        spec = load_spec()
        child = {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {}, "paper_sim": {"fig10a.delay": 1.0}}
        result, errors = run.finish(child, 0, spec, {"fig10a.delay": 1.0})
        self.assertFalse(result["correct"])
        self.assertTrue(errors)


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build()

    def inputs(self, seed):
        out = subprocess.run([self.binary, "--dump-inputs", "--seed",
                              str(seed)], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        return json.loads(out)

    def test_same_seed_same_inputs(self):
        a, b, c = self.inputs(7), self.inputs(7), self.inputs(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a["serve_schedule"], c["serve_schedule"])
        self.assertNotEqual(a["substrate_inputs"], c["substrate_inputs"])

    def test_injected_failing_op_is_counted(self):
        code, result, _ = run_bench("--workload", "ckks_dse",
                                    "--seconds", "0.5",
                                    "--inject-op-failures", "2")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertGreater(result["attempted"], result["failed"])

    def test_injected_failing_request_is_counted(self):
        code, result, _ = run_bench("--workload", "serve_warm",
                                    "--seconds", "1",
                                    "--inject-failures", "1")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
