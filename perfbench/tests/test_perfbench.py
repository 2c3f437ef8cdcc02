"""Tests of the pnoc benchmark itself (not of the simulator).

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark like run.py does (.bench_build/), then runs the driver
for about a second per case.
"""

import json
import math
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 1


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.spec = load_spec()
        cls.tmp = os.path.join(run.BUILD_DIR, "tests")
        os.makedirs(cls.tmp, exist_ok=True)

    def drive(self, workload, seed=run.DEFAULT_SEED, trace=0, pins=run.PINS):
        code, out = run.run_driver(self.driver, workload, seed, SECONDS, trace, pins=pins)
        self.assertEqual(code, 0, out[-2000:])
        result = run.parse_result(out)
        self.assertIsNotNone(result, out[-2000:])
        return result, out

    @staticmethod
    def line(out, prefix):
        return next(l for l in out.splitlines() if l.startswith(prefix))

    def test_benchmark_json_grammar(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def check_schema(self, result, metrics):
        self.assertEqual(set(result), run.RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, entry in result["metrics"].items():
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], want[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_output_schema_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.drive(workload, trace=0)
                self.check_schema(result, self.spec["end_to_end"])
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)
                result, _ = self.drive(workload, trace=1)
                self.check_schema(result, self.spec["per_layer"])

    def test_exact_block_repeats_for_one_seed(self):
        _, first = self.drive("hotspot_saturation", seed=5)
        _, second = self.drive("hotspot_saturation", seed=5)
        self.assertEqual(self.line(first, "work "), self.line(second, "work "))
        self.assertEqual(self.line(first, "pin "), self.line(second, "pin "))
        _, other = self.drive("hotspot_saturation", seed=6)
        self.assertNotEqual(self.line(first, "work "), self.line(other, "work "),
                            "inputs must come from the seed")

    def test_pinned_seeds_pass(self):
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    result, out = self.drive(workload, seed=seed)
                    self.assertIn("info pins checked for this seed", out)
                    self.assertEqual(result["failed"], 0)

    def corrupted(self, mutate):
        with open(run.PINS) as f:
            pins = json.load(f)
        mutate(pins["pins"]["lowload_uniform/%d" % run.DEFAULT_SEED]["units"][0])
        path = os.path.join(self.tmp, "corrupted_pins.json")
        with open(path, "w") as f:
            json.dump(pins, f)
        return path

    def test_corrupted_digest_pin_fails_operations(self):
        path = self.corrupted(lambda unit: unit.update(digest="0" * 16))
        result, out = self.drive("lowload_uniform", pins=path)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("check digest-pin FAILED", out)

    def test_extra_engine_work_fails_operations(self):
        # A pin one step below the real count reads as an extra step.
        path = self.corrupted(lambda unit: unit["work"].update(
            component_steps=unit["work"]["component_steps"] - 1))
        result, out = self.drive("lowload_uniform", pins=path)
        self.assertFalse(result["correct"])
        self.assertIn("check work-pin:component_steps FAILED", out)


if __name__ == "__main__":
    unittest.main()
