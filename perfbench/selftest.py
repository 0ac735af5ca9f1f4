"""Self-test of the benchmark, every workload at its tiny size.

    python3 perfbench/selftest.py

Checks that a run prints one JSON result whose metrics are exactly those
of BENCHMARK.json with their units, that every per-layer metric is
measured in a traced run, that a forced output-check failure or a raising
repetition shows in ``failed`` and ``ok_frac``, and that the benchmark
exits with an error, printing no result, where the program's source is
missing.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace)], size="tiny")
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def assert_result(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in wanted})
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], float)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.assert_result(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0, m["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 1)
                self.assert_result(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                report = json.loads((run.OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
                self.assertNotIn("absent", report)

    def test_failed_checks_count(self):
        import workloads

        def failing_check(self, inputs, outcome):
            return 1, ["forced failure"]

        def raising_execute(self, inputs, out_dir, workers=None):
            raise RuntimeError("forced error")

        for workload, cls in workloads.WORKLOADS.items():
            for attr, fake in (("check", failing_check), ("execute", raising_execute)):
                with self.subTest(workload=workload, fake=attr), mock.patch.object(cls, attr, fake):
                    result = bench(workload, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_refuses_without_program(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
