"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

Each test runs ``run.py`` as a subprocess, exactly as a user would.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's metric tables)

WORKLOADS = ("pinte-timing", "pair-contention", "replay-sweep",
             "reproduce-registry")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(*args: str) -> dict:
    completed = bench(*args)
    if completed.returncode != 0:
        raise AssertionError(completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def assert_clean(self, output: dict, names) -> None:
        self.assertTrue(output["correct"], output)
        self.assertEqual(output["failed"], 0)
        self.assertGreaterEqual(output["attempted"], 1)
        self.assertEqual(set(output["metrics"]), set(names))

    def test_tiny_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain = result("--workload", workload, "--tiny",
                               "--seconds", "0.5", "--trace", "0")
                self.assert_clean(plain, run.END_TO_END)
                for name, metric in plain["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                traced = result("--workload", workload, "--tiny",
                                "--seconds", "0.5", "--trace", "1")
                self.assert_clean(traced, run.PER_LAYER)

    def test_default_seed_digests_match(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                output = result("--workload", workload, "--seconds", "0")
                self.assert_clean(output, run.END_TO_END)

    def test_metric_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        per_layer = {m["name"]: m for m in spec["per_layer"]}
        self.assertLessEqual(len(end_to_end), 16)
        self.assertLessEqual(len(per_layer), 128)
        names = list(end_to_end) + list(per_layer)
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual({n: m["unit"] for n, m in end_to_end.items()},
                         run.END_TO_END)
        self.assertEqual({n: m["unit"] for n, m in per_layer.items()},
                         run.PER_LAYER)
        self.assertEqual(end_to_end["setup_s"]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))

    def test_traced_call_counts_repeat(self):
        counts = [name for name, unit in run.PER_LAYER.items()
                  if unit == "count"]
        for workload in ("pinte-timing", "pair-contention", "replay-sweep"):
            with self.subTest(workload=workload):
                first, second = (result("--workload", workload, "--tiny",
                                        "--seed", "5", "--seconds", "0.2",
                                        "--trace", "1")["metrics"]
                                 for _ in range(2))
                for name in counts:
                    self.assertEqual(first[name], second[name], name)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as temp:
            copy = Path(temp) / "perfbench"
            shutil.copytree(HERE, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, str(copy / "run.py"), "--workload",
                 "pinte-timing", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=temp, capture_output=True, text=True,
                timeout=60)
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
