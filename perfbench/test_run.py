"""Self-tests of the benchmark harness.

A wrong expected value must fail the run; a clean run must pass and report
exactly the metrics BENCHMARK.json declares; a checkout without the library
sources must fail without printing a result. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run(args, cwd=ROOT, env=None):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


class HarnessTest(unittest.TestCase):
    def test_wrong_expected_value_fails_the_run(self):
        for trace in ("0", "1"):
            code, result = run(["--workload", "ac3-read1c", "--seed", "3",
                                "--seconds", "1", "--trace", trace,
                                "--inject-mismatch"])
            self.assertNotEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)

    def test_clean_run_reports_every_declared_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                code, result = run(["--workload", workload, "--seed", "5",
                                    "--seconds", "1", "--trace", trace])
                self.assertEqual(code, 0, (workload, trace))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in spec[key]})
                if trace == "1":
                    delta = result["metrics"]["traffic.model_delta"]["value"]
                    self.assertEqual(delta, 0.0)

    def test_without_library_sources_fails_without_result(self):
        bare = os.path.join(WORK, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            code, result = run(["--workload", "voting3-rw", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=bare, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
