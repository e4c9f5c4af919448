"""Self-test of the benchmark harness on the sub-second motives-smoke workload.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import contextlib
import copy
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMOKE = "motives-smoke"


def _report(trace, expected, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.report(SMOKE, 1, 0.5, trace, expected, **kwargs)
    return code, json.loads(out.getvalue().splitlines()[-1]), err.getvalue()


class HarnessSelfTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            code, result, table = _report(trace, run.load_expected(SMOKE))
            self.assertEqual(code, 0, table)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, declared)
            for name, unit in declared.items():
                self.assertRegex(table, rf"\b{re.escape(name)}\s+\S+ {re.escape(unit)}\b")
            self.assertRegex(table, r"\bfail_ratio\s+0 ratio\b")

    def test_tampered_expectation_counts_as_failure(self):
        expected = copy.deepcopy(run.load_expected(SMOKE))
        cases = next(iter(expected.values()))
        cases[0][2] = not cases[0][2]
        code, result, table = _report(False, expected)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("differs from the recorded expectation", table)

    def test_timeout_is_reported_as_a_failure(self):
        start = time.monotonic()
        code, result, table = _report(False, run.load_expected(SMOKE), rep_timeout=0.01)
        self.assertLess(time.monotonic() - start, 30)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertIn("timed out", table)

    def test_unreached_layer_fails_the_traced_run(self):
        smoke = run.WORKLOADS[SMOKE]
        run.WORKLOADS[SMOKE] = dataclasses.replace(smoke, layers=smoke.layers + ("finitefields",))
        try:
            code, result, table = _report(True, run.load_expected(SMOKE))
        finally:
            run.WORKLOADS[SMOKE] = smoke
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertIn("layers not reached: ['finitefields']", table)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
            argv = spec["command"] + ["--workload", SMOKE, "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
