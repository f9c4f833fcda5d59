#!/usr/bin/env python3
"""Unit tests for bench_trend.py over hand-written BENCH_*.json runs.
Run directly or through CTest (`ctest -R bench_trend`)."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_trend.py"


def bench_json(cases):
    return json.dumps({"bench": "sim_speed", "cases": [
        {"name": name, "sim_speed": speed, "cycles": 100, "metrics": {}}
        for name, speed in cases]})


class TrendTest(unittest.TestCase):
    def trend(self, *runs, extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, cases in enumerate(runs):
                d = Path(tmp) / f"run{i}"
                d.mkdir()
                (d / "BENCH_sim_speed.json").write_text(bench_json(cases))
                paths.append(str(d))
            r = subprocess.run([sys.executable, str(SCRIPT), *paths, *extra],
                               capture_output=True, text=True)
        return r.returncode, r.stdout

    def row(self, out, case):
        lines = [l for l in out.splitlines()
                 if l.startswith("sim_speed/" + case + " ")]
        self.assertEqual(len(lines), 1, out)
        return lines[0].split()

    def test_case_without_previous_artifact_gets_a_row(self):
        code, out = self.trend([("a", 2e6)], [("a", 2e6), ("b", 5e6)])
        self.assertEqual(code, 0, out)
        self.assertEqual(self.row(out, "b"), ["sim_speed/b", "-", "5.00",
                                              "new"])
        self.assertEqual(self.row(out, "a")[-1], "+0.0%")

    def test_dropped_case_keeps_its_row(self):
        code, out = self.trend([("a", 2e6), ("b", 5e6)], [("a", 2e6)])
        self.assertEqual(code, 0, out)
        self.assertEqual(self.row(out, "b"), ["sim_speed/b", "5.00", "-",
                                              "dropped"])

    def test_unmatched_cases_stay_out_of_the_gate(self):
        code, out = self.trend([("a", 2e6), ("b", 9e6)],
                               [("a", 2e6), ("c", 1e6)],
                               extra=["--max-regress=5"])
        self.assertEqual(code, 0, out)
        code, _ = self.trend([("a", 2e6)], [("a", 1e6)],
                             extra=["--max-regress=5"])
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
