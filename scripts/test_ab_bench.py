#!/usr/bin/env python3
"""Unit tests for ab_bench.py, run against two stub perfbench binaries.
Run directly or through CTest (`ctest -R ab_bench`)."""

import contextlib
import importlib.util
import io
import json
import stat
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent

spec = importlib.util.spec_from_file_location("ab_bench",
                                              SCRIPTS / "ab_bench.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# A stub medea_perfbench: logs its name and arguments, then prints one
# report whose metric scales with its invocation count.
STUB = """#!{python}
import json, sys
log = {log!r}
with open(log, "a") as f:
    f.write({name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
with open(log) as f:
    calls = sum(1 for _ in f)
print("some log line")
print(json.dumps({{
    "outputs": {outputs},
    "attempted": 1, "failed": {failed}, "failures": [],
    "metrics": {{
        "router_cycles_per_s": {{"value": {rate} * calls, "unit": "1/s"}},
        "point_wall_s": {{"value": {wall}, "unit": "s"}},
        "not_end_to_end": {{"value": 1, "unit": "count"}}}}}}))
"""

OUTPUTS = [{"label": "p", "cycles": 1406, "flits_delivered": 360000}]


class AbBenchTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.log = self.dir / "calls.log"

    def tearDown(self):
        self.tmp.cleanup()

    def stub(self, name, rate, wall, outputs=OUTPUTS, failed=0):
        path = self.dir / name
        path.write_text(STUB.format(python=sys.executable, log=str(self.log),
                                    name=name, outputs=json.dumps(outputs),
                                    failed=failed, rate=rate, wall=wall))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    def run_ab(self, a, b, pairs=3):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ab.main([a, b, "--workload", "uniform_60x60", "--pairs",
                          str(pairs)])
        return rc, out.getvalue(), err.getvalue()

    def calls(self):
        return [line.split()[0] for line in self.log.read_text().splitlines()]

    def test_pass_path_interleaves_and_reports_medians(self):
        a = self.stub("parent", rate=100.0, wall=4.0)
        b = self.stub("change", rate=200.0, wall=2.0)
        rc, out, err = self.run_ab(a, b)
        self.assertEqual(rc, 0, err)
        self.assertEqual(self.calls(), ["parent", "change", "change",
                                        "parent", "parent", "change"])
        seconds = ab.benchmark_spec()["run_seconds"]
        self.assertIn(f"--workload uniform_60x60 --seed 1 --seconds {seconds} "
                      "--trace 0", self.log.read_text())
        # Call k reports rate*k: A ran as calls 1, 4, 5 and B as 2, 3, 6.
        line = next(l for l in out.splitlines()
                    if l.startswith("router_cycles_per_s"))
        self.assertIn("400 [100-500]", line)   # A: 100, 400, 500
        self.assertIn("600 [400-1200]", line)  # B: 400, 600, 1200
        self.assertIn("+50.0%", line)
        self.assertIn("3/3", line)             # B higher in every pair
        self.assertTrue(line.endswith(" 200"), line)  # A IQR: 450 - 250
        wall = next(l for l in out.splitlines()
                    if l.startswith("point_wall_s"))
        self.assertIn("-50.0%", wall)
        self.assertIn("3/3", wall)             # B lower in every pair
        self.assertNotIn("not_end_to_end", out)

    def test_outputs_mismatch_fails(self):
        a = self.stub("parent", rate=100.0, wall=4.0)
        b = self.stub("change", rate=200.0, wall=2.0,
                      outputs=[dict(OUTPUTS[0], cycles=1407)])
        rc, out, err = self.run_ab(a, b, pairs=2)
        self.assertEqual(rc, 1)
        self.assertIn("outputs differ", err)
        self.assertNotIn("router_cycles_per_s", out)

    def test_own_check_failure_fails(self):
        a = self.stub("parent", rate=100.0, wall=4.0, failed=1)
        b = self.stub("change", rate=200.0, wall=2.0)
        rc, _, err = self.run_ab(a, b, pairs=1)
        self.assertEqual(rc, 1)
        self.assertIn("A1: failed == 1", err)

    def test_missing_binary_is_an_error(self):
        b = self.stub("change", rate=200.0, wall=2.0)
        rc, _, err = self.run_ab(str(self.dir / "absent"), b, pairs=1)
        self.assertEqual(rc, 2)
        self.assertIn("error", err)


if __name__ == "__main__":
    unittest.main()
