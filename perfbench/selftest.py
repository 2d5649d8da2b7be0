"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported with its unit.  Feeds one
corrupted output to each correctness gate and checks that it counts as a
failure.  Checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_program()
import oracles  # noqa: E402
import workloads  # noqa: E402
from affquant import symbol_algebra  # noqa: E402


def _bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


class MetricsReported(unittest.TestCase):
    def _check(self, workload, trace, expected):
        done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result, done.stdout

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, stdout = self._check(w["name"], 0, SPEC["end_to_end"])
                self.assertIn("failed_frac", stdout)
                self.assertIn("of n=", stdout)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self._check(w["name"], 1, SPEC["per_layer"])


class GatesCountCorruption(unittest.TestCase):
    def setUp(self):
        run.RESULTS.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.RESULTS))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _first(self, cls, kind=None):
        wl = cls(self.workdir, tiny=True)
        pool = wl.setup(3)
        req = next(r for r in pool if kind is None or r[0] == kind)
        out = wl.run(req)
        self.assertEqual(wl.check(req, out)[1], 0)
        return wl, req, out

    def test_verify_all(self):
        report = self.workdir / "report.jsonl"
        records = [{"test": "a", "discrepancy": 0.0, "tolerance": 0.0, "pass": True},
                   {"test": "b", "discrepancy": 1e-9, "tolerance": 1e-8, "pass": True}]
        report.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        self.assertEqual(workloads.VerifyAll.gate(report, 0), (2, 0))
        self.assertEqual(workloads.VerifyAll.gate(report, 1), (2, 1))
        records[1]["discrepancy"] = 1e-7
        report.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        self.assertEqual(workloads.VerifyAll.gate(report, 0), (2, 1))
        report.unlink()
        self.assertEqual(workloads.VerifyAll.gate(report, 0), (1, 1))

    def test_exact_shallow(self):
        wl, req, (lhs, gen, moved, orbit) = self._first(workloads.ExactAlgebra, "shallow")
        bad = (lhs + symbol_algebra.ExpPolySymbol.one(), gen, moved, orbit)
        self.assertEqual(wl.check(req, bad), (1, 1))
        self.assertEqual(wl.check(req, (lhs, False, moved, orbit)), (1, 1))

    def test_exact_deep(self):
        wl, req, out = self._first(workloads.ExactAlgebra, "deep")
        bad = out + symbol_algebra.ExpPolySymbol.monomial(1, 1)
        self.assertEqual(wl.check(req, bad), (1, 1))
        tu, tv = oracles.terms_of(req[2]), oracles.terms_of(req[3])
        self.assertTrue(oracles.sympy_star_matches(tu, tv, oracles.terms_of(out)))
        self.assertFalse(oracles.sympy_star_matches(tu, tv, oracles.terms_of(bad)))

    def test_lattice(self):
        wl, req, (disc, v, w, out) = self._first(workloads.Lattice)
        self.assertEqual(wl.check(req, (1.0, v, w, out))[1], 1)
        self.assertEqual(wl.check(req, (disc, v, w.copy_with(w.values * 1.001), out))[1], 1)
        self.assertEqual(wl.check(req, (disc, v, w, out.copy_with(out.values * 2)))[1], 1)

    def test_halfline(self):
        wl, req, (moved, closed, integrated) = self._first(workloads.HalfLine)
        self.assertEqual(wl.check(req, (moved.copy_with(moved.values * 1.001),
                                        closed, integrated)), (1, 1))
        shifted = integrated.copy_with(integrated.values + 1e-6)
        self.assertEqual(wl.check(req, (moved, closed, shifted)), (1, 1))


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        run.RESULTS.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.RESULTS))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("results", "__pycache__"))
            cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                     "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
