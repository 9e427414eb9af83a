"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py          # from the repository root, ~1 minute

Not named test_*.py, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import spans
import workloads

ROOT = os.getcwd()
COUNT_UNITS = ("count", "bytes")


def bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    return out


def result_of(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hc, cls.src = run.import_package(ROOT)
        cls.ref = run.oracle.Reference()

    def make(self, name, seed=3):
        wl = workloads.WORKLOADS[name](self.hc, self.ref, seed, run._scratch(ROOT), self.src)
        self.addCleanup(wl.close)
        return wl

    def test_each_workload_runs_and_checks(self):
        for name in sorted(workloads.WORKLOADS):
            with self.subTest(workload=name):
                out = bench("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", "0")
                self.assertEqual(out.returncode, 0, out.stderr)
                result = result_of(out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stdout)
                self.assertEqual([m for m, _ in run.END_TO_END], list(result["metrics"]))

    def test_traced_counts_repeat_for_a_seed(self):
        for name in ("query_mix", "cli"):
            with self.subTest(workload=name):
                runs = [
                    bench("--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", "1")
                    for _ in range(2)
                ]
                for out in runs:
                    self.assertEqual(out.returncode, 0, out.stderr)
                    self.assertTrue(result_of(out)["correct"], out.stdout)
                first, second = (result_of(out)["metrics"] for out in runs)
                self.assertEqual([m for m, _ in run.PER_LAYER], list(first))
                counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
                self.assertIn("quadrature.evals", counts)
                for key in counts:
                    self.assertEqual(first[key]["value"], second[key]["value"], key)

    def test_seed_sets_the_inputs(self):
        for name in sorted(workloads.WORKLOADS):
            with self.subTest(workload=name):
                def first_ops(seed):
                    return repr(list(itertools.islice(self.make(name, seed).ops("run"), 8)))

                self.assertEqual(first_ops(7), first_ops(7))
                self.assertNotEqual(first_ops(7), first_ops(8))

    def test_corrupted_result_counts_as_failure(self):
        wl = self.make("bundle_cold")
        solve = self.hc.constants_bundle

        def corrupted(tol):
            bundle = solve(tol)
            return dataclasses.replace(bundle, a_c=bundle.a_c + 1.0e-6)

        wl.run = lambda op: corrupted(self.hc.Tolerance(abs_tol=op["tol"]))
        loop = run.closed_loop(wl.run, wl.check, wl.ops("run"), 0.0, min_ops=5)
        self.assertEqual(1.0, len(loop.failures) / len(loop.cpu))  # fail_ratio
        self.assertTrue(all("a_c=" in problems[0] for _, problems in loop.failures))

        clean = self.make("bundle_cold")
        loop = run.closed_loop(clean.run, clean.check, clean.ops("run"), 0.0, min_ops=5)
        self.assertEqual([], loop.failures)

    def test_instrumentation_matches_outside_counts(self):
        for name, traced, outside in spans.selfcheck(self.hc):
            self.assertEqual(traced, outside, name)

    def test_refuses_to_run_without_the_package(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=run._scratch(ROOT))
        self.addCleanup(shutil.rmtree, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bundle_cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
