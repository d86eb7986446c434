#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_run.py

Builds and runs perfbench_selftest (the workload specs parse strictly and
round-trip, phase stepping gives RunLocal's result, the fleet's outputs do
not depend on jobs), then tests the output check of run.py against real runs
at every recorded seed.
"""

import copy
import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class SelfTestBinary(unittest.TestCase):
    def test_selftest_binary_passes(self):
        run.build("perfbench_selftest")
        proc = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:] + proc.stderr[-2000:])


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.runs = {}
        for workload, jobs in run.WORKLOAD_JOBS.items():
            for seed, record in run.load_records(workload).items():
                out = run.run_child(workload, int(seed), jobs, traced=False)
                cls.runs[(workload, seed)] = (out, record)

    def test_every_workload_has_two_recorded_seeds(self):
        for workload in run.WORKLOAD_JOBS:
            self.assertEqual(len(run.load_records(workload)), 2, workload)

    def test_recorded_seeds_pass(self):
        for (workload, seed), (out, record) in self.runs.items():
            self.assertEqual(run.check([out], record), [], f"{workload} seed {seed}")

    def test_altering_any_one_recorded_value_fails(self):
        for (workload, seed), (out, record) in self.runs.items():
            for section in ("exact", "envelopes"):
                for key, value in record[section].items():
                    altered = copy.deepcopy(record)
                    altered[section][key] = (value + 1 if isinstance(value, int)
                                             else math.nextafter(value, math.inf))
                    problems = run.check([out], altered)
                    self.assertEqual(len(problems), 1, f"{workload} seed {seed} {key}")
                    self.assertIn(f"{section}.{key}:", problems[0])

    def test_unrecorded_seed_still_gets_invariant_and_accounting_checks(self):
        out, _ = next(iter(self.runs.values()))
        self.assertEqual(run.check([out], None), [])

        violated = copy.deepcopy(out)
        violated["result"]["violations"] = ["cpu 3 runs two tasks"]
        self.assertTrue(run.check([violated], None))

        unbalanced = copy.deepcopy(out)
        exact = unbalanced["result"]["exact"]
        exact["completed"] = exact["generated"] + 1
        self.assertTrue(run.check([unbalanced], None))

    def test_processes_that_disagree_fail(self):
        out, _ = next(iter(self.runs.values()))
        other = copy.deepcopy(out)
        key = next(iter(other["result"]["envelopes"]))
        other["result"]["envelopes"][key] = math.nextafter(other["result"]["envelopes"][key], 0)
        self.assertTrue(run.check([out, other], None))


if __name__ == "__main__":
    unittest.main()
