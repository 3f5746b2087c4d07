"""The benchmark's own tests: seed discipline and metric completeness.

    python3 -m unittest discover -s fumebench

Runs the benchmark program at smoke size (builds it first, like run.py).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_bench(binary, workload, seed, trace):
    """Returns (report, result) of one smoke-size run."""
    workdir = os.path.join(run.build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--smoke", "--workdir", workdir],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-2])["fumebench_report"], json.loads(lines[-1])


def deterministic_counts(result):
    """Work counts that must repeat exactly for a seed. Serve counters
    depend on request timing, so they are left out."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "rows") and not name.startswith("serve.")}


class SeedDisciplineTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("benchmark build failed")

    def test_same_seed_repeats_counter_deltas(self):
        report_a, a = run_bench(self.binary, "audit-adult", 3, 1)
        report_b, b = run_bench(self.binary, "audit-adult", 3, 1)
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(report_a["inputs"], report_b["inputs"])
        counts = deterministic_counts(a)
        self.assertIn("forest.unlearn.rows_deleted", counts)
        self.assertIn("stream.predcache.trees_rewalked", counts)
        self.assertEqual(counts, deterministic_counts(b))

    def test_different_seed_changes_inputs(self):
        report_a, _ = run_bench(self.binary, "stream-adult", 3, 0)
        report_b, _ = run_bench(self.binary, "stream-adult", 4, 0)
        self.assertNotEqual(report_a["inputs"], report_b["inputs"])


class SmokeTest(unittest.TestCase):
    def test_every_named_metric_present_finite_with_unit(self):
        proc = subprocess.run([sys.executable, run.__file__, "--smoke"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()
