#!/usr/bin/env python3
"""Tests of the benchmark's generator and counts.

Run from the repository root (builds like run.py does; takes a few minutes):

    python3 perfbench/test_perfbench.py

- The same seed gives a byte-identical corpus; another seed a different one.
- The deterministic per-layer counts of a traced run repeat exactly across
  runs of one seed.
- Every run reports a correct result with no failed operation.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["cold_sweep", "warm_serve", "compute_bound"]
DETERMINISTIC = ["wire.submit_bytes", "partition.ops", "schedule.placements",
                 "plan_cache.misses"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.client, _ = run.build(build_dir)

    def dump(self, workload, seed):
        return subprocess.run(
            [self.client, "--dump-corpus", "--workload", workload,
             "--seed", str(seed), "--loops", os.path.join("examples", "loops")],
            capture_output=True, check=True).stdout

    def bench(self, workload, seed, trace, seconds=2):
        out = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=400)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def test_same_seed_same_corpus(self):
        for w in WORKLOADS:
            a = self.dump(w, 7)
            self.assertGreater(len(a), 0)
            self.assertEqual(a, self.dump(w, 7), w)

    def test_other_seed_other_corpus(self):
        for w in WORKLOADS:
            self.assertNotEqual(self.dump(w, 7), self.dump(w, 8), w)

    def test_deterministic_counts_repeat(self):
        for w in ["cold_sweep", "warm_serve"]:
            first = self.bench(w, 5, 1)["metrics"]
            second = self.bench(w, 5, 1)["metrics"]
            for name in DETERMINISTIC:
                self.assertGreater(first[name]["value"], 0, (w, name))
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 (w, name))

    def test_untraced_run_reports_end_to_end_metrics(self):
        metrics = self.bench("warm_serve", 3, 0)["metrics"]
        for name in ["setup_s", "p50_ms", "tail_ms", "requests_per_s",
                     "daemon_peak_rss_mib", "speedup_vs_seq"]:
            self.assertGreater(metrics[name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
