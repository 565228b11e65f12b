#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 lsrabench/test_bench.py        (from the root of a checkout)

Short runs of every workload check that:
  - the exact counts (cycles, spill_dyn_instrs, code_instrs,
    passes.dce_removed and every *_allocs) repeat exactly across two runs
    with the same seed;
  - the traced re-composition reproduces compileTextModule byte for byte
    (the benchmark counts any difference as a failed op, so a traced run must
    come back correct with no failures);
  - every result names exactly the metrics BENCHMARK.json lists, end-to-end
    or per-layer, in its order;
  - obs.layer_coverage is reported for every workload;
  - the command refuses to run, with a nonzero exit and no result line,
    when the repository sources are not next to it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OFFLINE = ["corpus-cold", "code-cold", "fuzz-grid"]
ALL = OFFLINE + ["serve-mix"]
EXACT_E2E = ["cycles", "spill_dyn_instrs", "code_instrs"]


def bench(workload, trace, seed=7, seconds=2, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "lsrabench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stdout


def listed(key):
    """The metric names BENCHMARK.json lists under `key`, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def exact_layer_counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith("_allocs") or k == "passes.dce_removed"}


class BenchTest(unittest.TestCase):
    def test_exact_counts_repeat(self):
        for w in ALL:
            with self.subTest(workload=w):
                a, b = bench(w, 0)[1], bench(w, 0)[1]
                self.assertEqual(list(a["metrics"]), listed("end_to_end"))
                for m in EXACT_E2E:
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)
        for w in OFFLINE:
            with self.subTest(workload=w, trace=1):
                a, b = bench(w, 1)[1], bench(w, 1)[1]
                ca = exact_layer_counts(a["metrics"])
                self.assertEqual(ca, exact_layer_counts(b["metrics"]))
                self.assertGreater(ca["passes.dce_allocs"], 0)

    def test_traced_runs_are_correct_and_covered(self):
        for w in ALL:
            with self.subTest(workload=w):
                rc, r, out = bench(w, 1)
                self.assertEqual(rc, 0, out)
                self.assertTrue(r["correct"], out)
                self.assertEqual(r["failed"], 0, out)
                self.assertNotIn("re-composition differs", out)
                self.assertEqual(list(r["metrics"]), listed("per_layer"))
                cov = r["metrics"]["obs.layer_coverage"]["value"]
                self.assertTrue(0.5 < cov <= 1.0, cov)

    def test_refuses_without_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "lsrabench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        try:
            rc, r, _ = bench("corpus-cold", 0, cwd=lone)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(r)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
