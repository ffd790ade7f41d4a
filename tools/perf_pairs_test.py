#!/usr/bin/env python3
"""Tests for tools/perf_pairs.py with perfbench replaced by a fake: run
order alternates, medians/quartiles/wins are what statistics gives, and the
quartile rule needs both its win count and its gap. Run directly or through
ctest (`perf_pairs_test`).
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(TOOLS, "perf_pairs.py"))
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)


class PerfPairsTest(unittest.TestCase):

    def test_quartiles_match_statistics(self):
        self.assertEqual(perf_pairs.quartiles([3.0]), (3.0, 3.0, 3.0))
        q1, q2, q3 = perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, q2, q3), (1.5, 3.0, 4.5))

    def test_wins_follow_the_direction(self):
        base, cand = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
        self.assertEqual(perf_pairs.wins(base, cand, "lower"), 1)
        self.assertEqual(perf_pairs.wins(base, cand, "higher"), 1)

    def test_quartile_rule_needs_wins_and_gap(self):
        base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
        # Every pair won by 0.2, far past the base's IQR (~0.055).
        self.assertTrue(perf_pairs.quartile_rule(
            base, [b - 0.2 for b in base], "lower"))
        # Every pair won, but by less than the IQR.
        self.assertFalse(perf_pairs.quartile_rule(
            base, [b - 0.01 for b in base], "lower"))
        # A large gap, but only 8 of 10 pairs won.
        cand = [b - 0.2 for b in base[:8]] + [2.0, 2.0]
        self.assertFalse(perf_pairs.quartile_rule(base, cand, "lower"))
        # 9 of 10 is enough.
        cand = [b - 0.2 for b in base[:9]] + [2.0]
        self.assertTrue(perf_pairs.quartile_rule(base, cand, "lower"))
        # Higher-is-better metrics are judged the other way.
        self.assertTrue(perf_pairs.quartile_rule(
            base, [b + 0.2 for b in base], "higher"))
        self.assertFalse(perf_pairs.quartile_rule(
            base, [b - 0.2 for b in base], "higher"))

    def test_main_alternates_and_summarizes(self):
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            calls.append(checkout)
            self.assertEqual((workload, seed, seconds), ("w", 7, 3))
            p50 = 1.0 if checkout == "B" else 0.8
            return {"boundary_p50_ms": p50 + 0.01 * len(calls),
                    "hit_rate": 0.9}

        saved = perf_pairs.run_perfbench
        perf_pairs.run_perfbench = fake_run
        try:
            with tempfile.TemporaryDirectory() as tmp:
                out = io.StringIO()
                path = os.path.join(tmp, "pairs.json")
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = perf_pairs.main([
                        "--base", "B", "--candidate", "C", "--workload", "w",
                        "--seed", "7", "--seconds", "3", "--pairs", "3",
                        "--json", path])
                with open(path) as f:
                    report = json.load(f)
        finally:
            perf_pairs.run_perfbench = saved
        self.assertEqual(code, 0)
        self.assertEqual(calls, ["B", "C", "C", "B", "B", "C"])
        rows = {r["metric"]: r for r in report["summary"]}
        self.assertEqual(rows["boundary_p50_ms"]["wins"], 3)
        self.assertEqual(rows["hit_rate"]["wins"], 0)
        self.assertIn("| `boundary_p50_ms` |", out.getvalue())


if __name__ == "__main__":
    unittest.main()
