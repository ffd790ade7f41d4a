#!/usr/bin/env python3
"""Tests for tools/bench_gate.py over every committed baseline.

For each bench/baselines/*.baseline.json: the baseline passes against
itself; each gated metric pushed just past its tolerance in its worse
direction fails and just inside it passes; an improvement of every gated
metric passes; a report-only metric moved tenfold passes; a dropped row
and a dropped gated metric fail. Run directly or through ctest
(`bench_gate_test`).
"""

import contextlib
import copy
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
BASELINES = sorted(glob.glob(
    os.path.join(TOOLS, "..", "bench", "baselines", "*.baseline.json")))

_spec = importlib.util.spec_from_file_location(
    "bench_gate", os.path.join(TOOLS, "bench_gate.py"))
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def load(path):
    with open(path) as f:
        return json.load(f)


def run_gate(baseline, current, report=""):
    """Runs the gate's command line on two in-memory runs; returns its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline", baseline), ("current", current)):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        argv = ["bench_gate.py", "--baseline", paths[0], "--current", paths[1]]
        if report:
            argv += ["--report", report]
        saved, sys.argv = sys.argv, argv
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return bench_gate.main()
        finally:
            sys.argv = saved


def metrics(baseline):
    """Yields (row index, metric, gated) for every metric a baseline row has."""
    spec = bench_gate.KINDS[baseline["bench"]]
    for i, row in enumerate(baseline[spec.rows]):
        key = {f: row.get(f) for f in spec.key}
        for metric in spec.metrics:
            if row.get(metric.name) is None:
                continue
            gated = metric.gated
            yield i, metric, gated(key) if callable(gated) else gated


def moved(baseline, i, name, value):
    """A copy of `baseline` whose row `i` has `name` set to `value`."""
    current = copy.deepcopy(baseline)
    current[bench_gate.KINDS[baseline["bench"]].rows][i][name] = value
    return current


def past_and_inside(metric, base, tolerance):
    """The values just past and just inside a gated metric's bound."""
    if metric.allowance is not None:
        return base + 1.01 * metric.allowance, base + 0.99 * metric.allowance
    if metric.tolerance is not None:
        tolerance = metric.tolerance
    sign = -1.0 if metric.better == bench_gate.HIGHER else 1.0
    return (base * (1.0 + sign * (tolerance + 0.01)),
            base * (1.0 + sign * 0.99 * tolerance))


# Each kind's tolerance and its gated metrics ("+" higher is better, "-"
# lower; "@t" an own tolerance, "~a" an absolute allowance), pinned so
# that a changed direction or bound is a deliberate edit here too: every
# case below derives its bounds from the table.
PINNED = {
    "plan_hot_path": (0.25, "speedup+"),
    "fleet_scaling": (0.6, "speedup+ snapshot_ms- snapshot_bytes-"),
    "training_time": (1.0, "decision_ms- admm_iterations-@0.02 "
                               "converged+@0.0"),
    "freshness": (0.6, "detection_rate+ throughput_vs_no_freshness+ "
                       "staleness_mean_s-"),
    "replay": (0.6, "tap_overhead- replay_vs_live- bytes_per_event-"),
    "chaos": (0.05, "availability+ recovered_fraction+ fallback_fraction-"),
    "wal": (0.6, "append_overhead- bytes_per_event- fsyncs- "
                 "caller_minflt_per_record-~0.005"),
    "table3_period_reg": (0.1, "improvement_pct+ with_reg-"),
    "fig4_pareto": (0.02, "hit_rate+ creations_per_query-"),
    "ablation_strategies": (0.02, "hit_rate+ rel_cost-"),
}


class BenchGateTest(unittest.TestCase):

    def test_every_baseline_kind_is_declared(self):
        kinds = {load(path)["bench"] for path in BASELINES}
        self.assertEqual(len(BASELINES), 10)
        self.assertEqual(kinds, set(bench_gate.KINDS))

    def test_tolerances_and_directions_are_pinned(self):
        for kind, spec in bench_gate.KINDS.items():
            gated = " ".join(
                m.name + ("+" if m.better == bench_gate.HIGHER else "-")
                + ("" if m.tolerance is None else f"@{m.tolerance}")
                + ("" if m.allowance is None else f"~{m.allowance}")
                for m in spec.metrics if m.gated is not bench_gate.REPORT)
            self.assertEqual((spec.tolerance, gated), PINNED[kind], kind)

    def test_baseline_passes_against_itself(self):
        for path in BASELINES:
            with self.subTest(baseline=os.path.basename(path)):
                self.assertEqual(run_gate(load(path), load(path)), 0)

    def test_gated_metric_fails_just_past_its_tolerance(self):
        for path in BASELINES:
            baseline = load(path)
            tolerance = bench_gate.KINDS[baseline["bench"]].tolerance
            for i, metric, gated in metrics(baseline):
                base = float(baseline[bench_gate.KINDS[baseline["bench"]].rows]
                             [i][metric.name])
                if not gated or (base <= 0 and metric.allowance is None):
                    continue
                past, inside = past_and_inside(metric, base, tolerance)
                with self.subTest(baseline=os.path.basename(path), row=i,
                                  metric=metric.name):
                    self.assertEqual(
                        run_gate(baseline, moved(baseline, i, metric.name,
                                                 past)), 1)
                    self.assertEqual(
                        run_gate(baseline, moved(baseline, i, metric.name,
                                                 inside)), 0)

    def test_improvement_passes(self):
        for path in BASELINES:
            baseline = load(path)
            current = copy.deepcopy(baseline)
            rows = current[bench_gate.KINDS[baseline["bench"]].rows]
            for i, metric, gated in metrics(baseline):
                if gated:
                    better = 1.1 if metric.better == bench_gate.HIGHER else 0.9
                    rows[i][metric.name] = float(rows[i][metric.name]) * better
            with self.subTest(baseline=os.path.basename(path)):
                self.assertEqual(run_gate(baseline, current), 0)

    def test_report_only_metric_moved_tenfold_passes(self):
        for path in BASELINES:
            baseline = load(path)
            for i, metric, gated in metrics(baseline):
                if gated:
                    continue
                base = baseline[bench_gate.KINDS[baseline["bench"]].rows][i][
                    metric.name]
                for factor in (10.0, 0.1):
                    with self.subTest(baseline=os.path.basename(path), row=i,
                                      metric=metric.name, factor=factor):
                        self.assertEqual(
                            run_gate(baseline, moved(baseline, i, metric.name,
                                                     base * factor)), 0)

    def test_dropped_row_fails(self):
        for path in BASELINES:
            baseline = load(path)
            rows = bench_gate.KINDS[baseline["bench"]].rows
            for i in range(len(baseline[rows])):
                current = copy.deepcopy(baseline)
                del current[rows][i]
                with self.subTest(baseline=os.path.basename(path), row=i):
                    self.assertEqual(run_gate(baseline, current), 1)

    def test_dropped_gated_metric_fails(self):
        for path in BASELINES:
            baseline = load(path)
            rows = bench_gate.KINDS[baseline["bench"]].rows
            for i, metric, gated in metrics(baseline):
                current = copy.deepcopy(baseline)
                del current[rows][i][metric.name]
                with self.subTest(baseline=os.path.basename(path), row=i,
                                  metric=metric.name):
                    self.assertEqual(run_gate(baseline, current),
                                     1 if gated else 0)

    def test_report_keeps_its_keys(self):
        baseline = load(BASELINES[0])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "delta.json")
            self.assertEqual(run_gate(baseline, baseline, report=path), 0)
            report = load(path)
        self.assertEqual(set(report),
                         {"bench", "tolerance", "regressions", "ok", "rows"})
        self.assertTrue(report["ok"])
        for row in report["rows"]:
            self.assertLessEqual(
                {"key", "metric", "baseline", "current", "delta_pct", "gated",
                 "regressed"}, set(row))

    def test_mismatched_or_unknown_kind_is_a_usage_error(self):
        baseline = load(BASELINES[0])
        other = dict(baseline, bench="no_such_kind")
        self.assertEqual(run_gate(baseline, other), 2)
        self.assertEqual(run_gate(other, other), 2)


if __name__ == "__main__":
    unittest.main()
