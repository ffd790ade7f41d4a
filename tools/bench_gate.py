#!/usr/bin/env python3
"""Perf trend gate: compare a fresh BENCH_*.json against a committed baseline.

The perf-smoke CI job regenerates BENCH_plan.json / BENCH_training.json /
BENCH_fleet.json on every PR; this script diffs them against the baselines
committed under bench/baselines/ and fails (exit 1) when a gated metric
regresses by more than --tolerance (default 0.25 = 25%).

Shared CI runners make absolute throughput noisy, so the *gated* metrics are
ratios measured within one run of one binary on one machine — they cancel
the machine out and collapse only when the optimization itself regresses:

  plan_hot_path  : per-(variant, R) `speedup` (wall time of the
                   core::RunReferenceRound oracle over that of the
                   optimized planning round, both run by the bench over
                   the same round schedule);
  fleet_scaling  : per-threads `speedup` over the run's own 1-thread
                   baseline;
  training_time  : per-scenario `decision_ms` (the paper's "< 5 ms per
                   decision" claim; absolute, so give it a wider tolerance),
                   plus the ADMM fit's deterministic `admm_iterations` (may
                   not grow by more than 2%, whatever --tolerance says: the
                   slack absorbs libm ulp drift across runner images) and
                   `converged` (may not turn false);
  freshness      : per-retrain_workers `detection_rate` (must not drop),
                   `throughput_vs_no_freshness` (the freshness loop's tax on
                   fleet planning, a within-run ratio), and for the
                   synchronous retrain_workers=0 row `staleness_mean_s`
                   (lower is better; background rows are wall-clock
                   scheduling dependent so only reported);
  replay         : per-threads `tap_overhead` (the trace Recorder's serving
                   tax), `replay_vs_live` (trace::Replay wall time over the
                   tap-on session it verifies), and `bytes_per_event`
                   (capture size — moves only when the wire format changes);
  chaos          : per-threads `availability` and `recovered_fraction` (must
                   not drop) and `fallback_fraction` (must not grow) under
                   the seeded fault storm — all deterministic given the
                   storm seed, so drift means the degradation machinery
                   changed (torn plans and cross-worker parity are gated
                   inside bench_chaos itself, which aborts on violation);
  wal            : `append_overhead` (the journal's whole serving tax, a
                   within-run ratio over the same run's journal-off
                   control) gates for the page-cache-only "none" policy;
                   the fsync-heavy policies' overhead tracks device sync
                   latency and is reported ungated — their deterministic
                   `fsyncs` count gates instead. `bytes_per_event` (on-disk
                   framing cost — moves only when the wire format changes)
                   gates for every journaled row. `caller_minflt_per_record`
                   (the serving thread's minor page faults per record over
                   the journal-off control's, a count) gates for "none"
                   against an absolute allowance over the baseline.

  table3_period_reg : the paper-fidelity gate for Table III — per metric
                   (MSE, MAE) the `improvement_pct` the periodicity term buys
                   (must not drop) and the regularized fit's error
                   `with_reg` (must not grow). Deterministic given the
                   bench's seed, so only a change to the trainer moves them.
  fig4_pareto    : the paper-fidelity gate for Fig. 4 — per (trace,
                   strategy, parameter) point, `hit_rate` (must not drop)
                   and `creations_per_query` (must not grow). Deterministic
                   given the scenario seeds; the RobustScaler rows move only
                   when training or planning changes.
  ablation_strategies : per (scenario, strategy) row of the look-ahead /
                   uncertainty / refitting ablation, `hit_rate` (must not
                   drop) and `rel_cost` (must not grow). Deterministic, and
                   the only gate over NaiveBatch's arrival-driven planning,
                   MeanRate, and RefittingPolicy's unbounded history.

fleet_scaling also trend-gates `snapshot_ms` and `snapshot_bytes` once the
committed baseline carries them (rows or baselines without the fields stay
report-only, so pre-snapshot baselines keep working).

Absolute decisions/sec are *reported* (the one-line per-variant summary in
the job log and the delta report artifact) but only gated with
--gate-absolute.

Usage:
  tools/bench_gate.py --baseline bench/baselines/BENCH_plan.baseline.json \
      --current BENCH_plan.json [--tolerance 0.25] [--report delta.json] \
      [--gate-absolute]

Updating the baseline after an intentional perf change:
  re-run the bench with the CI invocation (see .github/workflows/ci.yml,
  perf-smoke job), copy the fresh JSON over the matching
  bench/baselines/*.baseline.json, and commit it with the change.
"""

import argparse
import json
import sys


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key)


class Gate:
    def __init__(self, tolerance, allow_missing=False):
        self.tolerance = tolerance
        self.allow_missing = allow_missing
        self.rows = []

    def missing(self, key):
        """A baseline row absent from the current run: lost coverage.

        Fails by default — a configuration the baseline gates must keep
        being measured, otherwise a regression there could never fail CI.
        Returns 1 when this counts as a regression.
        """
        level = "WARNING" if self.allow_missing else "FAIL"
        print(f"bench_gate: {level}: {fmt_key(key)} is in the baseline but "
              "missing from the current run — bench invocation drifted from "
              "the committed baseline (update bench/baselines/ together with "
              "the CI flags, or pass --allow-missing)")
        self.rows.append({
            "key": fmt_key(key),
            "metric": "<row missing from current run>",
            "baseline": None,
            "current": None,
            "delta_pct": None,
            "gated": not self.allow_missing,
            "regressed": not self.allow_missing,
        })
        return 0 if self.allow_missing else 1

    def compare(self, key, metric, baseline, current, gated,
                higher_is_better=True, tolerance=None):
        """Records one metric comparison; returns True when it regressed.

        `tolerance` overrides the run-wide --tolerance for this metric.
        """
        if baseline is None or current is None or baseline <= 0:
            return False
        tolerance = self.tolerance if tolerance is None else tolerance
        delta = (current - baseline) / baseline
        if higher_is_better:
            regressed = gated and current < baseline * (1.0 - tolerance)
        else:
            regressed = gated and current > baseline * (1.0 + tolerance)
        self.rows.append({
            "key": fmt_key(key),
            "metric": metric,
            "baseline": baseline,
            "current": current,
            "delta_pct": round(100.0 * delta, 2),
            "gated": gated,
            "regressed": regressed,
        })
        return regressed

    def compare_count(self, key, metric, baseline, current, allowance, gated):
        """Records a lower-is-better count; returns True when it regressed.

        Counts near zero have no useful relative tolerance, so `current`
        may exceed `baseline` by the absolute `allowance` and no more. A
        gated count missing from the current run is a regression.
        """
        if baseline is None:
            return False
        regressed = gated and (current is None or
                               current > baseline + allowance)
        self.rows.append({
            "key": fmt_key(key),
            "metric": metric,
            "baseline": baseline,
            "current": current,
            "delta_pct": (round(100.0 * (current - baseline) / baseline, 2)
                          if baseline > 0 and current is not None else None),
            "allowance": allowance,
            "gated": gated,
            "regressed": regressed,
        })
        return regressed


def index_rows(rows, key_fields):
    out = {}
    for row in rows:
        out[tuple((f, row.get(f)) for f in key_fields)] = row
    return out


def gate_plan(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("variant", "mc"))
    cur_rows = index_rows(current.get("results", []), ("variant", "mc"))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "speedup", base.get("speedup"),
                                    cur.get("speedup"), gated=True)
        regressions += gate.compare(
            key, "optimized_decisions_per_s",
            base.get("optimized_decisions_per_s"),
            cur.get("optimized_decisions_per_s"), gated=gate_absolute)
        # The one-line job-log summary: old vs new decisions/sec.
        print(f"bench_gate: {fmt_key(key)}: "
              f"{cur.get('optimized_decisions_per_s', 0):.0f} dec/s "
              f"(baseline {base.get('optimized_decisions_per_s', 0):.0f}), "
              f"speedup {cur.get('speedup', 0):.2f}x "
              f"(baseline {base.get('speedup', 0):.2f}x)")
    return regressions


def gate_fleet(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("threads",))
    cur_rows = index_rows(current.get("results", []), ("threads",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "speedup", base.get("speedup"),
                                    cur.get("speedup"), gated=True)
        regressions += gate.compare(key, "plans_per_s",
                                    base.get("plans_per_s"),
                                    cur.get("plans_per_s"),
                                    gated=gate_absolute)
        # Snapshot metrics (--snapshot-interval runs) trend-gate once the
        # committed baseline carries them; gate.compare() quietly skips
        # rows whose baseline predates the fields, keeping old baselines
        # working as report-only.
        snapshot_note = ""
        if cur.get("snapshots"):
            regressions += gate.compare(
                key, "snapshot_ms", base.get("snapshot_ms"),
                cur.get("snapshot_ms"), gated=True, higher_is_better=False)
            regressions += gate.compare(
                key, "snapshot_bytes", base.get("snapshot_bytes"),
                cur.get("snapshot_bytes"), gated=True,
                higher_is_better=False)
            snapshot_note = (
                f", {cur['snapshots']} snapshots "
                f"({cur.get('snapshot_ms', 0):.1f} ms total, "
                f"{cur.get('snapshot_bytes', 0)} bytes last)")
        print(f"bench_gate: {fmt_key(key)}: "
              f"{cur.get('plans_per_s', 0):.0f} plans/s "
              f"(baseline {base.get('plans_per_s', 0):.0f})"
              f"{snapshot_note}")
    return regressions


def gate_training(baseline, current, gate, gate_absolute):
    del gate_absolute  # decision_ms is the only absolute gated metric.
    regressions = 0
    base_rows = index_rows(baseline.get("scenarios", []), ("trace",))
    cur_rows = index_rows(current.get("scenarios", []), ("trace",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "decision_ms",
                                    base.get("decision_ms"),
                                    cur.get("decision_ms"), gated=True,
                                    higher_is_better=False)
        # The fit's iteration count and stopping outcome are deterministic:
        # iterations may not grow past 2% and a converged fit must stay
        # converged (1.0 vs 0.0 through the same comparison).
        regressions += gate.compare(key, "admm_iterations",
                                    base.get("admm_iterations"),
                                    cur.get("admm_iterations"), gated=True,
                                    higher_is_better=False, tolerance=0.02)
        if "converged" in base:
            regressions += gate.compare(
                key, "converged", float(base["converged"]),
                float(cur.get("converged", False)), gated=True,
                tolerance=0.0)
        print(f"bench_gate: {fmt_key(key)}: "
              f"decision {cur.get('decision_ms', 0):.3f} ms "
              f"(baseline {base.get('decision_ms', 0):.3f} ms), "
              f"ADMM {cur.get('admm_iterations', '?')} iterations, "
              f"converged {cur.get('converged', '?')} "
              f"(baseline {base.get('admm_iterations', '?')}, "
              f"{base.get('converged', '?')})")
    return regressions


def gate_freshness(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("retrain_workers",))
    cur_rows = index_rows(current.get("results", []), ("retrain_workers",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "detection_rate",
                                    base.get("detection_rate"),
                                    cur.get("detection_rate"), gated=True)
        regressions += gate.compare(key, "throughput_vs_no_freshness",
                                    base.get("throughput_vs_no_freshness"),
                                    cur.get("throughput_vs_no_freshness"),
                                    gated=True)
        # Staleness is simulated-time for retrain_workers=0 (the swap
        # happens at a deterministic plan boundary) but wall-clock
        # scheduling dependent for background rows, so only the
        # synchronous row gates it.
        synchronous = dict(key).get("retrain_workers") == 0
        regressions += gate.compare(key, "staleness_mean_s",
                                    base.get("staleness_mean_s"),
                                    cur.get("staleness_mean_s"),
                                    gated=synchronous,
                                    higher_is_better=False)
        regressions += gate.compare(key, "plans_per_s",
                                    base.get("plans_per_s"),
                                    cur.get("plans_per_s"),
                                    gated=gate_absolute)
        print(f"bench_gate: {fmt_key(key)}: "
              f"detection {100 * cur.get('detection_rate', 0):.0f}%, "
              f"staleness {cur.get('staleness_mean_s', 0):.0f} s, "
              f"throughput {cur.get('throughput_vs_no_freshness', 0):.2f}x "
              f"of control (baseline "
              f"{base.get('throughput_vs_no_freshness', 0):.2f}x)")
    return regressions


def gate_replay(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("threads",))
    cur_rows = index_rows(current.get("results", []), ("threads",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        # All three gated metrics are lower-is-better within-run ratios:
        # the recorder's serving tax, replay speed relative to the live
        # session it verifies, and the capture's encoded size per event
        # (format bloat — deterministic given the bench config, so it only
        # moves when the wire encoding itself changes).
        regressions += gate.compare(key, "tap_overhead",
                                    base.get("tap_overhead"),
                                    cur.get("tap_overhead"), gated=True,
                                    higher_is_better=False)
        regressions += gate.compare(key, "replay_vs_live",
                                    base.get("replay_vs_live"),
                                    cur.get("replay_vs_live"), gated=True,
                                    higher_is_better=False)
        regressions += gate.compare(key, "bytes_per_event",
                                    base.get("bytes_per_event"),
                                    cur.get("bytes_per_event"), gated=True,
                                    higher_is_better=False)
        regressions += gate.compare(key, "arrivals_per_s",
                                    base.get("arrivals_per_s"),
                                    cur.get("arrivals_per_s"),
                                    gated=gate_absolute)
        print(f"bench_gate: {fmt_key(key)}: "
              f"tap {cur.get('tap_overhead', 0):.2f}x "
              f"(baseline {base.get('tap_overhead', 0):.2f}x), "
              f"replay {cur.get('replay_vs_live', 0):.2f}x of live "
              f"(baseline {base.get('replay_vs_live', 0):.2f}x), "
              f"{cur.get('bytes_per_event', 0):.1f} B/event "
              f"(baseline {base.get('bytes_per_event', 0):.1f})")
    return regressions


def gate_chaos(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("threads",))
    cur_rows = index_rows(current.get("results", []), ("threads",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        # All gated chaos metrics are deterministic given the storm seed
        # (the bench aborts on cross-worker divergence before writing
        # JSON), so any drift here means the degradation machinery itself
        # changed: availability and recovered_fraction must not drop,
        # fallback_fraction must not grow (more of the fleet running
        # degraded for the same storm).
        regressions += gate.compare(key, "availability",
                                    base.get("availability"),
                                    cur.get("availability"), gated=True)
        regressions += gate.compare(key, "recovered_fraction",
                                    base.get("recovered_fraction"),
                                    cur.get("recovered_fraction"),
                                    gated=True)
        regressions += gate.compare(key, "fallback_fraction",
                                    base.get("fallback_fraction"),
                                    cur.get("fallback_fraction"), gated=True,
                                    higher_is_better=False)
        regressions += gate.compare(key, "arrivals_per_s",
                                    base.get("arrivals_per_s"),
                                    cur.get("arrivals_per_s"),
                                    gated=gate_absolute)
        # torn_plans is gated inside the bench itself (it aborts on any),
        # so here it is reporting only.
        print(f"bench_gate: {fmt_key(key)}: "
              f"availability {100 * cur.get('availability', 0):.2f}%, "
              f"fallback {100 * cur.get('fallback_fraction', 0):.2f}% "
              f"(baseline {100 * base.get('fallback_fraction', 0):.2f}%), "
              f"recovered {100 * cur.get('recovered_fraction', 0):.0f}%, "
              f"{cur.get('faults_fired', 0)} faults fired, "
              f"{cur.get('torn_plans', 0)} torn plans")
    return regressions


# Serving-thread page faults per journal record that a wal run may take
# over its baseline: one in 200 records. A journal whose helper populates
# nothing ahead of the cursor takes one per page of records, about one in
# 52 at this bench's 78.7 B per event.
WAL_MINFLT_ALLOWANCE = 0.005


def gate_wal(baseline, current, gate, gate_absolute):
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("policy",))
    cur_rows = index_rows(current.get("results", []), ("policy",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        # append_overhead is the journal's whole serving tax as a
        # within-run ratio (journaled serve time over the same run's
        # journal-off serve time). For the fsync-heavy policies that ratio
        # tracks the runner's device sync latency — even same-machine
        # reruns drift past 60% — so only the page-cache-only "none" row
        # gates it; the fsync-heavy rows are reported ungated, and their
        # deterministic *fsync count* (policy × schedule) gates instead.
        # bytes_per_event is the on-disk framing cost, deterministic given
        # the bench config, gated for every journaled row.
        policy = dict(key).get("policy")
        journaled = policy != "off"
        regressions += gate.compare(key, "append_overhead",
                                    base.get("append_overhead"),
                                    cur.get("append_overhead"),
                                    gated=(policy == "none"),
                                    higher_is_better=False)
        regressions += gate.compare(key, "bytes_per_event",
                                    base.get("bytes_per_event"),
                                    cur.get("bytes_per_event"),
                                    gated=journaled, higher_is_better=False)
        regressions += gate.compare(key, "fsyncs",
                                    base.get("fsyncs"), cur.get("fsyncs"),
                                    gated=journaled, higher_is_better=False)
        regressions += gate.compare(key, "events_per_s",
                                    base.get("events_per_s"),
                                    cur.get("events_per_s"),
                                    gated=gate_absolute)
        # Page faults the serving thread takes per record: a count, so it
        # holds on any runner. Only "none" gates it; under the fsync
        # policies writeback write-protects the populated pages and the
        # journal's helper races the caller to populate them again.
        regressions += gate.compare_count(
            key, "caller_minflt_per_record",
            base.get("caller_minflt_per_record"),
            cur.get("caller_minflt_per_record"),
            allowance=WAL_MINFLT_ALLOWANCE, gated=(policy == "none"))
        minflt = cur.get("caller_minflt_per_record")
        print(f"bench_gate: {fmt_key(key)}: "
              f"overhead {cur.get('append_overhead', 0):.2f}x "
              f"(baseline {base.get('append_overhead', 0):.2f}x), "
              f"{cur.get('bytes_per_event', 0):.1f} B/event "
              f"(baseline {base.get('bytes_per_event', 0):.1f}), "
              f"{cur.get('fsyncs', 0)} fsyncs"
              + (f", {minflt:.5f} caller faults/record "
                 f"(baseline {base.get('caller_minflt_per_record', 0):.5f})"
                 if minflt is not None else ""))
    return regressions


def gate_table3(baseline, current, gate, gate_absolute):
    del gate_absolute  # Every table3 metric is deterministic and gated.
    regressions = 0
    base_rows = index_rows(baseline.get("results", []), ("metric",))
    cur_rows = index_rows(current.get("results", []), ("metric",))
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "improvement_pct",
                                    base.get("improvement_pct"),
                                    cur.get("improvement_pct"), gated=True)
        regressions += gate.compare(key, "with_reg", base.get("with_reg"),
                                    cur.get("with_reg"), gated=True,
                                    higher_is_better=False)
        print(f"bench_gate: {fmt_key(key)}: "
              f"{cur.get('without_reg', 0):.3e} -> "
              f"{cur.get('with_reg', 0):.3e}, improvement "
              f"{cur.get('improvement_pct', 0):.1f}% "
              f"(baseline {base.get('improvement_pct', 0):.1f}%)")
    return regressions


def gate_fig4(baseline, current, gate, gate_absolute):
    del gate_absolute  # Every fig4 metric is deterministic and gated.
    regressions = 0
    fields = ("trace", "strategy", "parameter")
    base_rows = index_rows(baseline.get("results", []), fields)
    cur_rows = index_rows(current.get("results", []), fields)
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "hit_rate", base.get("hit_rate"),
                                    cur.get("hit_rate"), gated=True)
        regressions += gate.compare(key, "creations_per_query",
                                    base.get("creations_per_query"),
                                    cur.get("creations_per_query"),
                                    gated=True, higher_is_better=False)
    moved = [r for r in gate.rows if r["delta_pct"]]
    print(f"bench_gate: {len(base_rows)} Fig. 4 points, {len(moved)} "
          "metric(s) moved off the baseline")
    for row in moved:
        print(f"bench_gate:   {row['key']}: {row['metric']} "
              f"{row['baseline']:.4f} -> {row['current']:.4f} "
              f"({row['delta_pct']:+.2f}%)")
    return regressions


def gate_ablation(baseline, current, gate, gate_absolute):
    del gate_absolute  # Every ablation metric is deterministic and gated.
    regressions = 0
    fields = ("scenario", "strategy")
    base_rows = index_rows(baseline.get("results", []), fields)
    cur_rows = index_rows(current.get("results", []), fields)
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            regressions += gate.missing(key)
            continue
        regressions += gate.compare(key, "hit_rate", base.get("hit_rate"),
                                    cur.get("hit_rate"), gated=True)
        regressions += gate.compare(key, "rel_cost", base.get("rel_cost"),
                                    cur.get("rel_cost"), gated=True,
                                    higher_is_better=False)
        print(f"bench_gate: {fmt_key(key)}: "
              f"hit_rate {cur.get('hit_rate', 0):.4f} "
              f"(baseline {base.get('hit_rate', 0):.4f}), "
              f"rel_cost {cur.get('rel_cost', 0):.4f} "
              f"(baseline {base.get('rel_cost', 0):.4f})")
    return regressions


GATES = {
    "plan_hot_path": gate_plan,
    "fleet_scaling": gate_fleet,
    "training_time": gate_training,
    "freshness": gate_freshness,
    "replay": gate_replay,
    "chaos": gate_chaos,
    "wal": gate_wal,
    "table3_period_reg": gate_table3,
    "fig4_pareto": gate_fig4,
    "ablation_strategies": gate_ablation,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (0.25 = 25%%)")
    parser.add_argument("--report", default="",
                        help="write the full delta report JSON here")
    parser.add_argument("--allow-missing", action="store_true",
                        help="downgrade baseline rows absent from the "
                             "current run to warnings instead of failures")
    parser.add_argument("--gate-absolute", action="store_true",
                        help="also gate absolute throughput metrics "
                             "(meaningful on dedicated hardware only)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_gate: cannot load inputs: {err}", file=sys.stderr)
        return 2

    kind = current.get("bench", "")
    if baseline.get("bench", "") != kind:
        print(f"bench_gate: baseline is for '{baseline.get('bench')}' but "
              f"current is '{kind}'", file=sys.stderr)
        return 2
    if kind not in GATES:
        print(f"bench_gate: unknown bench kind '{kind}'", file=sys.stderr)
        return 2

    gate = Gate(args.tolerance, args.allow_missing)
    regressions = GATES[kind](baseline, current, gate, args.gate_absolute)

    if args.report:
        with open(args.report, "w") as f:
            json.dump({
                "bench": kind,
                "tolerance": args.tolerance,
                "regressions": regressions,
                "ok": regressions == 0,
                "rows": gate.rows,
            }, f, indent=2)
            f.write("\n")

    if regressions:
        worst = [r for r in gate.rows if r["regressed"]]
        print(f"bench_gate: FAIL — {regressions} metric(s) regressed more "
              f"than {100 * args.tolerance:.0f}% vs {args.baseline}:",
              file=sys.stderr)
        for row in worst:
            if row["baseline"] is None:
                print(f"  {row['key']}: {row['metric']}", file=sys.stderr)
            elif "allowance" in row:
                print(f"  {row['key']}: {row['metric']} "
                      f"{row['baseline']} -> {row['current']} (allowed: "
                      f"baseline + {row['allowance']})", file=sys.stderr)
            else:
                print(f"  {row['key']}: {row['metric']} "
                      f"{row['baseline']:.3f} -> {row['current']:.3f} "
                      f"({row['delta_pct']:+.1f}%)", file=sys.stderr)
        print("bench_gate: if this change intentionally trades this perf "
              "away, re-run the bench with the CI invocation and commit the "
              "fresh JSON over the baseline file (see tools/bench_gate.py "
              "docstring).", file=sys.stderr)
        return 1
    print(f"bench_gate: OK — no gated metric regressed more than "
          f"{100 * args.tolerance:.0f}% vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
