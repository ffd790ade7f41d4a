#!/usr/bin/env python3
"""Perf trend gate: compare a fresh BENCH_*.json against a committed baseline.

The perf-smoke CI job regenerates every BENCH_*.json and runs this script
once per baseline under bench/baselines/. KINDS below declares, per bench
kind, where its rows live, which fields key a row, the kind's tolerance,
and for each metric which direction is better and whether it gates. The
gate fails (exit 1) when a gated metric regresses past its tolerance, when
a baseline row is missing from the current run, or when a gated metric of
a baseline row is missing from the current row: a configuration or metric
the baseline gates must keep being measured, or its regressions could
never fail CI.

Shared CI runners make absolute throughput noisy, so the gated metrics are
ratios measured within one run of one binary on one machine, deterministic
counts, or paper-fidelity numbers computed from fixed seeds. Absolute
throughputs are reported, not gated.

Usage:
  tools/bench_gate.py --baseline bench/baselines/BENCH_plan.baseline.json \
      --current BENCH_plan.json [--report BENCH_plan.delta.json]

A new gate kind is one KINDS entry. To update a baseline after an
intentional perf change, re-run the bench with the CI invocation (see
.github/workflows/ci.yml, perf-smoke job), copy the fresh JSON over the
matching bench/baselines/*.baseline.json, and commit it with the change.
"""

import argparse
import json
import sys
from collections import namedtuple

HIGHER, LOWER = "higher", "lower"
REPORT = False  # A metric that is reported in the delta report, never gated.

# One gated or reported metric of a row. `gated` is True, REPORT, or a
# predicate over the row's key (a dict). `tolerance` overrides the kind's
# relative tolerance; `allowance` replaces it with an absolute one over the
# baseline, for counts that sit near zero.
Metric = namedtuple("Metric", "name better gated tolerance allowance",
                    defaults=(True, None, None))
# `rows` names the list of result rows, `key` the fields that identify one.
Kind = namedtuple("Kind", "rows key tolerance metrics")


def _policy_none(key):
    return key["policy"] == "none"


def _journaled(key):
    return key["policy"] != "off"


KINDS = {
    # Per-(variant, R) `speedup`: wall time of the core::RunReferenceRound
    # oracle over that of the optimized planning round, both run by the
    # bench over the same round schedule.
    "plan_hot_path": Kind("results", ("variant", "mc"), 0.25, (
        Metric("speedup", HIGHER),
        Metric("optimized_decisions_per_s", HIGHER, REPORT),
    )),
    # Per-threads `speedup` over the run's own 1-thread baseline, plus the
    # periodic SaveFleet cost (`--snapshot-interval` runs; a baseline
    # without the fields leaves them ungated). The CI fleet run is
    # deliberately tiny (milliseconds of serving), so its ratios are the
    # noisiest: 60%.
    "fleet_scaling": Kind("results", ("threads",), 0.6, (
        Metric("speedup", HIGHER),
        Metric("snapshot_ms", LOWER),
        Metric("snapshot_bytes", LOWER),
        Metric("plans_per_s", HIGHER, REPORT),
    )),
    # `decision_ms` backs the paper's "< 5 ms per decision" claim. It is an
    # absolute latency, so shared-runner noise gets a wide budget: fail
    # only past 2x. The ADMM fit is deterministic: its iterations may grow
    # by 2% (slack for libm ulp drift across runner images) and a converged
    # fit must stay converged.
    "training_time": Kind("scenarios", ("trace",), 1.0, (
        Metric("decision_ms", LOWER),
        Metric("admm_iterations", LOWER, tolerance=0.02),
        Metric("converged", HIGHER, tolerance=0.0),
    )),
    # Per-retrain_workers `detection_rate` and the retrain loop's tax on
    # fleet planning, a within-run ratio. Staleness is simulated time for
    # the synchronous retrain_workers=0 row (the swap lands on a
    # deterministic plan boundary) but wall-clock scheduling dependent for
    # background rows, so only the synchronous row gates it. The CI sizes
    # are tiny: 60%, as for the fleet bench.
    "freshness": Kind("results", ("retrain_workers",), 0.6, (
        Metric("detection_rate", HIGHER),
        Metric("throughput_vs_no_freshness", HIGHER),
        Metric("staleness_mean_s", LOWER,
               lambda key: key["retrain_workers"] == 0),
        Metric("plans_per_s", HIGHER, REPORT),
    )),
    # Per-threads within-run wall-clock ratios: the trace Recorder's
    # serving tax and trace::Replay's wall time over the tap-on session it
    # verifies; plus the capture's encoded size per event, which moves only
    # when the wire format changes. 60%, as for the other small-wall-time
    # benches.
    "replay": Kind("results", ("threads",), 0.6, (
        Metric("tap_overhead", LOWER),
        Metric("replay_vs_live", LOWER),
        Metric("bytes_per_event", LOWER),
        Metric("arrivals_per_s", HIGHER, REPORT),
    )),
    # Deterministic given the storm seed (the bench aborts on cross-worker
    # divergence, and on any torn plan, before writing JSON), so drift
    # means the degradation machinery changed: the tightest tolerance of
    # all the benches.
    "chaos": Kind("results", ("threads",), 0.05, (
        Metric("availability", HIGHER),
        Metric("recovered_fraction", HIGHER),
        Metric("fallback_fraction", LOWER),
        Metric("arrivals_per_s", HIGHER, REPORT),
        Metric("faults_fired", LOWER, REPORT),
    )),
    # `append_overhead` is the journal's whole serving tax over the same
    # run's journal-off control. Under the fsync-heavy policies it tracks
    # the device's sync latency (same-machine reruns drift past 60%), so
    # only the page-cache-only "none" row gates it; their deterministic
    # fsync count (policy x schedule) gates instead. `bytes_per_event` is
    # the on-disk framing cost, deterministic given the bench config.
    # `caller_minflt_per_record`, the serving thread's minor page faults per
    # record over the control's, is a count, so it holds on any runner: a
    # "none" run may take one in 200 records over its baseline. A journal
    # whose helper populates nothing ahead of the cursor takes one per page
    # of records, about one in 52 at 78.7 B per event. Under the fsync
    # policies writeback write-protects the populated pages and the helper
    # races the caller to populate them again, so those rows only report.
    "wal": Kind("results", ("policy",), 0.6, (
        Metric("append_overhead", LOWER, _policy_none),
        Metric("bytes_per_event", LOWER, _journaled),
        Metric("fsyncs", LOWER, _journaled),
        Metric("caller_minflt_per_record", LOWER, _policy_none,
               allowance=0.005),
        Metric("events_per_s", HIGHER, REPORT),
    )),
    # Paper fidelity, Table III: per error metric (MSE, MAE), the
    # improvement the periodicity term buys may not drop, and the
    # regularized error may not grow, by more than 10% of its value: the
    # reproduction (30%/22% against the paper's 56%/39%) must stay in the
    # paper's tens-of-percent band. Deterministic given the bench's seed.
    "table3_period_reg": Kind("results", ("metric",), 0.1, (
        Metric("improvement_pct", HIGHER),
        Metric("with_reg", LOWER),
        Metric("without_reg", LOWER, REPORT),
    )),
    # Paper fidelity, Fig. 4: no (trace, strategy, parameter) point's hit
    # rate may drop, and no point's creations per query may grow, by more
    # than 2%. Deterministic given the scenario seeds; the RobustScaler rows
    # move only when training or planning changes.
    "fig4_pareto": Kind("results", ("trace", "strategy", "parameter"), 0.02, (
        Metric("hit_rate", HIGHER),
        Metric("creations_per_query", LOWER),
    )),
    # The look-ahead / uncertainty / refitting ablation, deterministic like
    # Fig. 4: the only gate over NaiveBatch's arrival-driven planning,
    # MeanRate, and RefittingPolicy's unbounded history.
    "ablation_strategies": Kind("results", ("scenario", "strategy"), 0.02, (
        Metric("hit_rate", HIGHER),
        Metric("rel_cost", LOWER),
    )),
}


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def fmt_value(value):
    return "missing" if value is None else format(value, ".4g")


def index_rows(rows, key_fields):
    return {tuple((f, row.get(f)) for f in key_fields): row for row in rows}


def number(value):
    return float(value) if isinstance(value, bool) else value


def compare(metric, key, base, cur, tolerance):
    """The delta-report row for one metric of one baseline row.

    A gated metric missing from the current row regresses. A relative
    tolerance cannot resolve a zero baseline, so such a metric only reports.
    """
    baseline, current = number(base[metric.name]), number(cur.get(metric.name))
    gated = metric.gated(dict(key)) if callable(metric.gated) else metric.gated
    if metric.tolerance is not None:
        tolerance = metric.tolerance
    if current is None:
        regressed = gated
    elif metric.allowance is not None:
        regressed = gated and current > baseline + metric.allowance
    elif baseline <= 0:
        regressed = False
    elif metric.better == HIGHER:
        regressed = gated and current < baseline * (1.0 - tolerance)
    else:
        regressed = gated and current > baseline * (1.0 + tolerance)
    row = {
        "key": fmt_key(key),
        "metric": metric.name,
        "baseline": baseline,
        "current": current,
        "delta_pct": (round(100.0 * (current - baseline) / baseline, 2)
                      if current is not None and baseline > 0 else None),
        "gated": bool(gated),
        "regressed": bool(regressed),
    }
    if metric.allowance is not None:
        row["allowance"] = metric.allowance
    return row


def gate(kind, baseline, current):
    """Compares every baseline row of `kind`; returns (report rows, log lines)."""
    spec = KINDS[kind]
    base_rows = index_rows(baseline.get(spec.rows, []), spec.key)
    cur_rows = index_rows(current.get(spec.rows, []), spec.key)
    report, log = [], []
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            report.append({
                "key": fmt_key(key),
                "metric": "<row missing from current run>",
                "baseline": None, "current": None, "delta_pct": None,
                "gated": True, "regressed": True,
            })
            log.append(f"{fmt_key(key)}: MISSING from the current run: the "
                       "bench invocation drifted from the committed baseline "
                       "(update bench/baselines/ together with the CI flags)")
            continue
        rows = [compare(metric, key, base, cur, spec.tolerance)
                for metric in spec.metrics
                if base.get(metric.name) is not None]
        report.extend(rows)
        log.append(f"{fmt_key(key)}: " + ", ".join(
            f"{r['metric']} {fmt_value(r['current'])} (baseline "
            f"{fmt_value(r['baseline'])})" + (" REGRESSED" * r["regressed"])
            for r in rows))
    return report, log


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--report", default="",
                        help="write the full delta report JSON here")
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
    if kind not in KINDS:
        print(f"bench_gate: unknown bench kind '{kind}'", file=sys.stderr)
        return 2

    report, log = gate(kind, baseline, current)
    for line in log:
        print(f"bench_gate: {line}")
    regressions = sum(row["regressed"] for row in report)
    tolerance = KINDS[kind].tolerance
    if args.report:
        with open(args.report, "w") as f:
            json.dump({"bench": kind, "tolerance": tolerance,
                       "regressions": regressions, "ok": regressions == 0,
                       "rows": report}, f, indent=2)
            f.write("\n")

    if regressions:
        print(f"bench_gate: FAIL: {regressions} gated metric(s) of {kind} "
              f"regressed or went missing vs {args.baseline}:",
              file=sys.stderr)
        for row in report:
            if row["regressed"]:
                change = ("" if row["baseline"] is None else
                          f" {row['baseline']} -> {fmt_value(row['current'])}")
                print(f"  {row['key']}: {row['metric']}{change}",
                      file=sys.stderr)
        print("bench_gate: if this change intentionally trades this perf "
              "away, re-run the bench with the CI invocation and commit the "
              "fresh JSON over the baseline file (see tools/bench_gate.py "
              "docstring).", file=sys.stderr)
        return 1
    print(f"bench_gate: OK: no gated metric of {kind} regressed past its "
          f"tolerance ({100 * tolerance:g}% unless the metric sets its own) "
          f"vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
