#!/usr/bin/env python3
"""Alternating perfbench pairs: a base checkout against a candidate.

Runs `perfbench/run.py` in each checkout in turn, --pairs times, swapping
which side goes first on every pair, and prints per end-to-end metric the
median and quartiles of each side, the change of the medians, the pairs
the candidate won, and whether the quartile rule holds:

  the candidate wins at least 9 of every 10 pairs, and its median beats the
  base's by more than the base's interquartile range (Q3 - Q1, from
  statistics.quantiles(n=4)).

Metric names and their better direction come from BENCHMARK.json at the
root of this repository. Usage, from anywhere:

  tools/perf_pairs.py --base ../parent --candidate . \\
      --workload drift-refresh --seed 5 --seconds 60 --pairs 10 \\
      [--json pairs.json]

Both checkouts build their own perfbench on first use (.bench_build/).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_directions(path):
    """{metric: "higher"|"lower"} of BENCHMARK.json's end-to-end metrics."""
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_perfbench(checkout, workload, seed, seconds):
    """One untraced perfbench run; returns {metric: value}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"perfbench output check failed in {checkout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(base, cand, better):
    """Pairs in which the candidate is strictly better."""
    if better == "higher":
        return sum(c > b for b, c in zip(base, cand))
    return sum(c < b for b, c in zip(base, cand))


def quartile_rule(base, cand, better):
    """True when the candidate wins >= 9/10 of the pairs and its median
    beats the base's by more than the base's interquartile range."""
    n = len(base)
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(cand)
    gain = cm - bm if better == "higher" else bm - cm
    return wins(base, cand, better) >= math.ceil(0.9 * n) and gain > b3 - b1


def summarize(pairs, directions):
    """Per-metric rows from [(base_metrics, cand_metrics), ...]."""
    rows = []
    for name, better in directions.items():
        base = [b[name] for b, _ in pairs if name in b]
        cand = [c[name] for _, c in pairs if name in c]
        if not base or len(base) != len(cand):
            continue
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(cand)
        rows.append({
            "metric": name, "better": better,
            "base": [b1, bm, b3], "candidate": [c1, cm, c3],
            "change": (cm - bm) / bm if bm else 0.0,
            "wins": wins(base, cand, better), "pairs": len(base),
            "rule_met": quartile_rule(base, cand, better),
        })
    return rows


def print_table(rows):
    out = sys.stdout
    out.write("| metric | base median [Q1, Q3] | candidate median [Q1, Q3] "
              "| change | wins | quartile rule |\n|---|---|---|---|---|---|\n")
    for r in rows:
        b1, bm, b3 = r["base"]
        c1, cm, c3 = r["candidate"]
        out.write(f"| `{r['metric']}` | {bm:.5g} [{b1:.5g}, {b3:.5g}] | "
                  f"{cm:.5g} [{c1:.5g}, {c3:.5g}] | {100 * r['change']:+.1f}% "
                  f"| {r['wins']}/{r['pairs']} | "
                  f"{'met' if r['rule_met'] else '-'} |\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base checkout")
    parser.add_argument("--candidate", required=True,
                        help="candidate checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--json", help="write every run and the summary here")
    args = parser.parse_args(argv)
    directions = load_directions(os.path.join(ROOT, "BENCHMARK.json"))

    pairs = []
    for i in range(args.pairs):
        order = ["base", "candidate"] if i % 2 == 0 else ["candidate", "base"]
        got = {}
        for side in order:
            checkout = args.base if side == "base" else args.candidate
            got[side] = run_perfbench(checkout, args.workload, args.seed,
                                      args.seconds)
        pairs.append((got["base"], got["candidate"]))
        sys.stderr.write(f"pair {i + 1}/{args.pairs} done\n")

    rows = summarize(pairs, directions)
    print_table(rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "runs": pairs,
                       "summary": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
