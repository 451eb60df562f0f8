#!/usr/bin/env python3
"""A/B table for two sets of astribench results.

  python3 bench/astribench/compare.py --a parent*.json --b change*.json

Each file is written by `run.py --out FILE`. With several files per side,
each file's median is one sample (one run); with one file per side, its
repetitions are the samples. run_gcycles and run_cpu_gcycles are one
value per file (the segment minimum over its repetitions), so compare
them with several files per side. Samples are paired in order. Every
workload gets its own row per end-to-end metric with each side's median
and quartiles, the change of the median, and the fraction of pairs B
wins. The verdict checks the change against the metric's bound in
BENCHMARK.json:

  worse      B's median is worse than A's by more than the bound
  better     there are at least 10 pairs, B wins at least 9 in 10 of them,
             and the medians differ by more than A's own quartile spread
  same       within the bound
  unresolved A's or B's quartile spread is wider than the bound, and not
             every B sample beats (or loses to) every A sample

Exits 1 if any row is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# A gain needs at least this many A/B pairs.
MIN_PAIRS = 10


def samples(files, workload, metric):
    runs = [json.loads(Path(f).read_text()) for f in files]
    per_run = [r[workload]["values"].get(metric, []) for r in runs
               if workload in r]
    per_run = [v for v in per_run if v]
    if len(per_run) == 1:
        return per_run[0]
    return [statistics.median(v) for v in per_run]


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q = statistics.quantiles(vals, n=4)
    return med, q[0], q[2]


def verdict(a, b, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    med_a, q1_a, q3_a = spread(a)
    med_b, q1_b, q3_b = spread(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    win = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    if max(q3_a - q1_a, q3_b - q1_b) > bound * med_a:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return win, "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return win, "worse"
        return win, "unresolved"
    if worse_by > bound:
        return win, "worse"
    if len(pairs) >= MIN_PAIRS and win >= 0.9 and \
            abs(med_b - med_a) > q3_a - q1_a:
        return win, "better"
    return win, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="baseline files")
    ap.add_argument("--b", nargs="+", required=True, help="change files")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first_a = json.loads(Path(args.a[0]).read_text())
    first_b = json.loads(Path(args.b[0]).read_text())
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in first_a and w["name"] in first_b]
    if not workloads:
        print("compare: the two sets share no workload", file=sys.stderr)
        return 2

    print(f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'B wins':>7s}  verdict")
    failed = False
    for w in workloads:
        if set(first_a[w]["digest"]) != set(first_b[w]["digest"]):
            print(f"{w:16s} stats digest differs: the model changed")
        for m in spec["end_to_end"]:
            a = samples(args.a, w, m["name"])
            b = samples(args.b, w, m["name"])
            if not a or not b:
                continue
            win, v = verdict(a, b, m["bound"], m["better"] == "lower")
            failed |= v == "worse"
            med_a, q1_a, q3_a = spread(a)
            med_b, q1_b, q3_b = spread(b)
            print(f"{w:16s} {m['name']:12s} "
                  f"{med_a:12.5g} [{q1_a:.5g}, {q3_a:.5g}] "
                  f"{med_b:12.5g} [{q1_b:.5g}, {q3_b:.5g}] "
                  f"{100 * (med_b / med_a - 1):+7.2f}% {win:7.0%}  {v}"
                  f"  (bound {m['bound']:.0%} {m['unit']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
