"""Compares two result sets of the benchmark, a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --trace 0 --out FILE`` appends,
one per run.  Make the runs in alternating pairs, parent then change
and change then parent, with the same seeds and ``--seconds`` on both
sides; the i-th record of a workload in one file pairs with the i-th in
the other.

For every workload and end-to-end metric the verdict is:

better        the change wins at least 9 of every 10 pairs (ties count
              for neither side, and at least 10 pairs are needed) and
              the medians differ by more than the parent's interquartile
              spread;
unresolved    otherwise, when the parent's spread exceeds the metric's
              bound, unless every change run beats every parent run;
worse         otherwise, when the change's median is worse than the
              parent's by more than the bound;
within bound  otherwise.

The fail ratio (failed jobs over attempted jobs) of each side is shown
too, and any change in it is flagged.  Exits with 1 when a verdict is
``worse`` or the change fails more jobs than the parent.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

from run import tail

MIN_PAIRS = 10


def load(path: str) -> dict:
    by_workload = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload[rec["workload"]].append(rec)
    return by_workload


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list, change: list, pairs: list, bound: float,
            lower_better: bool) -> str:
    sign = 1 if lower_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (mc - mp) < 0 and abs(mc - mp) > q3 - q1):
        return "better"
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if (q3 - q1) / mp > bound and not all_better:
        return "unresolved"
    if sign * (mc - mp) > bound * mp:
        return "worse"
    return "within bound"


def main() -> int:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get(workload, []), change.get(workload, [])
        print(f"{workload}: {len(p_recs)} parent runs, {len(c_recs)} change runs")
        if not (p_recs and c_recs):
            print("  missing on one side")
            continue
        fails = []
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            fails.append(failed / attempted)
            samples = [j["verdict_s"] for r in recs for j in r["jobs"]
                       if j["problem"] is None]
            print(f"  {side} fail_ratio {failed}/{attempted}; job verdict_s "
                  f"{tail(samples) if samples else 'none'}")
        if fails[1] != fails[0]:
            print(f"  fail_ratio changed: {fails[0]:.4f} -> {fails[1]:.4f}")
        regressed |= fails[1] > fails[0]
        for m in metrics:
            name = m["name"]

            def value(rec: dict) -> float:
                return rec["metrics"][name]["value"]

            p = [value(r) for r in p_recs if r["correct"]]
            c = [value(r) for r in c_recs if r["correct"]]
            if not (p and c):
                print(f"  {name}: no correct runs on one side")
                regressed = True
                continue
            pairs = [(value(a), value(b)) for a, b in zip(p_recs, c_recs)
                     if a["correct"] and b["correct"]]
            v = verdict(p, c, pairs, m["bound"], m["better"] == "lower")
            regressed |= v == "worse"
            (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
            print(f"  {name:12s} parent {statistics.median(p):.4f} "
                  f"[{pq1:.4f}, {pq3:.4f}]  change {statistics.median(c):.4f} "
                  f"[{cq1:.4f}, {cq3:.4f}] {m['unit']}  "
                  f"pairs {len(pairs)}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
