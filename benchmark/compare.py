#!/usr/bin/env python3
"""Compare two sets of benchmark records against the BENCHMARK.json bounds.

Usage:
    benchmark/compare.py A/ B/ [--bench BENCHMARK.json]

A and B are --out directories of benchmark/run.sh (records named
<workload>-seed<N>-trace0.json; --smoke records are ignored), typically the
parent commit as A and the
change as B, run alternately on one host. For every (workload, end-to-end
metric) pair it prints the median of each side over its records and one
verdict:

  ok          B is not worse than A by more than the metric's bound
  regressed   B is worse than A by more than the bound
  unresolved  the pair cannot be judged: the sides' host.calib_s differ by
              more than 10% (host drift), or a side's own spread (IQR over
              median of its records) exceeds the bound and not every run
              of B reads better than every run of A

Exit status: 0 when no pair regressed and every record is correct, 1
otherwise, 2 on usage errors.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HOST_DRIFT = 0.10


def load_records(directory):
    """End-to-end records by workload; --smoke records are left out."""
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record["smoke"]:
            records.setdefault(record["workload"], []).append(record)
    return records


def spread(values):
    """Interquartile range over median; 0 with fewer than two values.

    Quartiles interpolate between the values ("inclusive"), so that a side
    with only two or three records is not judged by quartiles that lie
    outside its own range.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def host_calib(records):
    return statistics.median(
        value for record in records for value in record["host_calib_s"])


def judge(metric, a_values, b_values, drift):
    """Returns (relative change of B against A, verdict)."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    lower_better = metric["better"] == "lower"
    change = (b - a) / a if a else 0.0
    worse = change if lower_better else -change
    if drift:
        return change, "unresolved (host drift)"
    if lower_better:
        b_always_better = max(b_values) < min(a_values)
    else:
        b_always_better = min(b_values) > max(a_values)
    noisy = max(spread(a_values), spread(b_values)) > metric["bound"]
    if noisy and not b_always_better:
        return change, "unresolved (spread above bound)"
    return change, "regressed" if worse > metric["bound"] else "ok"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="baseline records (e.g. parent commit)")
    parser.add_argument("b", help="candidate records (e.g. the change)")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    side_a, side_b = load_records(args.a), load_records(args.b)
    if not side_a or not side_b:
        print("compare: no *-trace0.json records in one of the directories",
              file=sys.stderr)
        return 2

    failed = False
    for side, records in (("A", side_a), ("B", side_b)):
        for workload, recs in records.items():
            for record in recs:
                if not record["correct"]:
                    failed = True
                    print(f"FAILED {side} {workload} seed {record['seed']}: "
                          f"{record['failed']} of {record['attempted']} "
                          f"cells: {record['failures'][:3]}")

    print(f"{'workload':<18} {'metric':<18} {'A median':>12} "
          f"{'B median':>12} {'change':>8}  verdict")
    regressed = False
    for workload in sorted(set(side_a) & set(side_b)):
        a_recs, b_recs = side_a[workload], side_b[workload]
        calib_a, calib_b = host_calib(a_recs), host_calib(b_recs)
        drift = abs(calib_b / calib_a - 1.0) > HOST_DRIFT
        for metric in metrics:
            name = metric["name"]
            a_values = [r["metrics"][name]["value"] for r in a_recs
                        if name in r["metrics"]]
            b_values = [r["metrics"][name]["value"] for r in b_recs
                        if name in r["metrics"]]
            if not a_values or not b_values:
                continue
            change, verdict = judge(metric, a_values, b_values, drift)
            regressed = regressed or verdict == "regressed"
            print(f"{workload:<18} {name:<18} "
                  f"{statistics.median(a_values):>12.6g} "
                  f"{statistics.median(b_values):>12.6g} "
                  f"{change:>+8.1%}  {verdict}")
        print(f"{workload:<18} {'host.calib_s':<18} {calib_a:>12.6g} "
              f"{calib_b:>12.6g} {calib_b / calib_a - 1.0:>+8.1%}  "
              f"(n = {len(a_recs)} / {len(b_recs)} records)")
    for workload in sorted(set(side_a) ^ set(side_b)):
        print(f"{workload:<18} only in {'A' if workload in side_a else 'B'}")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
