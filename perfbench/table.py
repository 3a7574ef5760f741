#!/usr/bin/env python3
"""Print the "where the time goes" table from traced records.

    python3 perfbench/table.py [RECORD_DIR]

Reads the traced records ``run.py --trace 1`` writes
(``perfbench/out/<workload>-s<seed>-t1.json``), one per seed, and prints a
markdown table per workload: for every span (one call site into a layer)
its median self time per run, its share of the run's wall time, the spread
of that self time over the runs (interquartile range over median), and the
number of runs. Shares are of the traced wall time: the run's wall time
less its untraced passes. Spans on concurrent client threads overlap, so a
ctrl table's shares can add up to more than 100 %. The last row of each
table is the traced wall time no layer span covers.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / med:.1%}"


def main():
    directory = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "out")
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t1.json"))):
        with open(path) as f:
            r = json.load(f)
        by_workload.setdefault(r["workload"], []).append(r)
    if not by_workload:
        sys.exit(f"table: no traced records in {directory}")
    for workload, records in by_workload.items():
        walls = [r["metrics"]["bench.wall_s"]["value"] for r in records]
        traced = [r["metrics"]["bench.traced_wall_s"]["value"] for r in records]
        print(f"\n### {workload}: {len(records)} traced runs, median wall {statistics.median(walls):.2f} s, "
              f"of which {statistics.median(traced):.2f} s traced\n")
        print("| span | calls/run | self s/run | share of traced wall | spread | runs |")
        print("|---|---:|---:|---:|---:|---:|")
        rows = {}
        for r in records:
            for row in r["layers"]:
                rows.setdefault(row["span"], []).append(row)
        for span, rs in sorted(rows.items(), key=lambda kv: -statistics.median(x["self_s"] for x in kv[1])):
            # The root, and the untraced passes, which are not looked into.
            if span in (f"bench.{workload}", "bench.untraced_pass"):
                continue
            selfs = [x["self_s"] for x in rs]
            shares = [x["self_share_of_traced"] for x in rs]
            calls = statistics.median(x["count"] for x in rs)
            print(f"| `{span}` | {calls:g} | {statistics.median(selfs):.4f} | "
                  f"{statistics.median(shares):.1%} | {spread(selfs)} | {len(rs)} |")
        unc = [r["metrics"]["obs.uncovered_pct"]["value"] for r in records]
        print(f"| (uncovered) | | | {statistics.median(unc):.2f}% | {spread(unc)} | {len(unc)} |")


if __name__ == "__main__":
    main()
