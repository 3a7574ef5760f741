#!/usr/bin/env python3
"""Compare two sets of benchmark records, refusing to mix hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced records ``run.py`` writes
(``<workload>-s<seed>-t0.json``; copy ``perfbench/out`` aside after each
set). Records whose host fingerprints (nproc, CPU model, ``rustc -V``, build
profile) differ are never compared: the script exits 2 naming the field.
For every workload and end-to-end metric it prints each side's median and
quartiles over the seeds, the change of the median, and whether that change
stays within the metric's bound in BENCHMARK.json.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_FIELDS = ("nproc", "cpu_model", "rustc", "profile")


def load(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as f:
            r = json.load(f)
        if "fingerprint" not in r:
            sys.exit(f"compare: {path} has no fingerprint (not written by run.py)")
        records.setdefault(r["workload"], []).append(r)
    if not records:
        sys.exit(f"compare: no untraced records in {directory}")
    return records


def host(record):
    return {k: record["fingerprint"].get(k) for k in HOST_FIELDS}


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])

    hosts = [host(r) for side in (base, new) for rs in side.values() for r in rs]
    for field in HOST_FIELDS:
        seen = {h[field] for h in hosts}
        if len(seen) > 1:
            print(f"compare: refusing to compare records from different hosts: "
                  f"{field} differs {sorted(map(str, seen))}", file=sys.stderr)
            sys.exit(2)
    commits = lambda side: sorted({r["fingerprint"].get("commit") + "/" +
                                   r["fingerprint"].get("source_digest", "")
                                   for rs in side.values() for r in rs})
    print(f"host: {hosts[0]}")
    print(f"base: {commits(base)}\nnew:  {commits(new)}")

    worse = 0
    for workload in sorted(set(base) & set(new)):
        for name, spec in metrics.items():
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            (bm, bq1, bq3), (nm, nq1, nq3) = summary(b), summary(n)
            change = (nm - bm) / bm if bm else 0.0
            regress = -change if spec["better"] == "higher" else change
            verdict = "ok"
            if regress > spec["bound"]:
                verdict, worse = "WORSE", worse + 1
            print(f"{workload:<11} {name:<18} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b)}  "
                  f"new {nm:.6g} [{nq1:.6g}, {nq3:.6g}] n={len(n)}  {change:+.1%} "
                  f"(bound {spec['bound']:.0%}) {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
