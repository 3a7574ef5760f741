#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fleet,paging --seeds 1-10 [--trace 0]

For every workload and end-to-end metric this prints the median of the
per-run values, their interquartile range over the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound
from BENCHMARK.json, and flags a spread above a third of the bound. The
per-run summaries and the table go to ``perfbench/out/spread-<stamp>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = {}
    table = []
    for w in args.workloads.split(","):
        runs[w] = []
        for s in seeds(args.seeds):
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(s),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.time()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t
            if r.returncode != 0:
                print(f"{w} seed {s}: exit {r.returncode}\n{r.stderr[-2000:]}", file=sys.stderr)
                sys.exit(1)
            summary = json.loads(r.stdout.strip().split("\n")[-1])
            summary["wall_s"] = wall
            runs[w].append(summary)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in summary["metrics"].items())
            print(f"{w} seed {s} ({wall:.1f}s) correct={summary['correct']} {vals}", flush=True)
        for name in runs[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            spread = None
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = ""
            if spread is not None and bound and spread > bound / 3:
                flag = "  <-- above bound/3"
            table.append({"workload": w, "metric": name, "median": med, "spread": spread,
                          "bound": bound, "runs": len(values)})
            print(f"  {w:<11} {name:<34} median {med:>14.6g}  spread "
                  f"{'-' if spread is None else f'{spread:.3f}'}  bound {bound}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"table": table, "runs": runs}, f, indent=2)
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
