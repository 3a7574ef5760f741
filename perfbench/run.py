#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn and ends with one summary
over all of them.

Builds ``perfbench`` (release) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), runs ``zlbench`` with the same arguments, and passes its
standard output through, so the last line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``. The detailed record goes
to ``perfbench/out/<workload>-s<seed>-t<trace>.json`` together with the host
fingerprint (nproc, CPU model, ``rustc -V``, source commit or digest, build
profile); ``perfbench/compare.py`` refuses to compare records whose
fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fleet", "paging", "ctrl-rack", "ctrl-fleet")
# One run must end within 180 s; the first build of a checkout may take
# longer and is not counted against a run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_quiet(cmd, **kw):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kw)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds: every file under
    crates/ and perfbench/src, plus the manifests. Stands in for the commit
    in checkouts that are not git repositories."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            paths += [os.path.join(dirpath, f) for f in filenames]
    for extra in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        paths.append(os.path.join(ROOT, extra))
    for path in sorted(paths):
        rel = os.path.relpath(path, ROOT)
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # Only a repository rooted at this checkout names its commit.
    top = run_quiet(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    same = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = run_quiet(["git", "rev-parse", "HEAD"], cwd=ROOT) if same else None
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": run_quiet(["rustc", "-V"]) or "unknown",
        "commit": commit or "none",
        "source_digest": source_digest(),
        "profile": "release",
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    except OSError as e:
        fail(f"cannot run cargo: {e}", 3)
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})", 3)


def run_one(exe, workload, args):
    """Runs one workload; returns its output lines (the summary last)."""
    record = os.path.join(OUT, f"{workload}-s{args.seed}-t{args.trace}.json")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", record]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} timed out", 4)
    if proc.returncode != 0:
        fail(f"zlbench exited with {proc.returncode} on {workload}", 4)
    lines = out.rstrip("\n").split("\n")
    try:
        summary = json.loads(lines[-1])
    except (ValueError, IndexError):
        summary = None
    if not isinstance(summary, dict) or "metrics" not in summary:
        fail(f"zlbench printed no summary for {workload}", 4)
    try:
        with open(record) as f:
            detail = json.load(f)
        detail["fingerprint"] = fingerprint()
        with open(record, "w") as f:
            json.dump(detail, f, indent=2)
            f.write("\n")
    except (OSError, ValueError) as e:
        print(f"perfbench: could not annotate {record}: {e}", file=sys.stderr)
    return lines, summary


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; run from a full checkout", 3)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    env["CARGO_TARGET_DIR"] = target
    build(env)
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(target, "release", "zlbench")

    if args.workload != "all":
        lines, _ = run_one(exe, args.workload, args)
        print("\n".join(lines))
        return
    # Every workload in turn, then one summary over all of them.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, summary = run_one(exe, workload, args)
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        for name, m in summary["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
