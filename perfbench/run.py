#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of sim-nw, archive, serve-hot; `all` runs every workload, untraced and traced, each in its own process. The benchmark
is built from source with dune (no shared dune cache, so nothing is
written outside the checkout), then run; its own output is passed
through and its last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Work counts (reads, clusters, cache hits, rounds, ...) are stored under
.perfbench/counts/ and a later run with the same workload, seed, seconds
and trace setting must reproduce them exactly, or the run is reported
as not correct.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["sim-nw", "archive", "serve-hot"]
WORK_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def check_counts(name, counts):
    """True when the counts match an earlier run with the same key."""
    path = os.path.join(WORK_DIR, "counts", name + ".json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            diff = {k: (before.get(k), counts.get(k)) for k in set(before) | set(counts)
                    if before.get(k) != counts.get(k)}
            print(f"CHECK FAILED: work counts differ from an earlier run at this seed: {diff}")
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return True


def run_one(workload, seed, seconds, trace):
    """Run one workload in its own process; return its result or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {workload}: {e}", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"run.py: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        print(f"run.py: {workload}: last line is not JSON", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    counts = next((json.loads(l[len("COUNTS "):]) for l in lines if l.startswith("COUNTS ")), None)
    if counts is None or not check_counts(f"{workload}-seed{seed}-s{seconds}-t{trace}", counts):
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not build():
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    print("INFO " + json.dumps({"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}))
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # Every workload, untraced then traced; one combined result line.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}")
            result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                return 1
            total["correct"] = total["correct"] and result["correct"]
            if trace == 0:
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
