#!/usr/bin/env python3
"""Build and run the wall-clock end-to-end benchmark of the paper's loops.

Run from the repository root:

    python3 bench_e2e/run.py --workload track --seed 1 --seconds 30 --trace 0
    python3 bench_e2e/run.py --workload all      # one row per workload
    python3 bench_e2e/run.py --selftest          # the harness's own tests

The first call configures and builds bench_e2e/ together with the wlp
library from src/ (Release) under .bench_build/e2e; later calls only
rebuild what changed.  Build output goes to stderr.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is nonzero when the sources are missing, the
build fails, a run does not finish in time, or any execution of the loop
fails its check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKLOADS = ["track", "spice"]


def run_timeout_s(seconds):
    """A traced run takes 2-3x --seconds; the set-ups add a few seconds."""
    return 120 + 4 * seconds


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: no src/ next to bench_e2e/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(3, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def run_one(exe, workload, a):
    cmd = [exe, "--workload", workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-file", os.path.join(BUILD, f"trace-{workload}-seed{a.seed}.json")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=run_timeout_s(a.seconds))
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: {workload} did not finish in {run_timeout_s(a.seconds):g} s",
              file=sys.stderr)
        return 1, ""
    return p.returncode, p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    try:
        exe = build("wlp_e2e_selftest" if a.selftest else "wlp_e2e")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    if a.selftest:
        try:
            return subprocess.run([exe], timeout=run_timeout_s(0)).returncode
        except subprocess.TimeoutExpired:
            print("bench_e2e: the self-test did not finish in time", file=sys.stderr)
            return 1

    if a.workload != "all":
        rc, out = run_one(exe, a.workload, a)
        sys.stdout.write(out)
        return rc

    # Every workload in its own process, as a single-workload run does it.
    rc, rows, total = 0, [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, out = run_one(exe, w, a)
        lines = out.strip().splitlines()
        sys.stdout.write("".join(l + "\n" for l in lines[:-2]))
        rows += lines[-2:-1]
        rc = rc or code
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if res is None:
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}/{name}"] = m
    sys.stdout.write("".join(r + "\n" for r in rows))
    print(json.dumps(total))
    return rc


if __name__ == "__main__":
    sys.exit(main())
