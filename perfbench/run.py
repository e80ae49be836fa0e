#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of this repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds perfbench/main.exe with dune (into .bench_build/),
runs one workload and relays its output.  The last stdout line is the
JSON result; the line before it is the host descriptor.  The metric
names and units in the result are checked against BENCHMARK.json.

--self-check runs every workload at a small size on two seeds, untraced
and traced, and fails unless every run is correct.

Exit codes: 0 = all checks passed, 1 = a correctness check failed,
2 = the build or the run could not complete, 3 = malformed result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SELF_CHECK_SEEDS = (1, 90001)


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, "build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail(2, "build failed (dune exit %d)" % r.returncode)


def run_exe(args):
    """Run main.exe; return (exit code, stdout lines)."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                           universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, "run failed: %s" % e)
    return r.returncode, r.stdout.splitlines()


def validate(lines, expected):
    """Parse and check the host line and the result line; return both."""
    if len(lines) < 2:
        return None, None, "no result printed"
    try:
        host = json.loads(lines[0])
        result = json.loads(lines[-1])
    except ValueError as e:
        return None, None, "unparseable output: %s" % e
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, None, "result keys %s" % sorted(result)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        return None, None, "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    if result["attempted"] < 1 or not isinstance(result["correct"], bool):
        return None, None, "bad attempted/correct fields"
    if result["correct"] != (result["failed"] == 0):
        return None, None, "correct disagrees with failed"
    host["host"]["nproc"] = len(os.sched_getaffinity(0))
    return host, result, None


def run_one(spec, workload, seed, seconds, trace, size="full"):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    code, lines = run_exe(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--size", size])
    host, result, err = validate(lines, expected)
    if err is not None:
        for line in lines:
            print(line, file=sys.stderr)
        fail(3 if code == 0 else 2, "%s (exit %d)" % (err, code))
    return code, lines, host, result


def self_check(spec):
    bad = 0
    for w in spec["workloads"]:
        for seed in SELF_CHECK_SEEDS:
            for trace in (0, 1):
                code, _, _, result = run_one(spec, w["name"], seed, 0.5, trace,
                                             size="small")
                ok = code == 0 and result["correct"] and result["failed"] == 0
                bad += not ok
                print("%-4s %-14s seed=%-6d trace=%d attempted=%d failed=%d" % (
                    "ok" if ok else "FAIL", w["name"], seed, trace,
                    result["attempted"], result["failed"]))
    print("self-check: %s" % ("passed" if bad == 0 else "%d runs failed" % bad))
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    if a.self_check:
        build()
        sys.exit(self_check(spec))
    if a.workload is None or a.seed is None or a.seconds is None:
        fail(2, "--workload, --seed and --seconds are required")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload %s" % a.workload)
    build()
    code, lines, host, _ = run_one(spec, a.workload, a.seed, a.seconds, a.trace)
    for line in lines[1:-1]:
        print(line)
    print(json.dumps(host, separators=(",", ":")))
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
