#!/usr/bin/env python3
"""End-to-end benchmark of the poi360 simulator.

One measurement (the form BENCHMARK.json names):

    python3 e2ebench/run.py --workload session_cellular --seed 1 --seconds 20 --trace 0

builds the harness and the poi360 libraries from source into
.bench_build/e2ebench (Release), runs the harness self-tests, measures, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer metrics.

Steadiness report (runs each workload K times on seeds 1..K and prints each
end-to-end metric's median, quartiles and spread against its bound):

    python3 e2ebench/run.py --steadiness 5 [--workload NAME] [--seconds S]

Self-tests only:

    python3 e2ebench/run.py --selftest
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
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("session_cellular", "fleet_cell", "soak_churn")
SETUP_REPEATS = 15
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def selftest():
    proc = subprocess.run([BINARY, "selftest"], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    log(proc.stdout.strip())
    return proc.returncode == 0


def setup_seconds(workload, seed):
    """Median over fresh processes of: spawn -> first simulated event."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        proc = subprocess.run([BINARY, "setup", "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=True)
        at = int(proc.stdout.split()[-1])
        samples.append((at - start) / 1e9)
    return statistics.median(samples)


def measure(workload, seed, seconds, trace, echo=True):
    """One run; returns the result object (setup_s added for --trace 0)."""
    ok = selftest()
    setup = setup_seconds(workload, seed) if not trace else None
    proc = subprocess.run([BINARY, "run", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace))],
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    if not ok:
        result["correct"] = False
    return result


def steadiness(k, workloads, seconds):
    facts = subprocess.run([BINARY, "facts"], stdout=subprocess.PIPE, text=True,
                           check=True).stdout.strip()
    print("host facts:", facts)
    parsed = json.loads(facts)
    if parsed["sanitized"] or not parsed["optimized"]:
        print("REFUSED: steadiness needs an optimized, unsanitized build")
        return 1
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(1, k + 1):
            r = measure(w, seed, seconds, False, echo=False)
            if not r["correct"] or r["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (w, seed, r["correct"], r["failed"]))
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs of %s s)" % (w, k, seconds))
        for name, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print("  %-20s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %s %s"
                  % (name, med, q1, q3, spread, bound, flag))
            print("  %-20s runs: %s" % ("", " ".join("%.6g" % x for x in xs)))
    print("worst spread/bound: %.3f" % worst)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("e2ebench: build failed: %s" % e)
        return 1
    if args.selftest:
        return 0 if selftest() else 1
    if args.steadiness:
        if args.steadiness < 2:
            log("e2ebench: --steadiness needs K >= 2")
            return 2
        return steadiness(args.steadiness,
                          [args.workload] if args.workload else list(WORKLOADS), args.seconds)
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as e:
        log("e2ebench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
