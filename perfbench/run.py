#!/usr/bin/env python3
"""Adaptation-cycle benchmark for orcastream.

Builds the benchmark (perfbench/CMakeLists.txt, an optimized build of the
orcastream libraries plus the `adaptbench` driver) under .bench_build/ in
the checkout, runs one workload and relays its output. The last line of
standard output is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload fleet_metrics --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload failure_storm --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --smoke     # statistics tests + every workload, briefly

See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_metrics", "failure_storm", "scope_churn")
# A run measures --seconds, plus set-up, checks and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 2


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def call(args, timeout):
    """Runs a build step with its output on stderr; dies on failure."""
    try:
        subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        die("build step failed: %s" % error)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "orca",
                                            "orca_service.h"))):
        die("orcastream sources not found beside perfbench/ in %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", BUILD, "-j", jobs, "--target", "adaptbench",
          "perfbench_stats_test"], BUILD_TIMEOUT_S)


def source_commit():
    """The git commit when run from a git checkout; otherwise a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the driver; returns (exit code, stdout lines)."""
    args = [os.path.join(BUILD, "adaptbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", "1" if trace else "0", "--commit", source_commit()]
    if smoke:
        args.append("--smoke")
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(trace_dir, "%s-%d.jsonl" % (workload, seed))]
    try:
        out = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return out.returncode, out.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def smoke():
    build()
    code = subprocess.run([os.path.join(BUILD, "perfbench_stats_test")],
                          timeout=RUN_TIMEOUT_S).returncode
    ok = code == 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_workload(workload, 1, SMOKE_SECONDS, trace,
                                       smoke=True)
            result = result_of(lines)
            passed = code == 0 and result is not None and result["correct"]
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if passed else "FAILED"))
            if not passed:
                ok = False
                print("\n".join(lines[-2:]))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the statistics tests and a short smoke "
                        "run of every workload with its correctness checks")
    args = parser.parse_args()
    if args.smoke:
        smoke()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace == 1)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0 or result_of(lines) is None:
        die("%s produced no result (exit %d)" % (args.workload, code))


if __name__ == "__main__":
    main()
