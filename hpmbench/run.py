#!/usr/bin/env python3
"""Builds and runs the HPM store benchmark.

Run from the repository root:

    python3 hpmbench/run.py --workload read_mix --seed 1 --seconds 20 --trace 0
    python3 hpmbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and builds hpmbench (CMake, Release) under
.bench_build/hpmbench; later calls rebuild incrementally. Every call runs the
helper self-tests, then the workload. The last line of standard output is the
run's JSON result; the full record lands in .bench_out/. Exits non-zero, without
a result, when the build or a self-test fails, and non-zero with a result when a
correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hpmbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "hpmbench", "hpmbench_selftest"],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD_DIR, "hpmbench_selftest"),
                    "--gtest_brief=1"], check=True, stdout=sys.stderr)


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    carry no git revision."""
    digest = hashlib.sha256()
    for top in ("src", "hpmbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, \
        [w["name"] for w in spec["workloads"]]


def run_one(workload, args, rev, digest):
    cmd = [os.path.join(BUILD_DIR, "hpmbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--revision", rev, "--source-digest", digest]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"hpmbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stdout.write(out)
        log(f"hpmbench: {workload} exited {proc.returncode} without a result")
        return proc.returncode or 1
    expected, _ = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(f"hpmbench: metrics {sorted(got.items())} differ from "
            f"BENCHMARK.json {sorted(expected.items())}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        _, workloads = expected_metrics(args.trace)
        build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"hpmbench: cannot build or self-test: {e}")
        return 1
    if args.workload != "all" and args.workload not in workloads:
        log(f"hpmbench: unknown workload {args.workload}; one of {workloads}")
        return 2
    rev, digest = revision(), source_digest()
    status = 0
    for workload in workloads if args.workload == "all" else [args.workload]:
        status = max(status, run_one(workload, args, rev, digest))
    return status


if __name__ == "__main__":
    sys.exit(main())
