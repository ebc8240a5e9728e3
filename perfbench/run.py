#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --latency-limit-ms L --workload NAME --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
hsbp library and the perfbench driver (Release) under .bench_build/; later
runs rebuild only what changed. Build output goes to stderr; stdout carries
the driver's lines, the last of which is the result object. The result's
metric names are checked against BENCHMARK.json. Every option but
--self-test is required: BENCHMARK.json's command supplies
--latency-limit-ms, the caller the rest.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(targets, tests=False):
    """Configures (once) and builds `targets`; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
        steps = [configure,
                 ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", *targets]]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return False
    return True


def source_fingerprint():
    """A hash of the sources the benchmark builds. The checkout it runs in
    need not be a git repository, and the same tree gives the same hash
    whether it is one or not."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("the result has the wrong keys")
        return False
    metrics = result["metrics"]
    bad = [name for name, metric in metrics.items()
           if not isinstance(metric.get("value"), (int, float))
           or not math.isfinite(metric["value"])]
    if bad:
        log(f"metrics without a finite value: {bad}")
        return False
    expected = expected_metrics(trace)
    if set(metrics) != expected:
        log(f"missing metrics {sorted(expected - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - expected)}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--latency-limit-ms", type=float)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the helpers")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_tests"], tests=True):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_tests")]).returncode
    missing = [name for name in ("workload", "seed", "seconds", "trace",
                                 "latency_limit_ms")
               if getattr(args, name) is None]
    if missing:
        parser.error("missing " + ", ".join(
            "--" + name.replace("_", "-") for name in missing))
    if not build(["perfbench"]):
        return 1

    env = dict(os.environ, PERFBENCH_COMMIT=source_fingerprint())
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--latency-limit-ms", str(args.latency_limit_ms),
               "--work-dir", os.path.relpath(os.path.join(BUILD_ROOT, "work"),
                                             ROOT),
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    # Its own process group, so a timeout also stops the driver's
    # out-of-core children.
    driver = subprocess.Popen(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        log("the driver did not finish in time")
        return 1
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if driver.returncode != 0 or not lines or not valid_result(lines[-1],
                                                               args.trace):
        log(f"the driver failed (exit {driver.returncode})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
