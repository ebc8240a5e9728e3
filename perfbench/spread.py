#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs the BENCHMARK.json command once per seed on each workload, untraced,
and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound. Raw results go to .bench_build/spread/. Run from the root
of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.time()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: failed (exit "
                      f"{done.returncode})\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["lines"] = lines[:-1]
            runs.append(result)
            print(f"{workload} seed {seed}: {time.time() - started:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
            if result["failed"]:
                detail = json.loads(result["lines"][-1])["detail"]
                print(f"  failures: {detail['failures']}", file=sys.stderr,
                      flush=True)
        results[workload] = runs
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            values = [run["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third"
            print(f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bounds[name]:>6.2f}{flag}")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(out_dir, f"spread-{stamp}.json"), "w") as handle:
        json.dump(results, handle)
    print(f"\nworst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
