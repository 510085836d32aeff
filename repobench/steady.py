"""Steadiness check: run the benchmark as two sets of ten runs on the
same code (seeds 1-10, then 11-20) and compare, per workload and
end-to-end metric, the two medians, each set's spread (interquartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles) and the bounds in BENCHMARK.json.

    python3 repobench/steady.py [--workload W ...]

A metric passes when each set's spread is within its bound and the
second set's median is not worse than the first's by more than the
bound.  Exits 1 if any metric fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=True,
    )
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} points failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 repobench/steady.py")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        sets = []
        for index in range(2):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + index * RUNS + i
                runs.append(run_once(workload, seed, config["run_seconds"]))
                print(f"# {workload} set {index + 1} seed {seed}: "
                      f"{runs[-1]}", file=sys.stderr, flush=True)
            sets.append(runs)
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in runs] for runs in sets)
            medians = statistics.median(first), statistics.median(second)
            spreads = spread(first), spread(second)
            change = medians[1] / medians[0] - 1.0
            worse = change if metric["better"] == "lower" else -change
            passed = max(spreads) <= bound and worse <= bound
            print(f"{workload:<8} {name:<16} bound {bound:<5} "
                  f"median {medians[0]:.6g} spread {spreads[0]:.4f} | "
                  f"median {medians[1]:.6g} spread {spreads[1]:.4f} | "
                  f"change {change:+.4f}  {'PASS' if passed else 'FAIL'}",
                  flush=True)
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
