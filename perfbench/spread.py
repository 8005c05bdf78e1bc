"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--out FILE]

Runs the benchmark ten times on every workload of BENCHMARK.json, with
seeds 1 to 10 and its run_seconds, one run at a time.  It prints per metric
the median and the distance between the first and third quartile as a share
of the median, next to the metric's bound, and exits 1 if any spread
reaches its bound.  With --out, every run's result and the machine facts
are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, machine_facts

RUNS = 10


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = dict(machine_facts(), run_seconds=seconds, workloads={})
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit("%s seed %d exited %d"
                         % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            print("%s seed %d: correct %s, %s" % (
                workload, seed, result["correct"],
                ", ".join("%s %.4f" % (k, v["value"])
                          for k, v in result["metrics"].items())),
                flush=True)
        record["workloads"][workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            mark = "ok" if share < bound / 3 else "WIDE"
            if share >= bound:
                steady = False
            print("  %-16s %-16s median %10.4f  spread %.4f  bound %.2f  %s"
                  % (workload, name, median, share, bound, mark), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
