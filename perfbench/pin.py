"""Pin the golden reports: `python3 perfbench/pin.py` from the repo root.

Builds every input any seed can reach, runs every case of every workload
once in text and once in JSON, and writes the sha256 of each input and of
each report to perfbench/golden.json.  Run it only on a commit whose reports
are the reference; the benchmark then counts any other bytes as a failure.
A case whose exit code differs from the case table is not pinned: the
script stops instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import workloads  # noqa: E402
from hopf_forge import cli  # noqa: E402
from worker import run_case  # noqa: E402

INPUTS = os.path.join("perfbench", "_work", "inputs")
GOLDEN = os.path.join(HERE, "golden.json")


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    builds = []
    for workload in workloads.WORKLOADS:
        if workload == "s-deformed":
            builds += [(workload, {(name, command): index
                                   for name in workloads.DEFORMED_EXAMPLES
                                   for command in workloads.COMMANDS})
                       for index in range(workloads.DEFORM_VARIANTS)]
        else:
            builds.append((workload, None))
    inputs, reports = {}, {}
    for workload, picks in builds:
        for case in workloads.build_workload(workload, 0, INPUTS, picks):
            inputs[case["stem"]] = file_sha(case["input"])
            digests = {}
            for fmt in ("text", "json"):
                took, code, digest = run_case(cli, case, fmt)
                if code != case["expect"]:
                    sys.exit("%s --format %s exited %d, expected %d"
                             % (case["id"], fmt, code, case["expect"]))
                digests[fmt] = digest
                print("%-50s %-4s %7.3f s" % (case["id"], fmt, took),
                      flush=True)
            reports[case["id"]] = digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"inputs": dict(sorted(inputs.items())),
                   "reports": dict(sorted(reports.items()))},
                  fh, indent=1)
        fh.write("\n")
    print("pinned %d inputs and %d cases" % (len(inputs), len(reports)))


if __name__ == "__main__":
    main()
