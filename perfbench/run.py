"""hopf-forge benchmark: time to verdict, peak memory and report fidelity.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads: structure-ladder, s-deformed, confluence, pairing (see
workloads.py for each case and why it is there).  The seed only chooses the
s-deformed change of basis.

With --trace 0 the end-to-end metrics are measured with tracing off:
  setup_s          median over fresh processes (3 before the first pass,
                   then one after every pass) of importing hopf_forge
                   (compiled from source, no bytecode cache) and parsing
                   every input of the workload once, scaled by machine speed
  verdict_s        median over passes (at least 3) of the time of one
                   pass over the case list (closed loop, one client; each
                   pass runs in a fresh process, since timings vary more
                   from process to process than from pass to pass).  Passes
                   repeat until the next one would end more than --seconds
                   after the run started, set-up included.
  slowest_case_s   the largest per-case median over passes
  peak_rss_mb      the largest ru_maxrss of the pass processes
  case_pass_share  share of case runs whose exit code matches the case
                   table and whose report bytes match the pinned golden
The shared host's speed drifts by up to a third within minutes, and it
drifts for the program and for a fixed kernel of exact arithmetic alike.
So every setup process runs the speed probe of probe.py right after its
timed setup.  Each setup time is scaled by PROBE_NOMINAL / its probe time,
and each pass time by PROBE_NOMINAL / the mean probe time of the setup
processes just before and just after the pass; stderr shows the raw wall
times and the probe times as well.
With --trace 1, two fresh processes each run an untraced and a traced pass
in text (whatever --seconds says) and the per-layer metrics of tracer.py
are reported, with trace.overhead_ratio = traced / untraced pass time.  The
traced reports must equal the untraced ones and the pinned golden, and
every count and ratio must repeat exactly between the two processes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A summary and the machine facts go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join("perfbench", "_work")
INPUTS = os.path.join(WORK, "inputs")
SETUP_FIRST = 3        # setup processes before the first pass
MIN_PASSES = 3
# The speed probe's usual time on the reference VM (2 vCPUs, CPython
# 3.11.7); scaled times read as seconds on that VM at its usual speed.
PROBE_NOMINAL = 0.055
DEADLINE = 170          # seconds for the whole run
HARD_PASS_START = 100   # no pass starts later than this into a run
COUNT_UNITS = ("count", "ratio")


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def machine_facts():
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def child(started, script, *args):
    """Run a benchmark script in a fresh process; return its JSON result."""
    left = DEADLINE - (time.monotonic() - started)
    if left <= 0:
        fail("out of time before %s %s" % (script, " ".join(args[:1])))
    # Modules are always compiled from source: the bytecode cache goes to
    # a directory that is never written, so setup_s does not depend on
    # whether an earlier process left .pyc files behind.
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=os.path.abspath(
                   os.path.join(WORK, "no-pycache")))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script)] + list(args),
            capture_output=True, text=True, env=env, timeout=left)
    except subprocess.TimeoutExpired:
        fail("%s %s did not finish in time" % (script, " ".join(args[:1])))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s %s exited %d" % (script, " ".join(args[:1]),
                                  proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def grade(case_list, golden, result):
    """Ids of the cases in one pass whose exit code differs from the case
    table or whose report bytes differ from the pinned golden."""
    off = []
    for case, code, digest in zip(case_list, result["codes"],
                                  result["digests"]):
        pinned = golden["reports"].get(case["id"], {}).get(result["format"])
        if code != case["expect"] or digest != pinned:
            off.append(case["id"])
    return off


def measure(plan_path, seconds, started):
    """Closed loop, one client: whole passes over the case list, each in a
    fresh process, until the next pass would end more than `seconds` after
    `started`.  Passes alternate between text and JSON reports; there are
    at least MIN_PASSES.  SETUP_FIRST setup processes run before the first
    pass and one after every pass; each pass gets the scale PROBE_NOMINAL /
    (mean probe time of the setup processes around it).  Returns the setup
    results and the pass results."""
    setups = [child(started, "worker.py", "setup", plan_path, "text")
              for _ in range(SETUP_FIRST)]
    passes, walls = [], []
    while True:
        t1 = time.monotonic()
        fmt = ("text", "json")[len(passes) % 2]
        result = child(started, "worker.py", "pass", plan_path, fmt)
        setups.append(child(started, "worker.py", "setup", plan_path, "text"))
        result["probes"] = [setups[-2]["probe"], setups[-1]["probe"]]
        result["scale"] = PROBE_NOMINAL * 2 / sum(result["probes"])
        passes.append(result)
        walls.append(time.monotonic() - t1)
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and (
                elapsed + statistics.median(walls) > seconds
                or elapsed > HARD_PASS_START):
            return setups, passes


def end_to_end(case_list, golden, plan_path, seconds, started):
    setups, passes = measure(plan_path, seconds, started)
    setup_times = [s["seconds"] * PROBE_NOMINAL / s["probe"] for s in setups]
    bad = ["%s --format %s" % (case_id, p["format"])
           for p in passes for case_id in grade(case_list, golden, p)]
    attempted = len(passes) * len(case_list)
    raw_times = [p["seconds"] for p in passes]
    pass_times = [p["seconds"] * p["scale"] for p in passes]
    case_medians = [statistics.median(p["times"][k] * p["scale"]
                                      for p in passes)
                    for k in range(len(case_list))]
    slowest = max(range(len(case_list)), key=lambda k: case_medians[k])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_s": (statistics.median(pass_times), "s"),
        "slowest_case_s": (case_medians[slowest], "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "case_pass_share": ((attempted - len(bad)) / attempted, "share"),
    }
    summary = [
        "setup_s over %d processes: %s; raw %s; probes %s"
        % (len(setups), fmt_list(setup_times),
           fmt_list([s["seconds"] for s in setups]),
           fmt_list([s["probe"] for s in setups])),
        "pass wall times %s; scales %s"
        % (fmt_list(raw_times), fmt_list([p["scale"] for p in passes])),
        "verdict_s over %d passes: %s; quartiles %s"
        % (len(passes), fmt_list(pass_times),
           fmt_list(statistics.quantiles(pass_times, n=4,
                                         method="inclusive"))),
        "slowest case: %s" % case_list[slowest]["id"],
    ]
    summary += ["  %8.4f s  %s" % (t, c["id"])
                for t, c in zip(case_medians, case_list)]
    return metrics, attempted, bad, [], summary


def per_layer(workload, case_list, golden, plan_path, started):
    runs = [child(started, "worker.py", "trace", plan_path, "text")
            for _ in range(2)]
    bad = []
    for run in runs:
        plain, traced = run["plain"], run["traced"]
        bad += ["%s (untraced)" % c for c in grade(case_list, golden, plain)]
        off = set(grade(case_list, golden, traced))
        off.update(case["id"] for case, a, b in zip(
            case_list, plain["digests"], traced["digests"]) if a != b)
        bad += ["%s (traced)" % c for c in sorted(off)]
    from tracer import LAYER_METRICS
    metrics, problems = {}, []
    for name, (unit, _source) in LAYER_METRICS.items():
        values = [run["layers"][name] for run in runs]
        if unit in COUNT_UNITS and values[0] != values[1]:
            problems.append("%s differs between the traced runs: %s"
                            % (name, values))
        metrics[name] = (values[0] if values[0] == values[1]
                         else statistics.median(values), unit)
    plain = statistics.median(run["plain"]["seconds"] for run in runs)
    traced = statistics.median(run["traced"]["seconds"] for run in runs)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    spans = os.path.join(WORK, "spans-%s.json" % workload)
    with open(spans, "w", encoding="utf-8") as fh:
        json.dump([run["edges"] for run in runs], fh, indent=1)
    summary = ["untraced %.4f s, traced %.4f s per pass; spans by parent in "
               "%s" % (plain, traced, spans)]
    return metrics, 4 * len(case_list), bad, problems, summary


def fmt_list(values):
    return "[" + ", ".join("%.4f" % v for v in values) + "]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "hopf_forge", "cli.py")):
        fail("run from the root of a hopf-forge checkout (no src/hopf_forge)")
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; known: %s"
             % (args.workload, ", ".join(workloads.WORKLOADS)))
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    case_list = workloads.build_workload(args.workload, args.seed, INPUTS)
    bad_inputs = []
    for case in case_list:
        with open(case["input"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if golden["inputs"].get(case["stem"]) != digest:
            bad_inputs.append(case["stem"])
    plan_path = os.path.join(WORK, "plan-%s-%d.json"
                             % (args.workload, os.getpid()))
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"cases": case_list}, fh, indent=1)
    try:
        if args.trace:
            metrics, attempted, bad, problems, summary = per_layer(
                args.workload, case_list, golden, plan_path, started)
        else:
            metrics, attempted, bad, problems, summary = end_to_end(
                case_list, golden, plan_path, args.seconds, started)
    finally:
        os.remove(plan_path)
    problems += ["input %s differs from the pinned one" % s
                 for s in sorted(set(bad_inputs))]

    facts = machine_facts()
    print("perfbench %s seed %d: nproc %s, CPython %s, commit %s"
          % (args.workload, args.seed, facts["nproc"], facts["python"],
             facts["commit"]), file=sys.stderr)
    for line in summary + ["FAILED: %s" % b for b in bad + problems]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not bad and not problems,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
