"""One child process of the benchmark: `setup`, `pass` or `trace`.

    python3 perfbench/worker.py MODE PLAN.json FORMAT

PLAN.json holds the case list written by run.py.  Each case is one
in-process call to `hopf_forge.cli.main(argv)` with stdout and stderr
captured, so it goes through parse, pipeline and render exactly as the
installed command does.  Nothing is warmed before a case is timed.  The
result is printed as one JSON line on stdout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_case(cli, case, fmt):
    """Run one case; returns (seconds, exit code, sha256 of stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"] + ["--format", fmt])
    took = time.perf_counter() - t0
    return took, code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_pass(cli, cases, fmt, tracer=None):
    """Every case once; the pass time is the sum of the case times, so the
    harness's own work between cases is not counted."""
    times, codes, digests = [], [], []
    for case in cases:
        took, code, digest = run_case(cli, case, fmt)
        if tracer is not None:
            tracer.end_case()
        times.append(took)
        codes.append(code)
        digests.append(digest)
    return {"seconds": sum(times), "format": fmt,
            "times": times, "codes": codes, "digests": digests}


def setup(plan, _fmt):
    """Import hopf_forge and parse every input of the workload once, then
    time the speed probe in the same process: it scales this setup time
    and the passes on either side of this process."""
    from hopf_forge import cli  # noqa: F401
    from hopf_forge.definition import load_definition
    for path in sorted({case["input"] for case in plan["cases"]}):
        load_definition(path)
    seconds = time.perf_counter() - START
    from probe import probe
    return {"seconds": seconds, "probe": probe()}


def one_pass(plan, fmt):
    """One timed pass over the case list, then this process's peak RSS."""
    from hopf_forge import cli
    result = run_pass(cli, plan["cases"], fmt)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def trace(plan, _fmt):
    """One untraced pass, then the same pass traced, both in text."""
    from hopf_forge import cli
    from tracer import Tracer
    plain = run_pass(cli, plan["cases"], "text")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, plan["cases"], "text", tracer)
    finally:
        tracer.uninstall()
    return {"plain": plain, "traced": traced, "layers": tracer.metrics(),
            "edges": tracer.edge_list()}


def main(argv):
    mode, plan_path, fmt = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import hopf_forge
    src = os.path.realpath(os.path.join("src", "hopf_forge"))
    if os.path.dirname(os.path.realpath(hopf_forge.__file__)) != src:
        print("hopf_forge imported from %s, not from ./src"
              % hopf_forge.__file__, file=sys.stderr)
        return 2
    result = {"setup": setup, "pass": one_pass, "trace": trace}[mode](plan,
                                                                    fmt)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
