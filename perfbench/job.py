"""One cold job in a fresh interpreter; started by run.py, not by hand.

Reads the workload's seeded input data as JSON on stdin, then times
  setup: importing `linext` and building the workload's inputs, and
  job:   the workload's calls into `linext`, one after another,
reads the interpreter's peak resident memory, and only then checks every
answer.  Prints one JSON line with the measurements and the check results.
With --probe it times the set-up and then the host-speed yardstick instead.

    python3 -I perfbench/job.py --workload NAME --trace 0|1 [--probe]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# imported before the set-up clock starts, so only linext counts in setup_s
from perfbench import hostspeed, reference, trace  # noqa: E402,F401


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    spec = json.loads(sys.stdin.read())

    t0 = perf_counter()
    from perfbench import workloads  # imports linext

    ops = workloads.BUILDERS[args.workload](spec)
    setup_s = perf_counter() - t0

    import linext

    if Path(linext.__file__).resolve().parent != ROOT / "src" / "linext":
        print(f"linext imported from {linext.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "yardstick_s": hostspeed.measure()}))
        return 0

    tracer = trace.Tracer(args.workload, bool(args.trace))
    answers = {}
    failures = {}
    t1 = perf_counter()
    with tracer.root("job"):
        for op in ops:
            try:
                answers[op.key] = tracer.call(op.layer, op.key, op.run, answers)
            except Exception as exc:  # a failed call is counted, not fatal
                failures[op.key] = repr(exc)
    job_s = perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = {}
    counts = {}
    for op in ops:
        if op.key in failures:
            continue
        try:
            found = op.check(answers[op.key], answers)
        except workloads.Missing as exc:
            failures[op.key] = f"needs the answer of {exc}"
            continue
        except Exception as exc:  # a check that cannot read the answer rejects it
            found = [f"check raised {exc!r}"]
        if found:
            problems[op.key] = found
        if op.count:
            name, fn = op.count
            counts[name] = counts.get(name, 0) + fn(answers[op.key])

    for s in tracer.spans:
        s["start"] -= t1
        s["end"] -= t1
    print(json.dumps({
        "workload": args.workload,
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "problems": problems,
        "counts": counts,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
