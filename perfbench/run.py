"""Benchmark of `linext`: cold jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, then runs whole rounds until S
seconds have passed (at least one round).  Untraced, the run starts with a
probe interpreter, and a round is one cold job followed by one probe; a
probe times the set-up and then the host-speed yardstick of hostspeed.py.
Each job's wall time is scaled by REFERENCE_S over the mean yardstick time
of the probes on either side of it, and each set-up time by that of its own
probe or job.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"job_s": ..., "setup_s": ..., "peak_rss_mb": ...}}

with each metric the median over the run.  Traced (--trace 1), a round is
one traced job of every workload, the named one first, plus one untraced
job of the named workload; the metrics are then the per-layer ones, as
unscaled wall times, and the spans go to .bench_out/spans-NAME-seedN.jsonl.
`--workload all` runs every workload in turn and prints one result line
each, with its name.
Exits non-zero without a result line when a job cannot run, e.g. when
src/linext is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402  (none of these imports linext)
from perfbench.hostspeed import REFERENCE_S  # noqa: E402
from perfbench.trace import self_times  # noqa: E402

BUDGET_S = 170  # a run ends, finished or not, within 180 s

# Span names; the per-layer metric of span X is `X_s`, its summed self time.
LAYER_SPANS = (
    "posets.linear_extensions", "posets.count_extensions", "posets.ideals",
    "promotion.promote", "promotion.evacuate", "promotion.dual_evacuate",
    "promotion.orbit_structure", "promotion.dihedral_order",
    "sieve.cyclic_sieving_check", "sieve.f_poly_sum", "sieve.f_poly_hook",
    "stats.wprime_poly", "stats.self_evacuating", "stats.dual_domino_tableaux",
    "stats.domino_to_selfevac", "stats.sign_balance_report",
    "hecke.evacuation_element", "hecke.divisibility_report",
    "ratfunc.character_sum", "flags.hecke_consistency",
    "chains.maximal_chains", "chains.promote_chain", "chains.evacuate_chain",
    "chains.tau_chain", "chains.self_evacuating_chains", "chains.signed_group_order",
)
# Work items handled by the calls; fixed by the inputs.
LAYER_COUNTS = (
    "posets.extensions", "posets.ideals", "promotion.words", "sieve.tableaux",
    "hecke.terms", "ratfunc.terms_summed", "flags.flags", "chains.chains",
)


class JobError(RuntimeError):
    pass


class Runner:
    def __init__(self, seed: int, deadline: float):
        self.workloads = inputs.WORKLOADS
        self.specs = {w: json.dumps(inputs.make(w, seed)) for w in self.workloads}
        self.deadline = deadline

    def child(self, workload: str, trace: int = 0, probe: bool = False) -> dict:
        cmd = [sys.executable, "-I", str(ROOT / "perfbench" / "job.py"),
               "--workload", workload, "--trace", str(trace)]
        if probe:
            cmd.append("--probe")
        left = self.deadline - monotonic()
        if left <= 0:
            raise JobError("out of time")
        try:
            proc = subprocess.run(cmd, input=self.specs[workload], capture_output=True,
                                  text=True, timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise JobError(f"{workload}: job did not finish in time") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise JobError(f"{workload}: job exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def tally(jobs) -> tuple:
    """(correct, attempted, failed) over job results, reporting on stderr."""
    correct = True
    per_workload = {}
    for job in jobs:
        w = job["workload"]
        done, lost = per_workload.get(w, (0, 0))
        per_workload[w] = (done + job["attempted"], lost + len(job["failures"]))
        for key, why in job["failures"].items():
            print(f"FAILED {w} {key}: {why}", file=sys.stderr)
        for key, problems in job["problems"].items():
            correct = False
            for p in problems:
                print(f"WRONG {w} {key}: {p}", file=sys.stderr)
    for w, (done, lost) in per_workload.items():
        print(f"{w}: {done} operations attempted, {lost} failed", file=sys.stderr)
    return (correct, sum(d for d, _ in per_workload.values()),
            sum(f for _, f in per_workload.values()))


def untraced(runner: Runner, workload: str, seconds: float, start: float) -> dict:
    probes = [runner.child(workload, probe=True)]
    jobs = []
    while not jobs or monotonic() - start < seconds:
        jobs.append(runner.child(workload))
        probes.append(runner.child(workload, probe=True))
    correct, attempted, failed = tally(jobs)
    walls, times, setups = [], [], []
    for i, job in enumerate(jobs):
        scale = 2 * REFERENCE_S / (probes[i]["yardstick_s"] + probes[i + 1]["yardstick_s"])
        walls.append(job["job_s"])
        times.append(job["job_s"] * scale)
        setups.append(job["setup_s"] * scale)
    setups += [pr["setup_s"] * REFERENCE_S / pr["yardstick_s"] for pr in probes]
    yardsticks = [pr["yardstick_s"] for pr in probes]
    print(f"{workload}: {len(jobs)} jobs, wall job_s {[round(t, 3) for t in walls]}, "
          f"median {median(walls):.4f} s; yardstick median {median(yardsticks):.4f} s "
          f"over {len(probes)} probes; scaled job_s median {median(times):.4f} s; "
          f"setup_s median of {len(setups)}", file=sys.stderr)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            "job_s": {"value": median(times), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(j["peak_rss_mb"] for j in jobs), "unit": "MB"},
        },
    }


def traced(runner: Runner, workload: str, seconds: float, start: float, seed: int) -> dict:
    order = [workload] + [w for w in runner.workloads if w != workload]
    rounds, jobs, lines = [], [], []
    while not rounds or monotonic() - start < seconds:
        r = len(rounds)
        totals = dict.fromkeys([f"{s}_s" for s in LAYER_SPANS] + list(LAYER_COUNTS), 0)
        walls = {}
        for w in order:
            job = runner.child(w, trace=1)
            jobs.append(job)
            selfs = self_times(job["spans"])
            for s in job["spans"]:
                s.update(round=r, self_s=selfs[s["id"]])
                lines.append(json.dumps(s))
                if s["parent"] is not None:
                    totals[f"{s['name']}_s"] += s["self_s"]
            for name, k in job["counts"].items():
                totals[name] += k
            calls = sum(s["end"] - s["start"] for s in job["spans"] if s["parent"] is not None)
            root = next(s for s in job["spans"] if s["parent"] is None)
            walls[w] = (job["job_s"], calls, root["self_s"])
        plain = runner.child(workload)
        jobs.append(plain)
        rounds.append(totals)
        for w, (wall, calls, own) in walls.items():
            print(f"round {r} {w}: traced job {wall:.4f} s, summed call spans {calls:.4f} s"
                  f" (within the job: {calls <= wall}), outside calls {own * 1e3:.3f} ms",
                  file=sys.stderr)
        traced_s, untraced_s = walls[workload][0], plain["job_s"]
        print(f"round {r} tracing overhead on {workload}: traced {traced_s:.4f} s vs "
              f"untraced {untraced_s:.4f} s ({traced_s - untraced_s:+.4f} s)", file=sys.stderr)

    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(line + "\n" for line in lines))
    print(f"spans: {out}", file=sys.stderr)
    correct, attempted, failed = tally(jobs)
    metrics = {}
    for name in rounds[0]:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": median(t[name] for t in rounds), "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = monotonic()
    if not (ROOT / "src" / "linext" / "__init__.py").is_file():
        print(f"no linext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.seed, start + BUDGET_S)
    if args.workload == "all":
        # one result line per workload; a traced run covers them all at once
        names = runner.workloads[:1] if args.trace else runner.workloads
    elif args.workload in runner.workloads:
        names = [args.workload]
    else:
        print(f"unknown workload {args.workload!r}; one of {runner.workloads}", file=sys.stderr)
        return 2
    for name in names:
        if name != names[0]:
            start = monotonic()
            runner.deadline = start + BUDGET_S
        try:
            runner.child(name, probe=True)  # compiles the bytecode once
            if args.trace:
                result = traced(runner, name, args.seconds, start, args.seed)
            else:
                result = untraced(runner, name, args.seconds, start)
        except JobError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
