"""Self-test of the benchmark's answer checks.

For every operation of every workload, runs the call once, requires its
checks to accept the true answer, then corrupts the answer (two entries of
a permutation swapped, one c_w doubled, one chain image replaced, ...) and
requires the checks to reject it.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Exits 1 when a check accepts a corrupted answer or rejects a true one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, workloads  # noqa: E402


def verdict(op, answer, answers) -> list:
    try:
        return op.check(answer, answers)
    except workloads.Missing:
        raise
    except Exception as exc:  # a check that cannot read the answer rejects it
        return [f"check raised {exc!r}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bad = 0
    for name in [args.workload] if args.workload else inputs.WORKLOADS:
        ops = workloads.BUILDERS[name](inputs.make(name, args.seed))
        answers = {}
        for op in ops:
            answers[op.key] = op.run(answers)
        for op in ops:
            true_problems = verdict(op, answers[op.key], answers)
            caught = verdict(op, op.corrupt(answers[op.key]), answers)
            ok = not true_problems and bool(caught)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name} {op.key}: true answer "
                  f"{'accepted' if not true_problems else true_problems}; corrupted answer "
                  f"{'rejected: ' + caught[0] if caught else 'ACCEPTED'}")
    print(f"{bad} operations whose checks misjudged an answer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
