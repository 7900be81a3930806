#!/usr/bin/env python3
"""Run every bundled verification suite and print a summary table."""

import argparse
import sys
import time

from linext.verify import SUITES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("suites", nargs="*", default=[], help="suite ids (default all)")
    ap.add_argument("--verbose", action="store_true", help="print every check")
    args = ap.parse_args()
    unknown = [sid for sid in args.suites if sid not in SUITES]
    if unknown:
        ap.error(f"unknown suite id(s) {', '.join(unknown)}; "
                 f"valid ids: {', '.join(sorted(SUITES))}")

    ids = args.suites or sorted(SUITES)
    any_fail = False
    for sid in ids:
        t0 = time.perf_counter()
        results = SUITES[sid]()
        dt = time.perf_counter() - t0
        bad = [r for r in results if not r.passed]
        status = "pass" if not bad else f"FAIL ({len(bad)}/{len(results)})"
        print(f"{sid:12s} {status:12s} {len(results):3d} checks  {dt:6.2f}s")
        if args.verbose or bad:
            for r in results:
                if args.verbose or not r.passed:
                    mark = "ok " if r.passed else "BAD"
                    print(f"    {mark} {r.name}  {r.detail}")
        any_fail = any_fail or bool(bad)
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
