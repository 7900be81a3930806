#!/usr/bin/env python3
"""Print the full coefficient table of the evacuation element of H_n(q).

Each row: one-line permutation, coefficient c_w(q) in factored display,
the (q-1)-divisibility bound n - kappa(reversal), and the actual order.
"""

import argparse
import sys
from itertools import permutations

from linext.hecke import DEFAULT_HECKE_CAP, evacuation_element, perm_cycles, reversal
from linext.ratfunc import format_factored, qm1_order


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=4)
    ap.add_argument("--cap", type=int, default=DEFAULT_HECKE_CAP)
    args = ap.parse_args()

    elt = evacuation_element(args.n, cap=args.cap)
    for w in permutations(range(1, args.n + 1)):
        c = elt.coeff(w)
        bound = args.n - perm_cycles(reversal(w))
        order = "-" if not c else qm1_order(c)
        key = "".join(map(str, w))
        print(f"{key}  bound={bound}  order={order}  c_w = {format_factored(c)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
