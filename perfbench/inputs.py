"""Seeded inputs for every workload, as plain JSON-ready data.

The benchmark's parent process makes the inputs from `--seed` and hands
each job interpreter only the generated relations and sizes; nothing here
imports `linext`.  Random posets are natural (every relation s < t has
s < t as integers) and are redrawn until e(P) falls in a fixed window, so
the work per job stays the same from seed to seed.
"""

from __future__ import annotations

import random

from . import reference as ref

WORKLOADS = (
    "extension-orbits",
    "extension-statistics",
    "hecke-expansion",
    "ideal-lattices",
)

# (p, relation probability, e(P) window) of the random posets: the window
# brackets e = 1430, the count of the 8,8 rectangle beside them.
RANDOM_POSET = (16, 0.43, (1400, 1460))

WIDE_CHAINS = (1,) * 10 + (3, 3)  # 2^10 * 4^2 = 16384 ideals, p = 16


def random_natural_poset(rng: random.Random, p: int, prob: float, window) -> dict:
    """Draw relation sets until e(P) lies in `window`; keep the reduction."""
    lo, hi = window
    for _ in range(100_000):
        relations = [
            (s, t) for s in range(p) for t in range(s + 1, p) if rng.random() < prob
        ]
        below = ref.closure(p, relations)
        e = ref.count_extensions(p, below)
        if lo <= e <= hi:
            up = ref.upper_covers(p, below)
            covers = sorted((s, t) for s in range(p) for t in up[s])
            return {"p": p, "relations": covers, "e": e}
    raise RuntimeError(f"no poset with e(P) in {window} for p={p}, prob={prob}")


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("extension-orbits", "extension-statistics"):
        return {"rect": [2, 8], "random": random_natural_poset(rng, *RANDOM_POSET)}
    if workload == "hecke-expansion":
        # Exact evaluation points for the identity checks: two integers and
        # one fraction, none a pole (q = -1) of any c_w.
        points = [rng.randint(2, 9), rng.randint(10, 40), rng.randint(2, 30)]
        return {
            "n": 6,
            "n_small": 5,
            "flags": [[3, 3], [4, 2]],
            "points": [[points[0], 1], [points[1], 1], [points[2], points[2] + 1]],
        }
    if workload == "ideal-lattices":
        p = sum(WIDE_CHAINS)
        relabel = list(range(p))
        rng.shuffle(relabel)
        relations = [
            (relabel[s], relabel[t]) for s, t in ref.chains_relations(WIDE_CHAINS)
        ]
        return {
            "wide": {"p": p, "relations": sorted(relations), "sizes": list(WIDE_CHAINS)},
            "shape": [3, 4],
            "cross": 4,
            "chain_every": 4,  # promote and evacuate every 4th chain of L_n
            "tau_every": 16,  # gamma* as a tau word on every 16th chain of L_n
        }
    raise ValueError(f"unknown workload {workload!r}")
