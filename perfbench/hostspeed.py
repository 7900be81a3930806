"""A fixed computation that gauges how fast the shared host runs right now.

Other tenants of the host slow a job by up to half for stretches of seconds
to minutes, most of all jobs that churn through dicts of tuples, as
`linext` does.  So every job is flanked by two runs of this yardstick, each
in a set-up interpreter started just before or just after the job, and
`job_s` is the job's wall time scaled by REFERENCE_S / (the mean yardstick
time).  The yardstick is the benchmark's own code and does not import
`linext`, so a change to `linext` moves the job and not the yardstick.

The work: every linear extension of the 5,5,5 rectangle (6006 words), found
by depth-first search, then PASSES times a dict from each word to its
promotion by label sliding.
"""

from __future__ import annotations

from time import perf_counter

from . import reference as ref

SHAPE = (3, 5)  # rows, columns
PASSES = 2
# About the yardstick's time when the host is quiet, on a 2-CPU Xeon VM
# with Python 3.11.7.  A constant, so job_s stays in seconds.
REFERENCE_S = 0.12


def _extensions(p: int, below) -> list:
    words = []
    word = []

    def grow(used: int):
        if len(word) == p:
            words.append(tuple(word))
            return
        for t in range(p):
            if not used >> t & 1 and not below[t] & ~used:
                word.append(t)
                grow(used | 1 << t)
                word.pop()

    grow(0)
    return words


def measure() -> float:
    """Wall time of one yardstick run, in seconds."""
    m, n = SHAPE
    p = m * n
    t0 = perf_counter()
    below = ref.closure(p, ref.rectangle_relations(m, n))
    up = ref.upper_covers(p, below)
    words = _extensions(p, below)
    for _ in range(PASSES):
        promoted = {w: ref.slide_promote(w, up) for w in words}
    elapsed = perf_counter() - t0
    if len(promoted) != ref.hook_count(m, n):
        raise RuntimeError(f"yardstick found {len(promoted)} extensions")
    return elapsed
