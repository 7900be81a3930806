"""The subspace lattice B_n(q), flags, Bruhat cells, and the Hecke check.

A vector of F_q^n is its base-q integer id, so ids order as the vectors do,
and a subspace is the bitmask of its ids (and the frozenset of its vectors).
One walk up from {0}, by a table of id sums, finds every subspace and every
cover once, at desk scale (n <= SIZE_CAPS[q]).  The Bruhat cell of a flag V
against a flag W is read off the masks: w(i) is the least j for which W_j
meets V_i \\ V_{i-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .chains import ChainVector, GradedPoset, evacuate_chains, graded_from_poset, maximal_chains
from .hecke import Perm, _expand_numerators
from .posets import CapExceeded, _poset_from_reduced
from .ratfunc import peval

SIZE_CAPS = {2: 5, 3: 4}  # q -> largest n


def _walk(n: int, q: int) -> tuple:
    """(subspaces, covers) of B_n(q) from one walk up from {0}.

    A vector is its base-q integer id, first coordinate most significant, so
    ids order as the vectors do; a subspace is the sorted tuple of its ids.
    Each subspace s yields its covers s + <v> as unions of the cosets s + c v,
    read off a q^n x q^n addition table and each built once: a v inside a
    cover already found for s is skipped, since the covers of s partition the
    vectors outside s.  Subspaces come sorted by (dimension, sorted vector
    list); covers are (id, id) pairs.
    """
    if q not in SIZE_CAPS:
        raise ValueError(f"subspace lattice supports q in {sorted(SIZE_CAPS)}, not q = {q}")
    if n < 0:
        raise ValueError(f"subspace lattice needs n >= 0, not n = {n}")
    if n > SIZE_CAPS[q]:
        raise CapExceeded(f"subspace lattice for n = {n} exceeds cap n <= {SIZE_CAPS[q]} at q = {q}")
    add = [[0]]  # add[x][y]: the id of the sum of the vectors x and y
    for k in range(n):  # prepend a coordinate: x = d q^k + x'
        size = q ** k
        add = [[(d + e) % q * size + z for e in range(q) for z in row]
               for d in range(q) for row in add]
    subs, covers, start = [(0,)], [], 0
    while start < len(subs):  # subs[start:] is the last dimension found
        found, ups = {}, []
        for s in subs[start:]:
            covered, mine = set(s), []
            for v in range(len(add)):
                if v not in covered:
                    t, coset = set(s), s
                    for _ in range(q - 1):  # the coset s + c v, from s + (c - 1) v
                        coset = [add[x][v] for x in coset]
                        t.update(coset)
                    t = tuple(sorted(t))
                    covered.update(t)
                    mine.append(found.setdefault(t, t))
            ups.append(mine)
        new = sorted(found)
        index = {t: len(subs) + k for k, t in enumerate(new)}
        covers += [(i, index[t]) for i, mine in enumerate(ups, start) for t in mine]
        start, subs = len(subs), subs + new
    return subs, covers


@dataclass(frozen=True)
class SubspaceLattice:
    n: int
    q: int
    graded: GradedPoset
    subspaces: tuple  # id -> frozenset of vectors
    masks: tuple  # id -> bitmask of the base-q ids of its vectors


def subspace_lattice(n: int, q: int) -> SubspaceLattice:
    subs, covers = _walk(n, q)
    graded = graded_from_poset(_poset_from_reduced(len(subs), covers))
    vecs = list(product(range(q), repeat=n))  # in id order
    return SubspaceLattice(n=n, q=q, graded=graded,
                           subspaces=tuple(frozenset(vecs[x] for x in s) for s in subs),
                           masks=tuple(sum(1 << x for x in s) for s in subs))


def standard_flag_chain(lat: SubspaceLattice) -> tuple:
    """The chain of coordinate subspaces <e_1, ..., e_k>: the ids that
    q^(n-k) divides."""
    n, q, index = lat.n, lat.q, {m: i for i, m in enumerate(lat.masks)}
    return tuple(index[sum(1 << x for x in range(0, q ** n, q ** (n - k)))]
                 for k in range(n + 1))


def bruhat_cell(lat: SubspaceLattice, chain: tuple, ref: tuple) -> Perm:
    """Relative position w of the flags V = chain and W = ref: dim(V_i & W_j)
    = #{k <= i : w(k) <= j}, so w(i) is the least j for which W_j meets
    V_i \\ V_{i-1}, read off the bitmasks.  This holds for any reference
    flag W."""
    V, W, w = [lat.masks[i] for i in chain], [lat.masks[j] for j in ref], []
    for Vh, Vi in zip(V, V[1:]):
        j = 0
        while not W[j] & Vi & ~Vh:
            j += 1
        w.append(j)
    return tuple(w)


@dataclass(frozen=True)
class HeckeConsistencyReport:
    n: int
    q: int
    ok: bool
    cells: dict  # Perm -> (cell size, coefficient Fraction)
    mismatches: tuple  # witness chains


def hecke_consistency(n: int, q: int) -> HeckeConsistencyReport:
    """Check m_0 evacuation against the c_w(q) expansion on B_n(q).

    The coefficient of each flag in evacuate_chains(m_0) must be constant on
    its Bruhat cell and equal c_w(q) = num_w(q) / (q+1)^C(n,2), num_w read off
    hecke._expand_numerators; both are compared as integers, each flag's
    numerator over the evacuated vector's common denominator.
    """
    lat = subspace_lattice(n, q)
    m0 = standard_flag_chain(lat)
    ev = evacuate_chains(lat.graded, ChainVector.basis(m0))
    scale = (q + 1) ** (n * (n - 1) // 2)
    expected = {w: peval(num, q) * ev.den for w, num in _expand_numerators(n).items()}
    cells, mismatches = {}, []
    for chain in maximal_chains(lat.graded):
        w = bruhat_cell(lat, chain, m0)
        a = ev.terms.get(chain, 0)
        size, seen = cells.get(w, (0, a))
        if seen != a:
            mismatches.append(chain)
        cells[w] = (size + 1, a)
        if a * scale != expected.get(w, 0):
            mismatches.append(chain)
    cells = {w: (size, Fraction(a, ev.den)) for w, (size, a) in cells.items()}
    return HeckeConsistencyReport(n, q, not mismatches, cells, tuple(mismatches))
