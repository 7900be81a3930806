"""The subspace lattice B_n(q), flags, Bruhat cells, and the Hecke check.

Subspaces of F_q^n are represented by the frozenset of their vectors, which
makes inclusion and intersection trivial at desk scale (q in {2, 3}, n <= 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .chains import ChainVector, GradedPoset, evacuate_chains, graded_from_poset, maximal_chains
from .hecke import DEFAULT_HECKE_CAP, Perm, evacuation_element
from .posets import poset_from_covers

SIZE_CAPS = {2: 4, 3: 3}


def _vectors(n: int, q: int):
    return [tuple(v) for v in product(range(q), repeat=n)]


def span(vectors, n: int, q: int) -> frozenset:
    """The subspace spanned by the given vectors, as a set of vectors."""
    basis = []
    for v in vectors:
        v = _reduce(v, basis, q)
        if any(v):
            basis.append(v)
    out = {tuple([0] * n)}
    for b in basis:
        out = {
            tuple((x + c * y) % q for x, y in zip(w, b))
            for w in out
            for c in range(q)
        }
    return frozenset(out)


def _reduce(v, basis, q):
    v = list(v)
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x)
        if v[piv]:
            c = v[piv] * pow(b[piv], -1, q) % q
            v = [(x - c * y) % q for x, y in zip(v, b)]
    return tuple(v)


def all_subspaces(n: int, q: int) -> list:
    """Every subspace of F_q^n, sorted by (dimension, sorted vector list)."""
    if q not in SIZE_CAPS or n > SIZE_CAPS[q]:
        raise ValueError(f"subspace lattice capped at n <= {SIZE_CAPS.get(q)} for q = {q}")
    zero = tuple([0] * n)
    subs = {frozenset({zero})}
    frontier = [frozenset({zero})]
    vecs = _vectors(n, q)
    while frontier:
        new = []
        for s in frontier:
            for v in vecs:
                if v not in s:
                    # s + <v> is the union of the cosets s + c v
                    bigger = frozenset(
                        tuple((x + c * y) % q for x, y in zip(w, v))
                        for w in s
                        for c in range(q)
                    )
                    if bigger not in subs:
                        subs.add(bigger)
                        new.append(bigger)
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def subspace_dim(s: frozenset, q: int) -> int:
    d = 0
    size = len(s)
    while size > 1:
        size //= q
        d += 1
    return d


@dataclass(frozen=True)
class SubspaceLattice:
    n: int
    q: int
    graded: GradedPoset
    subspaces: tuple  # id -> frozenset of vectors


def subspace_lattice(n: int, q: int) -> SubspaceLattice:
    subs = all_subspaces(n, q)
    index = {s: i for i, s in enumerate(subs)}
    covers = []
    for s, i in index.items():
        for t, j in index.items():
            if len(t) == len(s) * q and s < t:
                covers.append((i, j))
    graded = graded_from_poset(poset_from_covers(len(subs), covers))
    return SubspaceLattice(n=n, q=q, graded=graded, subspaces=tuple(subs))


def standard_flag_chain(lat: SubspaceLattice) -> tuple:
    """The chain of coordinate subspaces <e_1, ..., e_k>."""
    n, q = lat.n, lat.q
    index = {s: i for i, s in enumerate(lat.subspaces)}
    chain = []
    for k in range(n + 1):
        basis = [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(k)
        ]
        chain.append(index[span(basis, n, q)])
    return tuple(chain)


def bruhat_cell(lat: SubspaceLattice, chain: tuple, ref: tuple) -> Perm:
    """Relative position of two flags from the intersection rank array."""
    n, q = lat.n, lat.q
    V = [lat.subspaces[i] for i in chain]
    W = [lat.subspaces[i] for i in ref]

    def r(i, j):
        return subspace_dim(V[i] & W[j], q)

    w = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if r(i, j) - r(i - 1, j) - r(i, j - 1) + r(i - 1, j - 1) == 1:
                w[i - 1] = j
    return tuple(w)


@dataclass(frozen=True)
class HeckeConsistencyReport:
    n: int
    q: int
    ok: bool
    cells: dict  # Perm -> (cell size, coefficient Fraction)
    mismatches: tuple  # witness chains


def hecke_consistency(n: int, q: int, cap: int = DEFAULT_HECKE_CAP) -> HeckeConsistencyReport:
    """Check m_0 evacuation against the c_w(q) expansion on B_n(q).

    The coefficient of each flag in evacuate_chains(m_0) must be constant on
    its Bruhat cell and equal c_w evaluated at the integer q.
    """
    lat = subspace_lattice(n, q)
    m0 = standard_flag_chain(lat)
    ev = evacuate_chains(lat.graded, ChainVector.basis(m0))
    elt = evacuation_element(n, cap=cap)
    qx = Fraction(q)
    expected = {
        w: c.eval(qx) for w, c in elt.terms.items()
    }
    cells = {}
    mismatches = []
    for chain in maximal_chains(lat.graded):
        w = bruhat_cell(lat, chain, m0)
        coeff = ev.coeff(chain)
        size, seen = cells.get(w, (0, None))
        if seen is not None and seen != coeff:
            mismatches.append(chain)
        cells[w] = (size + 1, coeff)
        if coeff != expected.get(w, Fraction(0)):
            mismatches.append(chain)
    return HeckeConsistencyReport(
        n=n, q=q, ok=not mismatches, cells=cells, mismatches=tuple(mismatches)
    )
