"""The subspace lattice B_n(q), flags, Bruhat cells, and the Hecke check.

Subspaces of F_q^n are represented by the frozenset of their vectors, which
makes inclusion and intersection trivial at desk scale (n <= SIZE_CAPS[q]).
One walk up from {0} finds every subspace and every cover once.  The Bruhat
cell of a flag V against a reference flag W is read from the level of each
vector (the least j with v in W_j): w(i) is the least level on V_i \\ V_{i-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .chains import ChainVector, GradedPoset, evacuate_chains, graded_from_poset, maximal_chains
from .hecke import Perm, evacuation_element
from .posets import CapExceeded, _poset_from_reduced

SIZE_CAPS = {2: 5, 3: 4}  # q -> largest n


def span(vectors, n: int, q: int) -> frozenset:
    """The subspace spanned by the given vectors, as a set of vectors: from
    {0}, s + <v> for each v not yet in s, the step `_walk` takes."""
    out = frozenset({(0,) * n})
    for v in vectors:
        if tuple(v) not in out:
            out = _coset_union(out, v, q)
    return out


def _coset_union(s: frozenset, v, q: int) -> frozenset:
    """s + <v>, the union of the cosets s + c v."""
    return frozenset(tuple((x + c * y) % q for x, y in zip(w, v)) for w in s for c in range(q))


def _walk(n: int, q: int) -> tuple:
    """(subspaces, covers) of B_n(q) from one walk up from {0}.

    Each subspace s yields its covers s + <v> as unions of the cosets s + c v,
    each built once: a v inside a cover already found for s is skipped, since
    the covers of s partition the vectors outside s.  Subspaces come sorted by
    (dimension, sorted vector list); covers are (id, id) pairs.
    """
    if q not in SIZE_CAPS:
        raise ValueError(f"subspace lattice supports q in {sorted(SIZE_CAPS)}, not q = {q}")
    if n < 0:
        raise ValueError(f"subspace lattice needs n >= 0, not n = {n}")
    if n > SIZE_CAPS[q]:
        raise CapExceeded(f"subspace lattice for n = {n} exceeds cap n <= {SIZE_CAPS[q]} at q = {q}")
    vecs = list(product(range(q), repeat=n))
    subs, covers, start = [span((), n, q)], [], 0
    while start < len(subs):  # subs[start:] is the last dimension found
        found, ups = {}, []
        for s in subs[start:]:
            covered, mine = set(s), []
            for v in vecs:
                if v not in covered:
                    t = _coset_union(s, v, q)
                    covered |= t
                    mine.append(found.setdefault(t, t))
            ups.append(mine)
        new = sorted(found, key=sorted)
        index = {t: len(subs) + k for k, t in enumerate(new)}
        covers += [(i, index[t]) for i, mine in enumerate(ups, start) for t in mine]
        start, subs = len(subs), subs + new
    return subs, covers


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
    subs, covers = _walk(n, q)
    graded = graded_from_poset(_poset_from_reduced(len(subs), covers))
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


def _levels(lat: SubspaceLattice, ref: tuple) -> dict:
    """{v: the least j with v in W_j} for the flag W = ref."""
    level = {}
    for j, Wj in enumerate(ref):
        for v in lat.subspaces[Wj]:
            level.setdefault(v, j)
    return level


def _cell(lat: SubspaceLattice, chain: tuple, level: dict) -> Perm:
    """w(i) = min level over V_i \\ V_{i-1}: the least j with W_j meeting it."""
    V = [lat.subspaces[i] for i in chain]
    return tuple(min(map(level.__getitem__, Vi - Vh)) for Vh, Vi in zip(V, V[1:]))


def bruhat_cell(lat: SubspaceLattice, chain: tuple, ref: tuple) -> Perm:
    """Relative position w of the flags V = chain and W = ref: dim(V_i & W_j)
    = #{k <= i : w(k) <= j}, so w(i) is the least j for which W_j meets
    V_i \\ V_{i-1}.  This holds for any reference flag W."""
    return _cell(lat, chain, _levels(lat, ref))


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
    its Bruhat cell and equal c_w evaluated at the integer q.
    """
    lat = subspace_lattice(n, q)
    m0 = standard_flag_chain(lat)
    ev = evacuate_chains(lat.graded, ChainVector.basis(m0))
    elt = evacuation_element(n)
    expected = {w: c.eval(Fraction(q)) for w, c in elt.terms.items()}
    level = _levels(lat, m0)
    cells = {}
    mismatches = []
    for chain in maximal_chains(lat.graded):
        w = _cell(lat, chain, level)
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
