"""Promotion and evacuation on maximal chains of graded posets.

Covers the combinatorial tau_i for slender posets, dual domino chains, the
cross-polytope closed forms on signed permutations, and the linear operator
tau_i on the chain vector space of an arbitrary graded poset.

Each GradedPoset caches its table of rank-2 interval middles and its maximal
chains, slender or not, as a posets.ExtensionSpace: the paths up its covers
from the bottom, listed once in lex order by one walk.  Every maximal chain
listing here reads them, a chain is found by bisecting them, and their tau_i
rows come from the rule that fills those of L(P), which raises unless the
poset is slender.  So chain promotion and (dual) evacuation are lookups in the
`operators` arrays that serve linear extensions, grown along the same runs.
`linext verify crosspoly` checks them against the signed closed forms, and
`linext verify eq7` against the linear delta, +-1 per chain.  Dual domino
chains are walked up the covers as J(P)'s are (`posets._dual_dominoes`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from .posets import DEFAULT_IDEAL_CAP, CapExceeded, ExtensionSpace, Poset, _dual_dominoes, _poset_from_reduced
from .promotion import delta_word, dihedral_group_order, gamma_word


@dataclass(frozen=True)
class GradedPoset:
    poset: Poset
    rank: tuple
    bottom: int
    top: int
    height: int  # rank of the top element

    @cached_property
    def rank2(self) -> dict:
        """{(s, t): middles ascending} per rank-2 interval, from covers s < a < t."""
        up = self.poset.up
        table = {}
        for s in range(self.poset.p):
            for a in up[s]:
                for t in up[a]:
                    table.setdefault((s, t), []).append(a)
        return {st: tuple(sorted(mids)) for st, mids in table.items()}

    @cached_property
    def slender(self) -> bool:
        return all(len(mids) <= 2 for mids in self.rank2.values())

    @cached_property
    def space(self) -> ExtensionSpace:
        """The maximal chains as paths up the covers, in lex order; its tau
        rows, and so the chain operators, raise unless Q is slender."""
        up, by_rank = self.poset.up, sorted(range(self.poset.p), key=self.rank.__getitem__)
        kids = {x: [(t, t) for t in up[x]] for x in by_rank}
        return ExtensionSpace(self.height, self.bottom, kids, (self.bottom,))


def graded_from_poset(P: Poset) -> GradedPoset:
    """Validate unique bottom/top and that covers raise rank by exactly one."""
    mins, maxs = P.minimals(), P.maximals()
    if len(mins) != 1 or len(maxs) != 1:
        raise ValueError("graded poset needs a unique bottom and top")
    bottom, top = mins[0], maxs[0]
    rank = [None] * P.p
    rank[bottom] = 0
    order = sorted(range(P.p), key=lambda t: P.geq_mask[t].bit_count())
    for t in order:
        if t == bottom:
            continue
        ranks = {rank[s] for s in P.down[t]}
        if len(ranks) != 1 or None in ranks:
            raise ValueError("poset is not graded")
        rank[t] = ranks.pop() + 1
    return GradedPoset(P, tuple(rank), bottom, top, rank[top])


def maximal_chains(Q: GradedPoset) -> list:
    """All maximal chains bottom..top, sorted; each has height+1 elements."""
    return list(Q.space.words)


def _image(Q: GradedPoset, chain, row) -> tuple:
    """row's image of `chain` in Q.space, found by bisecting its sorted words;
    raises unless it is a maximal chain."""
    words, key = Q.space.words, tuple(chain)
    k = bisect_left(words, key)
    if k == len(words) or words[k] != key:
        raise ValueError(f"not a maximal chain: {chain}")
    return words[row[k]]


def tau_chain(Q: GradedPoset, chain: tuple, i: int):
    """t_i swapped for the other middle of [t_{i-1}, t_{i+1}], if any, by lookup."""
    if not 1 <= i <= Q.height - 1:
        raise IndexError(f"tau index {i} out of range 1..{Q.height - 1}")
    return _image(Q, chain, Q.space.tau[i])


def promote_chain(Q: GradedPoset, chain: tuple) -> tuple:
    """The word delta on a maximal chain (slender posets)."""
    return _image(Q, chain, Q.space.operators["promote"])


def evacuate_chain(Q: GradedPoset, chain: tuple) -> tuple:
    """The word gamma on a maximal chain (slender posets)."""
    return _image(Q, chain, Q.space.operators["evacuate"])


def dual_evacuate_chain(Q: GradedPoset, chain: tuple) -> tuple:
    """The word gamma* on a maximal chain (slender posets)."""
    return _image(Q, chain, Q.space.operators["dual_evacuate"])


def self_evacuating_chains(Q: GradedPoset) -> list:
    return Q.space.fixed_points("evacuate")


def dual_domino_chains(Q: GradedPoset) -> list:
    """The chains bottom = t_0 < ... < t_r = top, sorted, that take a cover
    step first when the rank of Q is odd and then steps (t_{i-1}, t_i] whose
    rank-2 interval is a chain (one middle), walked up the covers by
    `posets._dual_dominoes`, which lists no maximal chain."""
    message = (f"dual domino chains of a {Q.poset.p}-element graded poset need more than "
               f"{DEFAULT_IDEAL_CAP} elements")
    return sorted(_dual_dominoes(Q.bottom, Q.top, Q.poset.up.__getitem__, Q.height % 2, message))


# ---------------------------------------------------------------------------
# Cross-polytope face lattice and signed permutations.

SignedPerm = tuple  # tuple of nonzero ints; negative means barred


def cross_polytope(n: int):
    """Face lattice of the n-dimensional cross-polytope.

    Returns (Q, faces) where faces[id] is the frozenset of vertices (ints
    +-1..+-n) of that face; the empty face is the bottom and an artificial
    top is appended.  Maximal chains correspond to signed permutations.
    """
    if n > 6:
        raise CapExceeded(f"cross_polytope for n = {n} exceeds cap n <= 6")
    if n < 1:
        raise ValueError(f"cross_polytope needs n >= 1, not n = {n}")
    faces = [frozenset()]
    for k in range(1, n + 1):
        for support in combinations(range(1, n + 1), k):
            for signs in _sign_vectors(k):
                faces.append(frozenset(v * s for v, s in zip(support, signs)))
    faces.sort(key=lambda f: (len(f), sorted(f)))
    top = frozenset({0})  # sentinel; not a real vertex set
    faces.append(top)
    index = {f: i for i, f in enumerate(faces)}
    covers = []
    for f, i in index.items():
        if f == top:
            continue
        if len(f) == n:
            covers.append((i, index[top]))
            continue
        for v in range(1, n + 1):
            if v not in f and -v not in f:
                for s in (v, -v):
                    covers.append((i, index[f | {s}]))
    Q = graded_from_poset(_poset_from_reduced(len(faces), covers))
    return Q, tuple(faces)


def _sign_vectors(k):
    for bits in range(1 << k):
        yield tuple(1 if bits >> i & 1 else -1 for i in range(k))


def chain_to_signed_perm(faces, chain) -> SignedPerm:
    """a_i = the unique vertex of t_i not in t_{i-1} (i = 1..n)."""
    out = []
    for lo, hi in zip(chain, chain[1:]):
        flo, fhi = faces[lo], faces[hi]
        if 0 in fhi:  # artificial top
            break
        (new,) = fhi - flo
        out.append(new)
    return tuple(out)


def all_signed_perms(n: int):
    for base in permutations(range(1, n + 1)):
        for signs in _sign_vectors(n):
            yield tuple(v * s for v, s in zip(base, signs))


def signed_delta(w: SignedPerm) -> SignedPerm:
    """w delta = a_2, a_3, ..., a_n, a'_1."""
    return w[1:] + (-w[0],)


def signed_gamma(w: SignedPerm) -> SignedPerm:
    """w gamma = a'_1, a_n, a_{n-1}, ..., a_2."""
    return (-w[0],) + w[:0:-1]


def signed_gamma_star(w: SignedPerm) -> SignedPerm:
    """w gamma* = a'_n, a'_{n-1}, ..., a'_1."""
    return tuple(-a for a in reversed(w))


def signed_delta_power(w: SignedPerm) -> SignedPerm:
    """w delta^{n+1} = w gamma gamma* = a'_2, ..., a'_n, a_1."""
    return tuple(-a for a in w[1:]) + (w[0],)


def signed_group_order(n: int) -> int:
    """Order of <gamma, gamma*> acting on all signed permutations of size n."""
    if n < 1:
        raise ValueError(f"signed permutations need n >= 1, not n = {n}")
    index = {w: k for k, w in enumerate(all_signed_perms(n))}
    return dihedral_group_order(
        [index[signed_gamma(w)] for w in index],
        [index[signed_gamma_star(w)] for w in index],
    )


# ---------------------------------------------------------------------------
# The linear operator tau_i on the chain vector space of any graded poset.


class ChainVector:
    """Finitely supported map MaxChain -> Fraction: nonzero integer numerators
    `terms` over one positive denominator `den`, reduced by one gcd."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict = None):
        values = {m: Fraction(c) for m, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in values.values()))
        self._reduce({m: c.numerator * (den // c.denominator) for m, c in values.items()}, den)

    def _reduce(self, nums: dict, den: int) -> "ChainVector":
        """Set self to nums / den in reduced form, and return it."""
        nums = {m: c for m, c in nums.items() if c}
        g = gcd(den, *nums.values())
        self.terms, self.den = {m: c // g for m, c in nums.items()}, den // g
        return self

    @staticmethod
    def basis(chain) -> "ChainVector":
        return ChainVector({tuple(chain): 1})

    def coeff(self, chain) -> Fraction:
        return Fraction(self.terms.get(tuple(chain), 0), self.den)

    def __add__(self, other: "ChainVector") -> "ChainVector":
        den = lcm(self.den, other.den)
        out = {m: c * (den // self.den) for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c * (den // other.den)
        return ChainVector.__new__(ChainVector)._reduce(out, den)

    def scale(self, c) -> "ChainVector":
        c = Fraction(c)
        return ChainVector.__new__(ChainVector)._reduce(
            {m: x * c.numerator for m, x in self.terms.items()}, self.den * c.denominator)

    def __sub__(self, other: "ChainVector") -> "ChainVector":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, ChainVector):
            return NotImplemented
        return (self.terms, self.den) == (other.terms, other.den)

    def __repr__(self):
        return f"ChainVector({dict((m, self.coeff(m)) for m in self.terms)})"


def chain_neighbors(Q: GradedPoset, chain: tuple, i: int) -> list:
    """N_i(m): maximal chains differing from m exactly at t_i."""
    mids = Q.rank2.get((chain[i - 1], chain[i + 1]), ())
    if chain[i] not in mids:
        raise ValueError(f"not a maximal chain: {chain}")
    return [
        chain[:i] + (t,) + chain[i + 1:] for t in mids if t != chain[i]
    ]


def linear_tau(Q: GradedPoset, v: ChainVector, i: int) -> ChainVector:
    """m tau_i = ((q-1) m - 2 sum N_i(m)) / (q+1) with q = #N_i(m).

    Chains with q = 0 are fixed.  On integer numerators: the image's
    denominator is v's times the lcm L of the (q+1) met, so a chain with q
    neighbours stays with weight (q-1) L/(q+1) and sends -2 L/(q+1) to each.
    """
    if not 1 <= i <= Q.height - 1:
        raise IndexError(f"tau index {i} out of range 1..{Q.height - 1}")
    rows = [(m, c, chain_neighbors(Q, m, i)) for m, c in v.terms.items()]
    L = lcm(*(len(nbrs) + 1 for _, _, nbrs in rows))
    out = {}
    get = out.get
    for m, c, nbrs in rows:
        c *= L // (len(nbrs) + 1)
        out[m] = get(m, 0) + (len(nbrs) - 1 if nbrs else 1) * c
        for m2 in nbrs:
            out[m2] = get(m2, 0) - 2 * c
    return ChainVector.__new__(ChainVector)._reduce(out, v.den * L)


def promote_chains(Q: GradedPoset, v: ChainVector) -> ChainVector:
    """The delta word of linear tau operators."""
    for i in delta_word(Q.height):
        v = linear_tau(Q, v, i)
    return v


def evacuate_chains(Q: GradedPoset, v: ChainVector) -> ChainVector:
    """The gamma word of linear tau operators; an involution."""
    for i in gamma_word(Q.height):
        v = linear_tau(Q, v, i)
    return v
