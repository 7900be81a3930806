"""Promotion, dual promotion, evacuation and their orbit structure.

All operators act on the right, so compositions read left to right: applying
"promote then evacuate" to f computes (f d) e.  Words are tuples of element
ids as produced by posets.linear_extensions.  Over all of L(P), promotion,
evacuation and dual evacuation are the index arrays of the cached
posets.ExtensionSpace, grown from its tau rows along the delta runs.  Every
permutation here is an index sequence (a list or an array('i'), perm[k] the
image of index k; only extension_permutation spells out {word: word}), and
promote^p's cycles are read from promotion's by the gcd split.  Label sliding,
block rotation, iterated promote-and-freeze and evacuation through P* are the
second routes that `linext verify promotion` checks against the tau words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .posets import (
    DEFAULT_EXTENSION_CAP,
    Poset,
    Word,
    conjugate_extension,
    dual_poset,
    extension_space,
    restrict,
)


# The operator words in tau_1 .. tau_{n-1}.  They serve single linear
# extensions (n = p), the linear tau on chains of a graded poset (n = its
# rank) and the Hecke algebra H_n(q) (E_i in place of tau_i).


@lru_cache(maxsize=None)
def delta_word(n: int) -> tuple:
    """delta = tau_1 tau_2 ... tau_{n-1}: promotion."""
    return tuple(range(1, n))


@lru_cache(maxsize=None)
def gamma_word(n: int) -> tuple:
    """gamma = delta_{n-1} ... delta_1 with delta_m = tau_1 ... tau_m:
    evacuation, and the pinned reduced word (1, ..., n-1, 1, ..., n-2, ..., 1)
    of the longest permutation w0."""
    return tuple(i for m in range(n - 1, 0, -1) for i in range(1, m + 1))


@lru_cache(maxsize=None)
def gamma_star_word(n: int) -> tuple:
    """gamma* = delta*_1 ... delta*_{n-1} with delta*_k = tau_{n-1} ... tau_k:
    dual evacuation."""
    return tuple(i for k in range(1, n) for i in range(n - 1, k - 1, -1))


@lru_cache(maxsize=None)
def odd_falling_word(m: int) -> tuple:
    """tau_1 . tau_3 tau_2 tau_1 . tau_5 ... tau_1 ..., one falling run
    tau_k ... tau_1 per odd k <= m: the word of Lemma 2 and of the domino
    bijection."""
    return tuple(i for top in range(1, m + 1, 2) for i in range(top, 0, -1))


def tau_word(P: Poset, word: Word, indices) -> Word:
    """Apply tau_i for each i of `indices` in turn: swap word positions i, i+1
    (1-based) iff their elements are incomparable."""
    p = P.p
    leq = P.leq_mask
    out = list(word)
    for i in indices:
        if not 0 < i < p:
            raise IndexError(f"tau index {i} out of range 1..{p - 1}")
        a, b = out[i - 1], out[i]
        if not (leq[a] >> b & 1 or leq[b] >> a & 1):
            out[i - 1] = b
            out[i] = a
    return tuple(out)


def rotate_blocks(blocks) -> tuple:
    """Rotate each factor left by one and concatenate.

    This is the block form of promotion: factor the word into maximal blocks
    whose first element is incomparable with the rest of the block.
    """
    out = []
    for block in blocks:
        out.extend(block[1:])
        out.append(block[0])
    return tuple(out)


def promotion_blocks(P: Poset, word: Word) -> tuple:
    """Left-to-right factorization into the maximal incomparable-head blocks."""
    blocks = []
    i = 0
    p = len(word)
    while i < p:
        j = i + 1
        while j < p and not P.less(word[i], word[j]):
            j += 1
        # Block runs up to (excluding) the first element above its head;
        # everything in between is incomparable with the head.
        blocks.append(word[i:j])
        i = j
    return tuple(blocks)


def _slide(up, word: Word):
    """Promotion by label sliding over the cover lists `up`.

    Returns (f d, promotion chain t_1 < t_2 < ... < t_k).  Labels are the
    1-based word positions; label 1 is removed, the smallest cover label
    repeatedly slides down, the final maximal element gets p+1, then all
    labels drop by one.  The empty word is fixed, with the empty chain.
    """
    if not word:
        return (), ()
    label = {t: i + 1 for i, t in enumerate(word)}
    cur = word[0]
    del label[cur]
    chain = [cur]
    while up[cur]:
        nxt = min(up[cur], key=label.__getitem__)
        label[cur] = label[nxt]
        del label[nxt]
        cur = nxt
        chain.append(cur)
    label[cur] = len(word) + 1
    new = sorted(label, key=label.__getitem__)
    return tuple(new), tuple(chain)


def promote_slide(P: Poset, word: Word):
    """Label-sliding definition of promotion: (f d, promotion chain)."""
    return _slide(P.up, word)


def promote(P: Poset, word: Word) -> Word:
    """f d: the tau word delta."""
    return tau_word(P, word, delta_word(P.p))


def dual_promote(P: Poset, word: Word) -> Word:
    """Dual promotion, the inverse of promotion: promotion on the dual poset
    P* read on f*, so the largest labels slide up."""
    return conjugate_extension(_slide(P.down, conjugate_extension(word))[0])


def evacuate(P: Poset, word: Word) -> Word:
    """f e: promote-and-freeze, realized as the tau word gamma."""
    return tau_word(P, word, gamma_word(P.p))


def dual_evacuate(P: Poset, word: Word) -> Word:
    """f e*: the tau word gamma*."""
    return tau_word(P, word, gamma_star_word(P.p))


def dual_evacuate_via_dual(P: Poset, word: Word) -> Word:
    """f e* computed through the dual poset as (f* e)*."""
    return conjugate_extension(evacuate(dual_poset(P), conjugate_extension(word)))


def evacuate_by_freezing(P: Poset, word: Word) -> Word:
    """Evacuation straight from the definition: iterated promote-and-freeze.

    Kept alongside the tau-word route as an independent implementation.
    """
    frozen = {}
    active = list(word)
    while active:
        k = len(active)
        sub, keep = restrict(P, active)
        index = {t: i for i, t in enumerate(keep)}
        promoted, _ = promote_slide(sub, tuple(index[t] for t in active))
        active = [keep[i] for i in promoted]
        frozen[active[-1]] = k
        active = active[:-1]
    return tuple(sorted(frozen, key=frozen.__getitem__))


def principal_chain(P: Poset, word: Word) -> tuple:
    """The chain visited by the label starting at f^{-1}(p) over p promotions.

    Returned in increasing order of P; the empty word gives the empty chain.
    """
    if not word:
        return ()
    cur = word[-1]
    visited = [cur]
    w = word
    for _ in range(P.p):
        w, chain = promote_slide(P, w)
        if cur in chain:
            k = chain.index(cur)
            if k == 0:
                break  # the tracked label reached 1 and was removed
            cur = chain[k - 1]
            visited.append(cur)
    return tuple(reversed(visited))


def trajectory(P: Poset, word: Word) -> tuple:
    """The chain along which labels slide when promotion is applied once."""
    _, chain = promote_slide(P, word)
    return chain


@dataclass(frozen=True)
class OrbitReport:
    operator: str
    cycle_lengths: tuple  # sorted multiset
    size: int  # e(P)


def extension_permutation(P: Poset, op) -> dict:
    """The permutation {word: op(word)} of L(P), for op promote, evacuate or
    dual_evacuate, read off the ExtensionSpace of P; raises CapExceeded when
    e(P) > DEFAULT_EXTENSION_CAP."""
    if op not in (promote, evacuate, dual_evacuate):
        raise ValueError(f"unknown operator {op!r}")
    space = extension_space(P)
    return {w: space.words[j] for w, j in zip(space.words, space.operators[op.__name__])}


def cycle_lengths(perm) -> tuple:
    """The sorted cycle lengths of the index permutation `perm`."""
    seen = bytearray(len(perm))
    out = []
    for start in range(len(perm)):
        n = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = perm[x]
            n += 1
        if n:
            out.append(n)
    return tuple(sorted(out))


def compose(first, second) -> list:
    """Right-action composition (f first) second: k goes to second[first[k]]."""
    return [second[x] for x in first]


def permutation_power(perm, k: int) -> list:
    out = list(range(len(perm)))
    base = perm
    while k:
        if k & 1:
            out = compose(out, base)
        base = compose(base, base)
        k >>= 1
    return out


ORBIT_OPERATORS = ("promote", "evacuate", "dual_evacuate", "promote_p")


def orbit_structure(P: Poset, operator: str, cap: int = DEFAULT_EXTENSION_CAP) -> OrbitReport:
    """The cycle type on L(P) of an operator of ORBIT_OPERATORS; promote_p is
    promotion to the power p."""
    if operator not in ORBIT_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    space = extension_space(P, cap)
    if operator != "promote_p":
        return OrbitReport(operator, cycle_lengths(space.operators[operator]), len(space.words))
    # under the p-th power a cycle of length L splits into gcd(L, p) of length L / gcd(L, p)
    lengths = sorted(L // g for L in cycle_lengths(space.operators["promote"])
                     for g in (gcd(L, P.p),) for _ in range(g))
    return OrbitReport(operator, tuple(lengths), len(space.words))


def dihedral_group_order(first, second) -> int:
    """Order of the group generated by two involutions of 0..n-1, given as
    index sequences.

    Reported as 2m where m is the order of the product of the two
    involutions, with 1 for the degenerate single-state case.  (On more than
    one state the two generators can still both act trivially -- on L(P) the
    2x2 square is the smallest example -- and then the literal group order
    collapses to 1; the conventional 2m value is reported regardless so that
    all members of a shape family get the same answer.)
    """
    if len(first) <= 1:
        return 1
    return 2 * lcm(*cycle_lengths(compose(first, second)))


def dihedral_order(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> int:
    """Order of the group generated by evacuation and dual evacuation on L(P)."""
    ops = extension_space(P, cap).operators
    return dihedral_group_order(ops["evacuate"], ops["dual_evacuate"])
