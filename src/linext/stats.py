"""Descent statistics, W'_P(x), dual domino tableaux and self-evacuation.

The comaj machinery requires a natural partial order (the order relation
refines the integer order on ids).  Entry points that take an arbitrary
poset relabel it first via natural_relabel; W'_P only depends on P up to
isomorphism, so this is harmless.

W'_P and the sign census read no word of L(P): each is a path sum over
J(P) (`posets._path_sum`), W'_P's over (ideal, last letter) states, the
sign census's over ideals alone, as a step's sign reads no last letter.
The self-evacuating words are the fixed points of evacuation's index array
on the poset's cached ExtensionSpace.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import posets
from .posets import (
    DEFAULT_EXTENSION_CAP,
    CapExceeded,
    Poset,
    Word,
    _addable,
    _down_sets,
    _joins,
    _lex_walk,
    _mask_members,
    _path_sum,
    count_extensions,
    extension_space,
    is_natural,
)
from .promotion import cycle_lengths, odd_falling_word, tau_word
from .ratfunc import IntPoly, _unpack


class NotNaturalError(ValueError):
    pass


def _require_natural(P: Poset):
    if not is_natural(P):
        raise NotNaturalError("poset is not a natural partial order; relabel first")


def descent_set(P: Poset, word: Word) -> frozenset:
    """D(w) = {i : a_i > a_{i+1}} (1-based positions, natural labels)."""
    _require_natural(P)
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


def comaj(P: Poset, word: Word) -> int:
    p = len(word)
    return sum(p - i for i in descent_set(P, word))


def wprime_poly(P: Poset) -> IntPoly:
    """W'_P(x) = sum over linear extensions of x^comaj: the path sum over J(P)
    in which the step adding t < last to an ideal of size i weighs p - i,
    packed one coefficient per `width` bits, as none passes e(P)."""
    _require_natural(P)
    p, width = P.p, count_extensions(P).bit_length() + 1
    return _unpack(_path_sum(P, lambda mask, last, t, poly: (
        t, poly << (p - mask.bit_count()) * width if t < last else poly)), width)


def dual_domino_tableaux(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> list:
    """All dual P-domino tableaux as chains of ideals (tuples of frozensets).

    A step adds a two-element chain {s, t} with s < t; the first step adds a
    single element when p is odd.  Raises CapExceeded past `cap` tableaux.

    The lex walk runs over ideal masks.  Each ideal's steps are found once,
    and CapExceeded is raised once more than DEFAULT_IDEAL_CAP ideals have
    been expanded.  An expanded ideal is met again only after its walk has
    ended, so unless a tableau passed through it, it is a dead end and is
    left out of the steps that lead to it.
    """
    full = (1 << P.p) - 1
    joins = _joins(P, range(P.p))
    above = [_down_sets(P, P.up[s]) for s in range(P.p)]
    expanded, live = {}, {}  # live: {mask: its frozenset} per ideal on a tableau found

    def steps(mask):  # (m, m) per ideal m one step up from `mask`, by (s, t), bar dead ends
        ms = expanded.get(mask)
        if ms is None:
            if len(expanded) >= posets.DEFAULT_IDEAL_CAP:
                raise CapExceeded(f"dual domino tableaux of a {P.p}-element poset need more than "
                                  f"{posets.DEFAULT_IDEAL_CAP} order ideals")
            ms = [mask | bit for bit in _addable(joins[mask.bit_count()], mask)]
            if mask or not P.p % 2:  # bar an odd p's first step; a t > s addable now covers s
                ms = [m | bit for m in ms for bit in _addable(above[(m ^ mask).bit_length() - 1], m)]
            expanded[mask] = ms
        return [(m, m) for m in ms if m in live or m not in expanded]

    out = []
    for path, mask in _lex_walk(0, steps, (0,)):
        if mask == full:
            for m in path:
                if m not in live:
                    live[m] = frozenset(_mask_members(m))
            out.append(tuple(map(live.__getitem__, path)))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} dual domino tableaux")
    return out


def domino_word(tableau) -> Word:
    """The dual domino linear extension of a tableau (increments in P-order)."""
    word = []
    for lo, hi in zip(tableau, tableau[1:]):
        inc = sorted(hi - lo)
        word.extend(inc)
    return tuple(word)


def is_dual_domino_word(P: Poset, word: Word) -> bool:
    """Whether the paired prefixes of the word form a dual domino tableau."""
    p = len(word)
    i = 0
    if p % 2:
        i = 1  # first increment is a singleton
    while i < p:
        s, t = word[i], word[i + 1]
        if not P.less(s, t):
            return False
        i += 2
    return P.is_extension(word)


def self_evacuating(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> list:
    """The fixed points of evacuation, read off its index array on L(P)."""
    return extension_space(P, cap).fixed_points("evacuate")


def domino_to_selfevac(P: Poset, word: Word) -> Word:
    """The bijection w -> w~ from dual domino words to self-evacuating ones.

    w~ = w tau_1 . tau_3 tau_2 tau_1 . tau_5 ... tau_1 ... tau_m ... tau_1,
    with m = p-1 for even p and m = p-2 for odd p.
    """
    if not is_dual_domino_word(P, word):
        raise ValueError("word is not a dual domino linear extension")
    return tau_word(P, word, odd_falling_word(P.p - 1))


def extension_parity(word: Word) -> int:
    """Parity (0 even, 1 odd) of the word as a permutation of the ids.

    A permutation of n ids with c cycles is a product of n - c transpositions.
    """
    return (len(word) - len(cycle_lengths(word))) % 2


@dataclass(frozen=True)
class SignBalanceReport:
    balanced: bool
    thm4a_applies: bool
    thm4b_applies: bool
    even: int
    odd: int


def sign_balance_report(P: Poset) -> SignBalanceReport:
    """The parity census of L(P) plus the two sign-balance hypotheses.

    The census is a path sum over J(P): the step adding t to an ideal I adds
    the |I & {t+1, ..., p-1}| inversions of t with the letters before it, so
    it negates the count when that number is odd, and reads no last letter.
    The signed sum is even - odd, and e(P) is even + odd.

    (a) every maximal chain length l (edge count) satisfies p = l mod 2;
    (b) for every t the maximal chains of the principal ideal below t have
        equal-parity lengths, and C(p,2) and Gamma(P) have opposite parity,
        where Gamma sums the longest-chain lengths of those ideals.  (The
        opposite-parity form is forced: with equal parities the p-element
        chain itself would be a counterexample, having one extension.)

    The maximal chains of the ideal below t are the cover paths from a
    minimal element up to t, so one pass in topological order keeps, for
    each t, the parities of their lengths (bit k for length = k mod 2) and
    the longest length.
    """
    e = count_extensions(P)
    signed = _path_sum(P, lambda mask, last, t, paths: (-1, -paths if (mask >> t).bit_count() & 1 else paths))
    even, odd = (e + signed) // 2, (e - signed) // 2

    p = P.p
    parity, longest = [0] * p, [0] * p
    for t in sorted(range(p), key=lambda t: P.geq_mask[t].bit_count()):
        if not P.down[t]:
            parity[t] = 1
        for s in P.down[t]:
            parity[t] |= (0, 2, 1, 3)[parity[s]]  # one more edge swaps the parities
            longest[t] = max(longest[t], longest[s] + 1)
    # The empty poset's one maximal chain is the empty chain, of length -1.
    thm4a = p > 0 and all(parity[t] == 1 << (p % 2) for t in P.maximals())
    thm4b = 3 not in parity and (p * (p - 1) // 2) % 2 != sum(longest) % 2

    return SignBalanceReport(
        balanced=(even == odd),
        thm4a_applies=thm4a,
        thm4b_applies=thm4b,
        even=even,
        odd=odd,
    )
