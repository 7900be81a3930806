"""Descent statistics, domino tableaux, self-evacuation, sign balance."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linext import posets, stats
from linext.corpus import corpus_p_le
from linext.posets import (
    CapExceeded,
    Shape,
    antichain,
    chain,
    count_extensions,
    ideals_lattice,
    linear_extensions,
    natural_relabel,
    poset_from_covers,
    shape_poset,
)
from linext.promotion import evacuate
from linext.ratfunc import peval
from linext.stats import (
    NotNaturalError,
    comaj,
    domino_to_selfevac,
    domino_word,
    dual_domino_tableaux,
    extension_parity,
    is_dual_domino_word,
    self_evacuating,
    sign_balance_report,
    wprime_poly,
)

NATURAL_CORPUS = {
    name: natural_relabel(P)[0] for name, P in corpus_p_le(8).items()
}


def test_requires_natural_labels():
    nonnat = poset_from_covers(2, [(1, 0)])
    with pytest.raises(NotNaturalError):
        comaj(nonnat, (1, 0))


def test_descent_statistics_on_words():
    P = antichain(4)
    w = (2, 0, 3, 1)  # descents at positions 1 and 3
    assert comaj(P, w) == (4 - 1) + (4 - 3)


def test_wprime_of_antichain_is_gaussian_like():
    # antichain(3): 6 words, comaj multiset {0,1,1,2,2,3} -> sum q^comaj
    poly = wprime_poly(antichain(3))
    assert poly == (1, 2, 2, 1)
    assert peval(poly, 1) == 6


def test_parity_is_inversion_parity():
    assert extension_parity((0, 1, 2)) == 0
    assert extension_parity((1, 0, 2)) == 1
    assert extension_parity((2, 1, 0)) == 1


@given(st.integers(0, 9).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=200)
def test_parity_by_cycles_matches_inversion_count(word):
    inversions = sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )
    assert extension_parity(tuple(word)) == inversions % 2


# --- dual domino tableaux -----------------------------------------------------

@given(st.sampled_from(sorted(NATURAL_CORPUS)))
def test_domino_tableaux_step_shapes(name):
    P = NATURAL_CORPUS[name]
    for t in dual_domino_tableaux(P):
        sizes = [len(ideal) for ideal in t]
        assert sizes[0] == 0 and sizes[-1] == P.p
        steps = [b - a for a, b in zip(sizes, sizes[1:])]
        if P.p % 2 == 1:
            assert steps[0] == 1 and all(s == 2 for s in steps[1:])
        else:
            assert all(s == 2 for s in steps)
        # each 2-step difference is a two-element chain in P
        for a, b in zip(t, t[1:]):
            diff = sorted(set(b) - set(a))
            if len(diff) == 2:
                assert P.less(diff[0], diff[1])


@given(st.sampled_from(sorted(NATURAL_CORPUS)))
def test_domino_words_roundtrip(name):
    P = NATURAL_CORPUS[name]
    for t in dual_domino_tableaux(P):
        w = domino_word(t)
        assert P.is_extension(w)
        assert is_dual_domino_word(P, w)


def test_dual_domino_walk_expands_each_ideal_once(monkeypatch):
    # J of the 3x4 rectangle (35 elements) has no dual domino tableau; walked
    # path by path, its dead ends took over a million kids calls
    J = ideals_lattice(shape_poset(Shape((4, 4, 4))))[0]
    calls, entered, joins, read = [], [], [], []
    kids_of, lex_walk, joins_of = stats._ideal_kids, posets._lex_walk, posets._joins

    class Entry(list):  # joins[k], recording k as a kids call reads it
        def __init__(self, k, down_sets):
            super().__init__(down_sets)
            self.k = k

        def __iter__(self):
            read.append(self.k)
            return super().__iter__()

    def ideal_kids(P):
        kids = kids_of(P)
        return lambda mask: calls.append(mask) or kids(mask)

    monkeypatch.setattr(posets, "_joins", lambda P, ids: joins.append(
        [Entry(k, down_sets) for k, down_sets in enumerate(joins_of(P, ids))]) or joins[-1])
    monkeypatch.setattr(stats, "_ideal_kids", ideal_kids)
    monkeypatch.setattr(posets, "_lex_walk", lambda root, kids, head: lex_walk(
        root, lambda mask: entered.append(mask) or kids(mask), head))
    assert dual_domino_tableaux(J) == []
    # every ideal's kids are asked of joins[|mask|], of one joins, and once
    assert len(joins) == 1 and read == [mask.bit_count() for mask in calls]
    assert len(set(calls)) == len(calls)
    walked = set(entered)
    expanded = [mask for mask in calls if mask in walked]
    assert len(expanded) == len(set(expanded)) == len(walked) and len(calls) < 1000
    assert len(entered) < 2 * len(expanded)  # a dead end is not walked again
    # the cap bounds the ideals expanded
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", len(expanded))
    assert dual_domino_tableaux(J) == []
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", len(expanded) - 1)
    with pytest.raises(CapExceeded, match=f"^dual domino tableaux of a 35-element poset need more than "
                                          f"{len(expanded) - 1} order ideals$"):
        dual_domino_tableaux(J)


def test_counts_on_known_posets():
    # diamond 0<1,2<3: W' = 1 + q^2, so W'(-1) = 2
    diamond = NATURAL_CORPUS["diamond"]
    assert peval(wprime_poly(diamond), -1) == 2
    assert len(dual_domino_tableaux(diamond)) == 2
    assert len(self_evacuating(diamond)) == 2


@given(st.sampled_from(sorted(NATURAL_CORPUS)))
def test_three_way_equality(name):
    P = NATURAL_CORPUS[name]
    tableaux = dual_domino_tableaux(P)
    selfev = self_evacuating(P)
    assert peval(wprime_poly(P), -1) == len(tableaux) == len(selfev)


@given(st.sampled_from(sorted(NATURAL_CORPUS)))
def test_domino_to_selfevac_is_bijection(name):
    P = NATURAL_CORPUS[name]
    tableaux = dual_domino_tableaux(P)
    images = [domino_to_selfevac(P, domino_word(t)) for t in tableaux]
    assert len(set(images)) == len(images)
    assert set(images) == set(self_evacuating(P))
    for w in images:
        assert evacuate(P, w) == w


# --- sign balance -------------------------------------------------------------

def test_sign_balance_hypothesis_a():
    # boolean3: every maximal chain has length 3, p = 8: 8 = 3 mod 2 fails;
    # antichain(2): maximal chains length 0, p = 2: 0 = 2 mod 2 holds.
    rep = sign_balance_report(antichain(2))
    assert rep.thm4a_applies and rep.balanced


def test_sign_balance_hypothesis_b_excludes_chains():
    rep = sign_balance_report(chain(4))
    assert not rep.thm4a_applies and not rep.thm4b_applies
    assert not rep.balanced  # a chain has one (even) extension


@given(st.sampled_from(sorted(NATURAL_CORPUS) + ["empty"]))
@example("empty")
def test_hypotheses_imply_balance(name):
    # The empty poset has one (even) extension: neither hypothesis may hold.
    P = NATURAL_CORPUS.get(name, antichain(0))
    rep = sign_balance_report(P)
    assert rep.even + rep.odd == count_extensions(P)
    if rep.thm4a_applies or rep.thm4b_applies:
        assert rep.balanced


def test_census_matches_direct_count():
    P = NATURAL_CORPUS["fence4"]
    rep = sign_balance_report(P)
    par = [extension_parity(w) for w in linear_extensions(P)]
    assert rep.even == par.count(0) and rep.odd == par.count(1)
