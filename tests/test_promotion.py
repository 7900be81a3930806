"""Promotion, evacuation, and their interplay on linear extensions."""

import hashlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext import posets, sieve, stats
from linext.chains import signed_group_order
from linext.corpus import corpus, corpus_p_le
from linext.posets import (
    Shape,
    antichain,
    chain,
    linear_extensions,
    poset_from_covers,
    shape_poset,
)
from linext.promotion import (
    ORBIT_OPERATORS,
    compose,
    cycle_lengths,
    dihedral_group_order,
    dihedral_order,
    dual_evacuate,
    dual_evacuate_via_dual,
    dual_promote,
    evacuate,
    evacuate_by_freezing,
    extension_permutation,
    orbit_structure,
    permutation_power,
    principal_chain,
    promote,
    promote_slide,
    promotion_blocks,
    rotate_blocks,
    tau_word,
    trajectory,
)

CORPUS = corpus_p_le(8)


# --- tau relations -----------------------------------------------------------

@given(st.sampled_from(sorted(CORPUS)), st.data())
@settings(max_examples=60)
def test_tau_involution_and_commutation(name, data):
    P = CORPUS[name]
    if P.p < 2:
        return
    w = data.draw(st.sampled_from(list(linear_extensions(P))))
    i = data.draw(st.integers(1, P.p - 1))
    assert tau_word(P, tau_word(P, w, (i,)), (i,)) == w
    if P.p >= 4:
        j = data.draw(st.integers(1, P.p - 1))
        if abs(i - j) >= 2:
            assert tau_word(P, w, (i, j)) == tau_word(P, w, (j, i))


def test_tau_swaps_only_incomparable():
    P = poset_from_covers(3, [(0, 1)])  # 2 incomparable to both
    assert tau_word(P, (0, 1, 2), (1,)) == (0, 1, 2)  # 0 < 1: fixed
    assert tau_word(P, (0, 1, 2), (2,)) == (0, 2, 1)  # 1 || 2: swapped


# --- block factorization ------------------------------------------------------

def test_block_rotation_example():
    # word c a b d f e g h j i l k over letters a..l (ids 0..11) with the
    # only forced relations c<f, f<h, h<j; the factorization is
    # (cabd)(feg)(h)(jilk) and one promotion rotates each block left.
    letters = "abcdefghijkl"
    ids = {ch: i for i, ch in enumerate(letters)}
    P = poset_from_covers(12, [(ids["c"], ids["f"]),
                               (ids["f"], ids["h"]),
                               (ids["h"], ids["j"])])
    z = tuple(ids[ch] for ch in "cabdfeghjilk")
    assert P.is_extension(z)
    blocks = promotion_blocks(P, z)
    assert ["".join(letters[t] for t in b) for b in blocks] == [
        "cabd", "feg", "h", "jilk"
    ]
    zd = promote(P, z)
    # concatenating the rotated blocks (abdc)(egf)(h)(ilkj)
    assert "".join(letters[t] for t in zd) == "abdcegfhilkj"
    assert rotate_blocks(blocks) == zd


@given(st.sampled_from(sorted(CORPUS)))
def test_blocks_partition_the_word(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        blocks = promotion_blocks(P, w)
        flat = tuple(t for b in blocks for t in b)
        assert flat == w
        for b in blocks:
            head = b[0]
            assert all(not P.comparable(head, t) for t in b[1:])


# --- promotion equivalences ---------------------------------------------------

@given(st.sampled_from(sorted(CORPUS)))
def test_slide_route_equals_word_route(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        slid, chain_ = promote_slide(P, w)
        assert slid == promote(P, w) == promote(P, w)
        # the promotion chain starts at the first element and is saturated
        assert chain_[0] == w[0]
        for a, b in zip(chain_, chain_[1:]):
            assert (a, b) in set(P.covers)


def test_the_empty_word_is_fixed():
    P = antichain(0)
    assert promote_slide(P, ()) == ((), ())
    for op in (promote, dual_promote, evacuate, dual_evacuate):
        assert op(P, ()) == ()
    assert principal_chain(P, ()) == trajectory(P, ()) == ()


@given(st.sampled_from(sorted(CORPUS)))
def test_promote_and_dual_promote_are_inverse(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        assert dual_promote(P, promote(P, w)) == w
        assert promote(P, dual_promote(P, w)) == w


def test_promotion_on_antichain_is_rotation():
    P = antichain(4)
    assert promote(P, (0, 1, 2, 3)) == (1, 2, 3, 0)


# --- evacuation ---------------------------------------------------------------

@given(st.sampled_from(sorted(CORPUS)))
def test_evacuation_is_involution(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        assert evacuate(P, evacuate(P, w)) == w
        assert dual_evacuate(P, dual_evacuate(P, w)) == w


@given(st.sampled_from(sorted(CORPUS)))
def test_evacuation_routes_agree(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        e = evacuate(P, w)
        assert evacuate_by_freezing(P, w) == e
        assert dual_evacuate_via_dual(P, w) == dual_evacuate(P, w)


@given(st.sampled_from(sorted(CORPUS)))
def test_promotion_power_p_is_evac_composition(name):
    P = CORPUS[name]
    ops = posets.extension_space(P).operators
    assert permutation_power(ops["promote"], P.p) == compose(ops["evacuate"], ops["dual_evacuate"])


def test_extension_permutation_rejects_other_operators():
    P = shape_poset(Shape((2, 2)))
    with pytest.raises(ValueError, match="unknown operator"):
        extension_permutation(P, lambda P, w: w)
    with pytest.raises(ValueError, match="unknown operator"):
        extension_permutation(P, tau_word)


@given(st.sampled_from(sorted(CORPUS)))
def test_conjugation_inverts_promotion(name):
    # promote then evacuate = evacuate then dual-promote
    P = CORPUS[name]
    for w in linear_extensions(P):
        assert evacuate(P, promote(P, w)) == dual_promote(P, evacuate(P, w))


# --- chains -------------------------------------------------------------------

@given(st.sampled_from(sorted(k for k, v in CORPUS.items() if v.p <= 7)))
def test_principal_chain_is_trajectory_of_evacuation(name):
    P = CORPUS[name]
    for w in linear_extensions(P):
        assert principal_chain(P, w) == trajectory(P, evacuate(P, w))


def test_trajectory_is_promotion_chain():
    P = poset_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for w in linear_extensions(P):
        _, chain_ = promote_slide(P, w)
        assert trajectory(P, w) == chain_


# --- orbit structure ----------------------------------------------------------

def test_orbit_report_on_square():
    rep = orbit_structure(CORPUS["rect22"], "promote")
    assert rep.size == 2
    assert sorted(rep.cycle_lengths) == [2]
    rep_e = orbit_structure(CORPUS["rect22"], "evacuate")
    assert all(L in (1, 2) for L in rep_e.cycle_lengths)


@given(st.sampled_from(sorted(CORPUS)))
def test_evacuation_cycles_are_short(name):
    P = CORPUS[name]
    rep = orbit_structure(P, "evacuate")
    assert all(L in (1, 2) for L in rep.cycle_lengths)
    assert sum(rep.cycle_lengths) == rep.size


def test_permutation_helpers():
    # perm[k] is the image of index k; a list and an array('i') act alike
    for perm in ([1, 2, 0, 3], array("i", [1, 2, 0, 3])):
        assert cycle_lengths(perm) == (1, 3)
        assert permutation_power(perm, 0) == [0, 1, 2, 3]
        assert permutation_power(perm, 2) == compose(perm, perm) == [2, 0, 1, 3]
        assert permutation_power(perm, 3) == [0, 1, 2, 3]
    # right action: first swaps 0 and 1, then second swaps 1 and 2
    assert compose([1, 0, 2], [0, 2, 1]) == [2, 0, 1]
    assert dihedral_group_order(array("i", [1, 0, 2]), [0, 2, 1]) == 6
    assert cycle_lengths([]) == ()
    assert dihedral_group_order([], []) == dihedral_group_order([0], [0]) == 1


# --- dihedral group -----------------------------------------------------------

def test_dihedral_orders():
    assert dihedral_order(chain(4)) == 1
    assert dihedral_order(CORPUS["rect22"]) == 2
    assert dihedral_order(CORPUS["staircase21"]) == 4
    # antichain: evacuation and its dual are both the reversal, so the
    # product is the identity and the group is Z/2Z
    assert dihedral_order(antichain(3)) == 2


# --- the orbit census, pinned --------------------------------------------------

CENSUS_SHAPES = ((Shape((4, 4)), "rectangle"), (Shape((3, 3, 3)), "rectangle"),
                 (Shape((4, 3, 2, 1)), "staircase"), (Shape((5, 3, 1), shifted=True), "shifted_double_staircase"))

# SHA-256 prefixes of the orbit_structure report of every operator and the
# dihedral order on the corpus and CENSUS_SHAPES, of special_shape_check on
# those shapes, and of signed_group_order(1..5)
CENSUS_DIGESTS = {
    "orbits": "88bc1285c8c01430",
    "special_shapes": "ad96470c914679ca",
    "signed_group_orders": "e7fda19be34d28da",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update(repr(x).encode())
    return h.hexdigest()[:16]


def test_orbit_census_is_pinned_by_digest():
    posets_ = list(corpus().values()) + [shape_poset(s) for s, _ in CENSUS_SHAPES]
    assert len(posets_) == 30
    got = {
        "orbits": _digest((*(orbit_structure(P, op) for op in ORBIT_OPERATORS), dihedral_order(P))
                          for P in posets_),
        "special_shapes": _digest(sieve.special_shape_check(s, kind) for s, kind in CENSUS_SHAPES),
        "signed_group_orders": _digest(signed_group_order(n) for n in range(1, 6)),
    }
    assert got == CENSUS_DIGESTS


# --- the cached ExtensionSpace -----------------------------------------------

def _count_walks(monkeypatch) -> list:
    """Empty the space cache and record the arguments of every build of L(P)."""
    monkeypatch.setattr(posets, "_SPACES", {})
    calls = []
    build = posets.ExtensionSpace

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(posets, "ExtensionSpace", counting)
    return calls


def test_one_enumeration_serves_every_operator_of_a_poset(monkeypatch):
    calls = _count_walks(monkeypatch)
    P = shape_poset(Shape((4, 4)))
    for op in (promote, evacuate, dual_evacuate):
        assert len(extension_permutation(P, op)) == 14
    assert orbit_structure(P, "promote").size == 14
    assert dihedral_order(P) == 2
    assert len(calls) == 1


def test_one_enumeration_serves_every_statistic_of_a_poset(monkeypatch):
    calls = _count_walks(monkeypatch)
    s = Shape((4, 4))
    P = shape_poset(s)
    words = list(linear_extensions(P))
    assert len(words) == 14
    assert stats.wprime_poly(P) == (1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 1, 0, 1)
    assert len(stats.self_evacuating(P)) == 6
    assert stats.sign_balance_report(P).even == 7
    assert sieve.f_poly_sum(s) == sieve.f_poly_hook(s)
    assert len(calls) == 1
    # the words are the tuples the space holds
    assert all(a is b for a, b in zip(words, linear_extensions(P)))
    assert len(calls) == 1 and list(posets._SPACES) == [P]


def test_space_cache_keeps_only_the_newest_posets(monkeypatch):
    monkeypatch.setattr(posets, "_SPACES", {})
    newest = []
    for n in range(1, 11):
        P = chain(n)
        assert orbit_structure(P, "promote").size == 1
        newest = (newest + [P])[-posets.SPACE_CACHE_SIZE:]
        assert list(posets._SPACES) == newest
    assert len(posets._SPACES) == posets.SPACE_CACHE_SIZE
