"""Poset construction, ideals, shapes, linear extension enumeration."""

import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext import posets
from linext.chains import cross_polytope, graded_from_poset
from linext.corpus import corpus
from linext.posets import (
    CapExceeded,
    CycleError,
    Poset,
    Shape,
    _mask_members,
    antichain,
    antichain_cuts_all_chains,
    chain,
    conjugate_extension,
    count_extensions,
    delete_element,
    disjoint_union,
    dual_poset,
    ideals,
    ideals_lattice,
    is_natural,
    linear_extensions,
    maximal_chains,
    natural_relabel,
    ordinal_sum,
    poset_from_covers,
    restrict,
    shape_poset,
)
from linext.promotion import dual_evacuate, extension_permutation
from linext.stats import dual_domino_tableaux, self_evacuating

# Random small posets: pick a subset of pairs (a, b) with a < b as relations,
# so the digraph is automatically acyclic.
@st.composite
def random_posets(draw, max_p=7):
    p = draw(st.integers(1, max_p))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=10) if pairs
                  else st.just([]))
    return poset_from_covers(p, chosen)


def test_cycle_detection():
    with pytest.raises(CycleError):
        poset_from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_chain_and_antichain_counts():
    assert count_extensions(chain(5)) == 1
    assert count_extensions(antichain(4)) == 24
    assert len(list(linear_extensions(antichain(4)))) == 24


def test_transitive_reduction():
    # 0<1<2 given redundantly still has 2 covers
    P = poset_from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert len(P.covers) == 2
    assert P.leq(0, 2)


@given(st.data())
@settings(max_examples=200)
def test_covers_from_input_pairs_are_the_reduction_of_the_closure(data):
    """Only the input pairs are tested for covering: on random DAGs given with
    repeated and implied pairs, in any order, the covers are exactly those of
    the full reduction of the closed order, each once."""
    p = data.draw(st.integers(1, 8))
    ids = data.draw(st.permutations(range(p)))
    base = [(ids[s], ids[t]) for s, t in data.draw(st.lists(
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=2 * p)) if s < t]
    implied = [(s, u) for s, t in base for t2, u in base if t == t2]
    P = poset_from_covers(p, data.draw(st.permutations(base + base[::2] + implied)))
    assert list(P.covers) == sorted(posets._reduce(P.leq_mask, P.geq_mask))


def test_leq_is_partial_order_on_diamond():
    P = poset_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert P.leq(0, 3) and not P.leq(1, 2) and not P.leq(2, 1)
    assert P.comparable(0, 3) and not P.comparable(1, 2)
    assert P.minimals() == (0,) and P.maximals() == (3,)


@given(random_posets())
@settings(max_examples=80)
def test_extensions_match_count_dp(P):
    words = list(linear_extensions(P))
    assert len(words) == count_extensions(P)
    assert len(set(words)) == len(words)
    for w in words:
        assert P.is_extension(w)
    # lexicographic emission
    assert words == sorted(words)


@given(random_posets(max_p=6))
@settings(max_examples=60)
def test_ideals_are_downward_closed(P):
    for mask in ideals(P):
        s = {t for t in range(P.p) if mask >> t & 1}
        for t in s:
            for below in range(P.p):
                if P.leq(below, t):
                    assert below in s


def test_ideals_sorted_by_size_then_members():
    # ideals_lattice ids, and so chain ids of J(P), depend on this order.
    for P in corpus().values():
        for Q in (P, dual_poset(P)):
            masks = ideals(Q)
            assert masks == sorted(
                masks, key=lambda m: (bin(m).count("1"), _mask_members(m))
            )


def _chains_on(ids, sizes) -> Poset:
    """Disjoint chains of `sizes`, the first on the first ids, and so on."""
    covers, start = [], 0
    for size in sizes:
        covers += [(ids[i], ids[i + 1]) for i in range(start, start + size - 1)]
        start += size
    return poset_from_covers(len(ids), covers)


def test_shuffled_disjoint_chains_count_and_ideals():
    # chains of sizes 1, 1, 1, 1, 3, 3 on shuffled ids, like the wide
    # benchmark poset: e(P) is the multinomial, |J(P)| the product of size + 1
    P = _chains_on([7, 2, 9, 0, 5, 3, 8, 1, 6, 4], (1, 1, 1, 1, 3, 3))
    assert count_extensions(P) == math.factorial(10) // (math.factorial(3) ** 2)
    masks = ideals(P)
    assert len(masks) == 2 ** 4 * 4 ** 2
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), _mask_members(m)))


@st.composite
def narrow_posets(draw, min_p, max_p, width):
    """Random posets on shuffled ids split into at most `width` chains, plus
    random pairs that respect one order of the ids, so J(P) stays small."""
    p = draw(st.integers(min_p, max_p))
    order = draw(st.permutations(range(p)))
    which = draw(st.lists(st.integers(0, width - 1), min_size=p, max_size=p))
    pairs = [(order[a], order[b]) for a, b in draw(st.lists(
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=p)) if a < b]
    for w in range(width):
        ids = [order[a] for a in range(p) if which[a] == w]
        pairs += zip(ids, ids[1:])
    return poset_from_covers(p, pairs)


def test_deep_and_long_walks():
    assert count_extensions(chain(2000)) == 1
    assert ideals(chain(2000)) == [(1 << k) - 1 for k in range(2001)]
    rectangle = shape_poset(Shape((40, 40)))
    assert count_extensions(rectangle) == math.comb(80, 40) // 41  # the Catalan number C_40
    assert len(ideals(rectangle)) == 41 * 42 // 2


@given(narrow_posets(7, 20, 3))
@settings(max_examples=100, deadline=None)
def test_ideals_sorted_by_size_then_members_across_key_bytes(P):
    # rev(m), the sort key and the high half of a twin, grows a byte at p = 9 and at p = 17
    masks = ideals(P)
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), _mask_members(m)))


def _ideal_bound(n: int, width: int) -> int:
    """The most ideals of an n-element poset in `width` chains: the product
    of length + 1 over chains as even as they can be."""
    return math.prod(n // width + (i < n % width) + 1 for i in range(width))


@st.composite
def disjoint_narrow_posets(draw, max_p=40, max_ideals=4096):
    """Disjoint unions of 2 to 6 narrow posets on shuffled ids, with at most
    max_p elements and max_ideals ideals: each part leaves room for two
    ideals and one element per part still to come."""
    parts = draw(st.integers(2, 6))
    covers, p, bound = [], 0, 1
    for left in range(parts - 1, -1, -1):
        width = draw(st.integers(1, 2))
        room = max_ideals // bound >> left
        n = draw(st.integers(1, max(n for n in range(1, max_p - p - left + 1)
                                    if _ideal_bound(n, width) <= room)))
        covers += [(s + p, t + p) for s, t in draw(narrow_posets(n, n, width)).covers]
        p, bound = p + n, bound * _ideal_bound(n, width)
    ids = draw(st.permutations(range(p)))
    return poset_from_covers(p, [(ids[s], ids[t]) for s, t in covers])


@given(disjoint_narrow_posets())
@settings(max_examples=60, deadline=None)
def test_ideals_of_disjoint_unions_are_one_walk_of_j_of_p_sorted(P):
    # the component product, on twins past 61 bits from p = 31, against one
    # walk of J(P) whole sorted by (size, members)
    masks = ideals(P)
    whole = [m for layer in posets._ideal_layers(posets._joins(P, range(P.p)), "") for m in layer]
    assert masks == sorted(whole, key=lambda m: (m.bit_count(), _mask_members(m)))


def test_count_extensions_cap(monkeypatch):
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 100)
    with pytest.raises(CapExceeded, match="12-element poset .* 100 order ideals"):
        count_extensions(antichain(12))
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 16)
    assert count_extensions(antichain(4)) == 24  # 16 ideals


def test_ideal_lattice_of_antichain_is_boolean():
    lat, members = ideals_lattice(antichain(3))
    assert lat.p == 8
    assert count_extensions(lat) == 48  # e(B_3)
    lat, members = ideals_lattice(antichain(11))
    assert lat.p == 2 ** 11 and len(lat.covers) == 11 * 2 ** 10


def test_ideal_lattice_refuses_a_closure_past_the_bit_budget(monkeypatch):
    # antichain(16) would close 65536 masks of 65536 bits each way, 2^33 bits
    message = "the order of J(P), 65536 ideals, needs 8589934592 bits, more than 2147483648"
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        ideals_lattice(antichain(16))
    # at 4096 ideals allowed the budget is 2^23 bits: antichain(11) needs it
    # exactly, as antichain(15) does at the default, and antichain(12) more
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 4096)
    assert ideals_lattice(antichain(11))[0].p == 2048
    message = "the order of J(P), 4096 ideals, needs 33554432 bits, more than 8388608"
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        ideals_lattice(antichain(12))


def test_ideal_lattice_is_the_reduced_poset_of_its_covers():
    """Its covers are exact, so building J(P) from them without a transitive
    reduction gives what the reducing constructor gives."""
    for name, P in corpus().items():
        lat, _ = ideals_lattice(P)
        ref = poset_from_covers(lat.p, list(lat.covers))
        fields = ("covers", "up", "down", "leq_mask", "geq_mask")
        assert [getattr(lat, f) for f in fields] == [getattr(ref, f) for f in fields], name


def test_ordinal_sum_and_disjoint_union():
    P = ordinal_sum(antichain(2), chain(2))
    assert count_extensions(P) == 2
    Q = disjoint_union(chain(2), chain(3))
    assert count_extensions(Q) == math.comb(5, 2)


def test_shape_cells_and_poset():
    s = Shape((3, 2))
    assert s.size == 5
    assert s.cells() == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
    P = shape_poset(s)
    assert count_extensions(P) == 5  # SYT of (3,2)


def test_shifted_shape_indentation():
    s = Shape((2, 1), shifted=True)
    assert s.cells() == ((1, 1), (1, 2), (2, 2))
    assert count_extensions(shape_poset(s)) == 1  # a 3-chain


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape((2, 3))  # not weakly decreasing
    with pytest.raises(ValueError):
        Shape((3, 3), shifted=True)  # shifted must be strict


def test_dual_poset_reverses():
    P = poset_from_covers(3, [(0, 1), (0, 2)])
    D = dual_poset(P)
    assert D.leq(1, 0) and D.leq(2, 0)
    w = next(linear_extensions(P))
    assert D.is_extension(conjugate_extension(w))


def test_maximal_chains_of_fence():
    P = poset_from_covers(4, [(0, 1), (2, 1), (2, 3)])
    chains_ = {tuple(c) for c in maximal_chains(P)}
    assert chains_ == {(0, 1), (2, 1), (2, 3)}


def test_maximal_chains_of_the_empty_poset():
    assert maximal_chains(antichain(0)) == []


def test_antichain_cutting():
    P = poset_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert antichain_cuts_all_chains(P, (1, 2))
    assert antichain_cuts_all_chains(P, (0,))
    assert not antichain_cuts_all_chains(P, (1,))


def test_restrict_and_delete():
    P = poset_from_covers(4, [(0, 1), (1, 2), (1, 3)])
    Q = delete_element(P, 1)
    assert Q.p == 3
    assert Q.leq(0, 1) and Q.leq(0, 2)  # relations through 1 survive
    sub, mapping = restrict(P, [0, 2, 3])
    assert sub.p == 3


def test_natural_relabel_fixes_natural_posets():
    P = poset_from_covers(3, [(0, 1), (1, 2)])
    assert is_natural(P)
    Q, relab = natural_relabel(P)
    assert Q.covers == P.covers
    nonnat = poset_from_covers(3, [(2, 0), (0, 1)])
    assert not is_natural(nonnat)
    R, relab = natural_relabel(nonnat)
    assert is_natural(R)
    assert count_extensions(R) == count_extensions(nonnat)


@given(random_posets(max_p=6))
@settings(max_examples=40)
def test_natural_relabel_preserves_structure(P):
    Q, relab = natural_relabel(P)
    assert is_natural(Q)
    assert count_extensions(Q) == count_extensions(P)
    for s, t in P.covers:
        assert Q.leq(relab[s], relab[t])


def test_natural_relabel_builds_no_ideal_lattice():
    # J(antichain(60)) has 2^60 ideals; the least addable element is taken 60 times.
    Q, relabel = natural_relabel(antichain(60))
    assert relabel == tuple(range(60)) and Q == antichain(60)
    Q, relabel = natural_relabel(dual_poset(chain(1200)))
    assert relabel == tuple(range(1199, -1, -1)) and Q == chain(1200)


def test_extension_cap():
    with pytest.raises(CapExceeded):
        list(linear_extensions(antichain(8), cap=100))


def test_ideal_cap_overflow_names_the_ideal_cap_whatever_the_extension_cap(monkeypatch):
    # With 1000 ideals allowed, counting antichain(12) overflows, so no cap on
    # e(P) (which is 12!) is named, though both caps are passed.
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 1000)
    for cap in (11879, 11880):
        with pytest.raises(CapExceeded, match=r"^e\(P\) of a 12-element poset needs more than 1000 order ideals$"):
            list(linear_extensions(antichain(12), cap=cap))
    assert len(list(linear_extensions(antichain(6), cap=720))) == 720  # 64 ideals


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update(repr(x).encode())
    return h.hexdigest()[:16]


def _pinned_spaces() -> dict:
    """Name -> (ExtensionSpace, poset of its maximal chains and domino tableaux)."""
    out = {name: (posets.extension_space(P), P) for name, P in corpus().items()}
    for rows in ((8, 8), (4, 4, 4), (5, 5, 5)):
        P = shape_poset(Shape(rows))
        out[str(rows)] = posets.extension_space(P), P
    for name, Q in (("J(4,4,4)", graded_from_poset(ideals_lattice(shape_poset(Shape((4, 4, 4))))[0])),
                    ("L_4", cross_polytope(4)[0])):
        out[name] = Q.space, Q.poset
    return out


# SHA-256 prefixes over _pinned_spaces() of the words, the tau rows, the three
# operator arrays, the evacuation fixed points, the maximal chains and the dual
# domino tableaux, as the lex walk with a yield at every node gave them
SPACE_DIGESTS = {
    "words": "2f93b4d1b78c87dd",
    "tau": "51e8a644c05828fc",
    "operators": "37fa713d5f361253",
    "fixed_points": "e180339602a36ab0",
    "maximal_chains": "780740d3129df136",
    "dual_domino_tableaux": "4ea41d1b8a8be13f",
}


def test_spaces_are_pinned_by_digest():
    spaces = _pinned_spaces()
    got = {
        "words": _digest(s.words for s, _ in spaces.values()),
        "tau": _digest(s.tau for s, _ in spaces.values()),
        "operators": _digest({n: s.operators[n] for n in ("promote", "evacuate", "dual_evacuate")}
                             for s, _ in spaces.values()),
        "fixed_points": _digest(s.fixed_points("evacuate") for s, _ in spaces.values()),
        "maximal_chains": _digest(maximal_chains(P) for _, P in spaces.values()),
        # left out: L_4, which has more than 200000 tableaux
        "dual_domino_tableaux": _digest(dual_domino_tableaux(P) for name, (_, P) in spaces.items()
                                        if name != "L_4"),
    }
    assert got == SPACE_DIGESTS
    with pytest.raises(CapExceeded, match="^more than 2 dual domino tableaux$"):
        dual_domino_tableaux(spaces["L_4"][1], 2)


def _pinned_ideal_posets() -> dict:
    """Name -> poset whose J(P) is pinned: the corpus and its duals, the
    benchmark's 12 shuffled chains on three shuffles, antichains of 0..12
    elements, and disconnected posets of 40 and 65 elements, past 61 bits."""
    out = {}
    for name, P in corpus().items():
        out[name], out[name + "*"] = P, dual_poset(P)
    wide = (1,) * 10 + (3, 3)
    shuffled = {"chains0": wide, "chains1": wide, "chains2": wide, "wide40": (30, 3, 1, 6), "wide65": (1, 60, 4)}
    for seed, (name, sizes) in enumerate(shuffled.items()):
        out[name] = _chains_on(random.Random(seed).sample(range(sum(sizes)), sum(sizes)), sizes)
    for p in range(13):
        out[f"antichain{p}"] = antichain(p)
    return out


# SHA-256 prefixes over _pinned_ideal_posets() of ideals(P), and of the covers
# and member tuples of ideals_lattice(P) but for chains1 and chains2
IDEAL_DIGESTS = {"ideals": "de4e04521c12b1bb", "ideals_lattice": "a5486048935b65f9"}


def test_ideals_are_pinned_by_digest():
    pinned = _pinned_ideal_posets()
    lattices = (ideals_lattice(P) for name, P in pinned.items() if name not in ("chains1", "chains2"))
    got = {
        "ideals": _digest(ideals(P) for P in pinned.values()),
        "ideals_lattice": _digest((lat.covers, [tuple(sorted(m)) for m in members])
                                  for lat, members in lattices),
    }
    assert got == IDEAL_DIGESTS


def test_lex_walk_edges():
    # a root with no kids is itself a leaf: the one empty word, the one-element chain
    assert posets.extension_space(antichain(0)).words == ((),)
    assert graded_from_poset(chain(1)).space.words == ((0,),)
    assert maximal_chains(chain(1)) == [(0,)]
    # p = 3 starts with one element, then finds no two-element chain to add
    assert dual_domino_tableaux(antichain(3)) == []


def test_each_run_is_built_when_one_of_its_operators_is_first_read(monkeypatch):
    runs, run = [], posets._Operators._runs
    monkeypatch.setattr(posets._Operators, "_runs", lambda self, rows: runs.append(rows) or run(self, rows))
    P = shape_poset(Shape((3, 3)))
    names = ("promote", "evacuate", "dual_evacuate")
    for read, count, built in (
        (lambda: None, 0, set()),
        (lambda: self_evacuating(P), 1, {"promote", "evacuate"}),  # the forward run alone
        (lambda: extension_permutation(P, dual_evacuate), 1, {"dual_evacuate"}),  # the backward run alone
        (lambda: [posets.extension_space(P).operators[name] for name in names * 2], 2, set(names)),
    ):
        monkeypatch.setattr(posets, "_SPACES", {})
        runs.clear()
        read()
        ops = posets.extension_space(P).operators
        assert (len(runs), set(ops)) == (count, built)
        with pytest.raises(KeyError, match="promote_p"):
            ops["promote_p"]
        assert (len(runs), set(ops)) == (count, built)


def test_extension_space_asks_only_the_elements_an_ideal_can_gain(monkeypatch):
    # an ideal of size k of chain(p) can gain k alone, so p down-sets are asked in all
    p, asked, joins_of, kids_of = 2000, [], posets._joins, posets._ideal_kids

    class Counted(list):  # a joins entry, counted as a kids call reads it
        def __iter__(self):
            asked.append(len(self))
            return super().__iter__()

    def ideal_kids(P):  # only the kids' joins are counted, not the count's
        with monkeypatch.context() as m:
            m.setattr(posets, "_joins", lambda P, ids: list(map(Counted, joins_of(P, ids))))
            return kids_of(P)

    monkeypatch.setattr(posets, "_SPACES", {})
    monkeypatch.setattr(posets, "_ideal_kids", ideal_kids)
    assert posets.extension_space(chain(p)).words == (tuple(range(p)),)
    assert 0 < sum(asked) <= 2 * p


def test_extension_space_walks_j_of_p_once_for_its_count_and_asks_each_ideal_once(monkeypatch):
    # a connected poset under its cap: one layered walk, for e(P), then one
    # kids call per ideal builds L(P)'s graph
    P, walks, asked = shape_poset(Shape((8, 8))), [], []
    layers, kids_of = posets._ideal_layers, posets._ideal_kids

    def ideal_kids(P):
        kids = kids_of(P)
        return lambda mask: asked.append(mask) or kids(mask)

    monkeypatch.setattr(posets, "_SPACES", {})
    monkeypatch.setattr(posets, "_ideal_layers", lambda j, msg: walks.append(j) or layers(j, msg))
    monkeypatch.setattr(posets, "_ideal_kids", ideal_kids)
    assert len(posets.extension_space(P).words) == 1430
    assert len(walks) == 1
    assert len(asked) == len(set(asked)) == len(ideals(P)) == 45


@pytest.mark.parametrize("p, ideal_cap, cap, message", [
    (10, None, 100, "e(P) = 3628800 exceeds cap 100"),
    (10, None, 3628799, "e(P) = 3628800 exceeds cap 3628799"),  # passed by one
    (12, 1000, 11879, "e(P) of a 12-element poset needs more than 1000 order ideals"),
    (12, 1000, 11880, "e(P) of a 12-element poset needs more than 1000 order ideals"),
], ids=["e", "e-late", "bound", "ideal-cap"])
def test_extension_space_over_its_cap_walks_no_j_of_p_whole(p, ideal_cap, cap, message, monkeypatch):
    # e(P) and the message come from the count, one element at a time
    joins, layers = [], posets._ideal_layers
    monkeypatch.setattr(posets, "_SPACES", {})
    monkeypatch.setattr(posets, "_ideal_layers", lambda j, msg: joins.append(j) or layers(j, msg))
    if ideal_cap is not None:
        monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", ideal_cap)
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        posets.extension_space(antichain(p), cap)
    assert joins and all(len(j) == 2 for j in joins) and posets._SPACES == {}


def test_count_of_a_wide_antichain_stops_at_the_ideal_cap(monkeypatch):
    # e(P) one component at a time: 21 one-element walks pass the cap, where one
    # walk of J(P) whole built the 499500 two-element ideals of antichain(1000)
    yielded, layers = [], posets._ideal_layers

    def counted(joins, message):
        for layer in layers(joins, message):
            yielded.append(len(layer))
            yield layer

    monkeypatch.setattr(posets, "_ideal_layers", counted)
    message = "e(P) of a 1000-element poset needs more than 1048576 order ideals"
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        count_extensions(antichain(1000))
    assert len(yielded) < 100 and sum(yielded) < 100
    assert count_extensions(disjoint_union(chain(30), chain(30))) == math.comb(60, 30)
