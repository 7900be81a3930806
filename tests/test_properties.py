"""Operator identities by property over random posets, not only the corpus."""

from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linext import posets
from linext.chains import (
    dual_domino_chains,
    dual_evacuate_chain,
    evacuate_chain,
    graded_from_poset,
    promote_chain,
)
from linext.flags import subspace_lattice
from linext.posets import (
    CapExceeded,
    CycleError,
    Shape,
    _ideal_layers,
    _joins,
    antichain,
    chain,
    count_extensions,
    disjoint_union,
    dual_poset,
    extension_space,
    ideals,
    ideals_lattice,
    linear_extensions,
    maximal_chains,
    natural_relabel,
    poset_from_covers,
    restrict,
    shape_poset,
)
from linext.promotion import (
    compose,
    cycle_lengths,
    delta_word,
    dihedral_order,
    dual_evacuate,
    dual_evacuate_via_dual,
    dual_promote,
    evacuate,
    evacuate_by_freezing,
    gamma_star_word,
    gamma_word,
    orbit_structure,
    permutation_power,
    promote,
    promote_slide,
    tau_word,
)
from linext.ratfunc import pnorm
from linext.sieve import F_poly, f_poly_sum, maj_tableau
from linext.stats import (
    comaj,
    domino_word,
    dual_domino_tableaux,
    extension_parity,
    is_dual_domino_word,
    self_evacuating,
    sign_balance_report,
    wprime_poly,
)


@st.composite
def dag_posets(draw, max_p=7):
    """A random poset on 1..max_p elements, ids shuffled so it need not be natural."""
    p = draw(st.integers(1, max_p))
    ids = draw(st.permutations(range(p)))
    pairs = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                          max_size=2 * p))
    return poset_from_covers(p, [(ids[s], ids[t]) for s, t in pairs if s < t])


@st.composite
def graded_posets(draw, max_height=5):
    """A random graded poset with one bottom and one top, 1 to 3 elements per
    inner rank: each element covers a nonempty set of the rank below, and
    each element under the top is covered, so intervals may have 3 middles."""
    ranks = [[0]]
    height = draw(st.integers(1, max_height))
    for r in range(1, height + 1):
        start = ranks[-1][-1] + 1
        ranks.append(list(range(start, start + (1 if r == height else draw(st.integers(1, 3))))))
    covers = set()
    for below, above in zip(ranks, ranks[1:]):
        for t in above:
            covers.update((s, t) for s in draw(st.lists(st.sampled_from(below), min_size=1, unique=True)))
        covers.update((s, draw(st.sampled_from(above))) for s in below
                      if not any((s, t) in covers for t in above))
    return graded_from_poset(poset_from_covers(ranks[-1][-1] + 1, covers))


@st.composite
def cyclic_digraphs(draw, max_p=8):
    """(p, pairs): random pairs on 2..max_p ids, in random order, around at
    least one directed cycle."""
    p = draw(st.integers(2, max_p))
    ids = draw(st.permutations(range(p)))
    k = draw(st.integers(2, p))
    loop = [(ids[i], ids[(i + 1) % k]) for i in range(k)]
    extra = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
                          .filter(lambda pair: pair[0] != pair[1]), max_size=2 * p))
    return p, draw(st.permutations(loop + extra))


@st.composite
def shapes(draw):
    """A random ordinary or shifted shape with at most 3 rows of at most 4 cells."""
    shifted = draw(st.booleans())
    rows = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return Shape(tuple(sorted(set(rows) if shifted else rows, reverse=True)), shifted)


def census(values) -> tuple:
    """The polynomial sum of x^v over the values."""
    coeffs = [0] * (max(values) + 1)
    for v in values:
        coeffs[v] += 1
    return pnorm(coeffs)


def lex_extensions(P, prefix=()) -> list:
    """Every linear extension in lex order, each prefix grown by every
    element whose lower covers it holds: a reference that never builds J(P)."""
    if len(prefix) == P.p:
        return [prefix]
    return [w for t in range(P.p) if t not in prefix and set(P.down[t]) <= set(prefix)
            for w in lex_extensions(P, prefix + (t,))]


@st.composite
def poset_and_extension(draw, max_p=7):
    P = draw(dag_posets(max_p))
    return P, draw(st.sampled_from(list(linear_extensions(P))))


@given(poset_and_extension())
@settings(max_examples=150, deadline=None)
def test_word_operators_match_reference_routes(Pw):
    P, w = Pw
    assert evacuate(P, w) == evacuate_by_freezing(P, w)
    assert dual_evacuate(P, w) == dual_evacuate_via_dual(P, w)
    assert promote(P, w) == promote_slide(P, w)[0]
    assert dual_promote(P, promote(P, w)) == w == promote(P, dual_promote(P, w))


@given(poset_and_extension(), st.integers(-3, 10))
@settings(max_examples=100, deadline=None)
def test_tau_index_out_of_range(Pw, i):
    P, w = Pw
    if 1 <= i <= P.p - 1:
        return
    with pytest.raises(IndexError):
        tau_word(P, w, (i,))


@given(poset_and_extension(max_p=6))
@settings(max_examples=80, deadline=None)
def test_chain_operators_on_ideal_lattice_match_extension_operators(Pw):
    """Stanley 5: a word w is the maximal chain of J(P) of its prefix ideals,
    and the chain operators of J(P) act on it as the word operators act on w."""
    P, w = Pw
    J, members = ideals_lattice(P)
    Q = graded_from_poset(J)
    index = {m: i for i, m in enumerate(members)}

    def prefix_chain(word):
        return tuple(index[frozenset(word[:k])] for k in range(P.p + 1))

    m = prefix_chain(w)
    assert promote_chain(Q, m) == prefix_chain(promote(P, w))
    assert evacuate_chain(Q, m) == prefix_chain(evacuate(P, w))
    assert dual_evacuate_chain(Q, m) == prefix_chain(dual_evacuate(P, w))


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_monoid_identities_on_permutations(P):
    """Thm 1 and Lemma 1 on L(P): epsilon and epsilon* are involutions,
    delta^p = epsilon epsilon* and delta epsilon = epsilon delta^-1."""
    ops = extension_space(P).operators
    pr, ev, dev = ops["promote"], ops["evacuate"], ops["dual_evacuate"]
    ident = list(range(len(pr)))
    inv_pr = [0] * len(pr)
    for k, j in enumerate(pr):
        inv_pr[j] = k
    assert compose(ev, ev) == ident
    assert compose(dev, dev) == ident
    assert permutation_power(pr, P.p) == compose(ev, dev)
    assert compose(pr, ev) == compose(ev, inv_pr)


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_promote_p_cycles_are_promotions_split_by_gcd(P):
    promote_ = extension_space(P).operators["promote"]
    assert orbit_structure(P, "promote_p").cycle_lengths == cycle_lengths(permutation_power(promote_, P.p))


def test_promote_p_at_p_0_and_1_is_the_identity():
    # p = 0 splits a cycle of length L into gcd(L, 0) = L fixed points; p = 1 splits none
    for P in (antichain(0), chain(1)):
        rep = orbit_structure(P, "promote_p")
        assert rep.cycle_lengths == (1,) and rep.size == 1


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_extension_space_matches_reference_routes(P):
    space = extension_space(P)
    words = space.words
    assert list(words) == list(linear_extensions(P))
    for i in range(1, P.p):
        assert [words[k] for k in space.tau[i]] == [tau_word(P, w, (i,)) for w in words]
    for name, taus, ref in (
        ("promote", delta_word(P.p), lambda w: promote_slide(P, w)[0]),
        ("evacuate", gamma_word(P.p), lambda w: evacuate_by_freezing(P, w)),
        ("dual_evacuate", gamma_star_word(P.p), lambda w: dual_evacuate_via_dual(P, w)),
    ):
        assert [words[k] for k in space.operators[name]] == [ref(w) for w in words]
        # the runs against the tau rows composed one letter at a time
        cur = range(len(words))
        for i in taus:
            cur = [space.tau[i][x] for x in cur]
        assert list(space.operators[name]) == list(cur)


@given(dag_posets())
@example(antichain(0))
@example(antichain(1))
@settings(max_examples=100, deadline=None)
def test_extension_space_lists_every_extension_in_lex_order(P):
    # each word is a prefix to the middle layer of J(P) and a suffix from it
    assert list(extension_space(P).words) == sorted(filter(P.is_extension, permutations(range(P.p))))


@given(st.one_of(graded_posets(), dag_posets(max_p=5).map(lambda P: graded_from_poset(ideals_lattice(P)[0]))))
@example(subspace_lattice(2, 2).graded)  # height 2, three middles
@example(subspace_lattice(3, 2).graded)  # height 3, seven atoms
@example(graded_from_poset(chain(1)))
@settings(max_examples=100, deadline=None)
def test_chain_space_lists_the_maximal_chains(Q):
    assert list(Q.space.words) == maximal_chains(Q.poset)


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_cached_space_still_checks_the_cap(P):
    space = extension_space(P)
    e = len(space.words)
    assert extension_space(P, cap=e) is space
    message = f"e\\(P\\) = {e} exceeds cap {e - 1}"
    for call in (
        lambda: extension_space(P, cap=e - 1),
        lambda: orbit_structure(P, "promote_p", cap=e - 1),
        lambda: dihedral_order(P, cap=e - 1),
    ):
        with pytest.raises(CapExceeded, match=message):
            call()


@given(dag_posets(max_p=6))
@settings(max_examples=30, deadline=None)
def test_equal_posets_share_one_space(P):
    Q = poset_from_covers(P.p, list(P.covers))
    assert Q is not P and Q == P
    assert extension_space(Q) is extension_space(P)


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_count_matches_enumeration_and_cap_is_checked_first(P):
    e = count_extensions(P)
    assert len(list(linear_extensions(P))) == e
    assert len(list(linear_extensions(P, cap=e))) == e
    words = linear_extensions(P, cap=e - 1)
    with pytest.raises(CapExceeded, match=f"e\\(P\\) = {e} exceeds cap {e - 1}"):
        next(words)


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_capped_words_are_the_walk_and_a_cache_hit_checks_the_cap(P):
    words = lex_extensions(P)
    e = len(words)
    space = extension_space(P, cap=e)
    assert list(linear_extensions(P, cap=e)) == words
    assert extension_space(P) is space
    capped = linear_extensions(P, cap=e - 1)  # a generator: nothing runs yet
    with pytest.raises(CapExceeded, match=f"e\\(P\\) = {e} exceeds cap {e - 1}"):
        next(capped)


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_self_evacuating_are_the_fixed_points_of_freezing(P):
    assert self_evacuating(P) == [
        w for w in lex_extensions(P) if evacuate_by_freezing(P, w) == w
    ]


def brute_force_ideals(P) -> list:
    """The down-closed subsets among all 2^p, as member tuples by (size, members)."""
    subsets = [
        tuple(t for t in range(P.p) if m >> t & 1) for m in range(1 << P.p)
    ]
    downsets = [
        S for S in subsets if all(s in S for (s, t) in P.covers if t in S)
    ]
    return sorted(downsets, key=lambda S: (len(S), S))


def members_of(mask) -> tuple:
    return tuple(t for t in range(mask.bit_length()) if mask >> t & 1)


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_ideals_are_the_downsets_in_size_then_member_order(P):
    assert [members_of(m) for m in ideals(P)] == brute_force_ideals(P)


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_ideal_lattice_covers_add_one_minimal_element(P):
    lattice, members = ideals_lattice(P)
    found = {(members[lo], members[hi]) for (lo, hi) in lattice.covers}
    expected = set()
    for S in brute_force_ideals(P):
        I = frozenset(S)
        for t in set(range(P.p)) - I:
            if all(s in I for (s, u) in P.covers if u == t):  # t minimal outside I
                expected.add((I, I | {t}))
    assert found == expected


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_ideal_cap_admits_exactly_the_ideal_count(P):
    # patch.object, not monkeypatch: a function-scoped fixture trips Hypothesis
    n = len(brute_force_ideals(P))
    e = count_extensions(P)
    with patch.object(posets, "DEFAULT_IDEAL_CAP", n):
        assert len(ideals(P)) == len(ideals_lattice(P)[1]) == n
        assert count_extensions(P) == e
    with patch.object(posets, "DEFAULT_IDEAL_CAP", n - 1):
        for call in (ideals, ideals_lattice):
            with pytest.raises(CapExceeded, match=f"^more than {n - 1} order ideals$"):
                call(P)
        with pytest.raises(CapExceeded, match=f"needs more than {n - 1} order ideals"):
            count_extensions(P)


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_each_layer_holds_ideals_with_the_extension_counts_of_their_subposets(P):
    for size, layer in enumerate(_ideal_layers(_joins(P, range(P.p)), "unreachable")):
        for mask, paths in layer.items():
            S = members_of(mask)
            assert len(S) == size
            assert all(s in S for (s, t) in P.covers if t in S)  # down-closed
            sub, _ = restrict(P, S)
            assert paths == len(lex_extensions(sub)), S


def all_elements_layers(P) -> list:
    """The layers of J(P) as (mask, paths) lists in insertion order, each
    built by one pass of every element over the layer before it."""
    down_sets = posets._down_sets(P, range(P.p))
    layer, out = {0: 1}, []
    while layer:
        out.append(list(layer.items()))
        nxt = {}
        for bit, geq, below in down_sets:
            for mask, paths in layer.items():
                if mask & geq == below:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + paths
        layer = nxt
    return out


@given(st.one_of(dag_posets(max_p=10), st.integers(0, 12).map(chain), st.integers(0, 10).map(antichain)))
@settings(max_examples=150, deadline=None)
def test_windowed_walk_matches_the_all_elements_walk(P):
    # same layers, keys, path counts and insertion order, p = 0 included; with
    # an identity step too, its states (mask, -1)
    joins, want = _joins(P, range(P.p)), all_elements_layers(P)
    got = [list(layer.items()) for layer in _ideal_layers(joins, "unreachable")]
    assert got == want
    got = [list(layer.items()) for layer in _ideal_layers(joins, "unreachable", lambda m, last, t, v: (-1, v))]
    assert got == [[((mask, -1), paths) for mask, paths in layer] for layer in want]


@st.composite
def disjoint_unions(draw):
    """1-3 random posets side by side, the ids of their union shuffled."""
    parts = draw(st.lists(dag_posets(max_p=4), min_size=1, max_size=3))
    union = parts[0]
    for part in parts[1:]:
        union = disjoint_union(union, part)
    ids = draw(st.permutations(range(union.p)))
    return poset_from_covers(union.p, [(ids[s], ids[t]) for s, t in union.covers])


def one_walk_reference(P) -> tuple:
    """(e(P), the ideals by (size, members), |J(P)|) off the all-elements
    walk of J(P) whole, with no split into connected components."""
    layers = all_elements_layers(P)
    masks = [m for layer in layers for m in sorted((m for m, _ in layer), key=members_of)]
    return layers[-1][0][1], masks, len(masks)


@given(st.one_of(disjoint_unions(), st.integers(0, 7).map(antichain)))
@settings(max_examples=150, deadline=None)
def test_component_walks_match_one_walk_of_j_of_p_whole(P):
    e, masks, n = one_walk_reference(P)
    assert count_extensions(P) == e
    assert ideals(P) == masks
    # the space still walks all of J(P), so it is an independent route to e(P)
    space_cap = 5000
    if e <= space_cap:
        assert len(extension_space(P, space_cap).words) == e
    else:
        with pytest.raises(CapExceeded, match=f"^e\\(P\\) = {e} exceeds cap {space_cap}$"):
            extension_space(P, space_cap)
    for cap in (64, 5):
        with patch.object(posets, "DEFAULT_IDEAL_CAP", cap):
            if n > cap:
                with pytest.raises(CapExceeded, match=f"^e\\(P\\) of a {P.p}-element poset "
                                                      f"needs more than {cap} order ideals$"):
                    count_extensions(P)
                with pytest.raises(CapExceeded, match=f"^more than {cap} order ideals$"):
                    ideals(P)
            else:
                assert (count_extensions(P), ideals(P)) == (e, masks)


def brute_force_maximal_chains(P) -> list:
    """The chains that no element of P extends, each listed upward, sorted."""
    chains_ = [S for S in map(members_of, range(1 << P.p))
               if all(P.comparable(s, t) for s in S for t in S)]
    maximal = [S for S in chains_ if not any(set(S) < set(T) for T in chains_)]
    return sorted(tuple(sorted(S, key=lambda t: P.geq_mask[t].bit_count())) for S in maximal)


@given(dag_posets())
@settings(max_examples=100, deadline=None)
def test_maximal_chains_are_the_unextendable_chains_in_order(P):
    assert maximal_chains(P) == brute_force_maximal_chains(P)


@given(dag_posets(max_p=8))
@settings(max_examples=60, deadline=None)
def test_domino_tableaux_are_the_domino_words_in_lex_order(P):
    Q, _ = natural_relabel(P)
    assert [domino_word(T) for T in dual_domino_tableaux(Q)] == [
        w for w in linear_extensions(Q) if is_dual_domino_word(Q, w)
    ]


@given(dag_posets(max_p=6))
@settings(max_examples=60, deadline=None)
def test_w_polys_are_descent_censuses(P):
    Q, _ = natural_relabel(P)
    words = list(linear_extensions(Q))
    assert wprime_poly(Q) == census([comaj(Q, w) for w in words])


@given(shapes())
@settings(max_examples=60, deadline=None)
def test_f_poly_sum_is_the_maj_census(s):
    words = list(linear_extensions(shape_poset(s)))
    assert f_poly_sum(s) == census([maj_tableau(s, w) for w in words])


@given(shapes())
@settings(max_examples=60, deadline=None)
def test_f_poly_path_sum_is_the_tableau_sum(s):
    assert F_poly(s) == f_poly_sum(s)


@given(dag_posets())
@settings(max_examples=150, deadline=None)
def test_sign_census_path_sum_is_the_parity_census(P):
    odd = sum(extension_parity(w) for w in linear_extensions(P))
    rep = sign_balance_report(P)
    assert (rep.even, rep.odd) == (count_extensions(P) - odd, odd)


def sign_balance_hypotheses_by_chains(P) -> tuple:
    """(a) and (b) of the sign-balance theorem from the maximal chains of P
    and of the principal ideal below each t."""
    p = P.p
    thm4a = all((len(ch) - 1) % 2 == p % 2 for ch in maximal_chains(P))
    gamma = 0
    for t in range(p):
        sub, _ = restrict(P, [s for s in range(p) if P.leq(s, t)])
        lengths = [len(ch) - 1 for ch in maximal_chains(sub)]
        if len({length % 2 for length in lengths}) > 1:
            return thm4a, False
        gamma += max(lengths)
    return thm4a, (p * (p - 1) // 2) % 2 != gamma % 2


@given(dag_posets())
@settings(max_examples=150, deadline=None)
def test_sign_balance_hypotheses_match_the_chain_definition(P):
    rep = sign_balance_report(P)
    assert (rep.thm4a_applies, rep.thm4b_applies) == sign_balance_hypotheses_by_chains(P)


@given(cyclic_digraphs())
@settings(max_examples=150, deadline=None)
def test_cycle_error_names_a_closed_cycle_of_input_pairs(case):
    p, pairs = case
    with pytest.raises(CycleError) as info:
        poset_from_covers(p, pairs)
    cycle = info.value.cycle
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    assert set(zip(cycle, cycle[1:])) <= set(pairs)


@pytest.mark.parametrize("pairs, cycle", [
    ([(0, 1), (1, 2), (2, 0)], "0 < 1 < 2 < 0"),
    ([(0, 1), (1, 0)], "0 < 1 < 0"),
    ([(3, 4), (0, 1), (1, 2), (2, 3), (3, 1)], "1 < 2 < 3 < 1"),
    ([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], "0 < 1 < 2 < 3 < 0"),
])
def test_cycle_messages(pairs, cycle):
    with pytest.raises(CycleError, match=f"^cover relation has a cycle: {cycle}$"):
        poset_from_covers(5, pairs)


def poset_fields(P) -> tuple:
    """All six fields; Poset equality reads only p and covers."""
    return P.p, P.covers, P.up, P.down, P.leq_mask, P.geq_mask


@given(dag_posets(max_p=8), st.data())
@settings(max_examples=150, deadline=None)
def test_dual_and_restrict_equal_the_posets_built_from_their_pairs(P, data):
    reversed_covers = [(t, s) for s, t in P.covers]
    assert poset_fields(dual_poset(P)) == poset_fields(poset_from_covers(P.p, reversed_covers))
    sub, keep = restrict(P, data.draw(st.sets(st.integers(0, P.p - 1))))
    index = {t: i for i, t in enumerate(keep)}
    induced = [(index[s], index[t]) for s in keep for t in keep if P.less(s, t)]
    assert poset_fields(sub) == poset_fields(poset_from_covers(len(keep), induced))


@given(dag_posets(max_p=7))
@settings(max_examples=80, deadline=None)
def test_dual_domino_chains_of_the_ideal_lattice_are_the_dual_domino_tableaux(P):
    """The maximal-chain filter of chains.py and the ideal walk of stats.py
    give the same dual P-domino tableaux."""
    J, members = ideals_lattice(P)
    by_members = [tuple(members[i] for i in m)
                  for m in dual_domino_chains(graded_from_poset(J))]

    def key(tableau):
        return [sorted(ideal) for ideal in tableau]

    assert sorted(by_members, key=key) == sorted(dual_domino_tableaux(P), key=key)
