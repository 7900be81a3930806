"""Operator identities by property over random posets, not only the corpus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext.chains import (
    dual_evacuate_chain,
    evacuate_chain,
    graded_from_poset,
    promote_chain,
)
from linext.posets import ideals_lattice, linear_extensions, poset_from_covers
from linext.promotion import (
    dual_evacuate,
    dual_evacuate_via_dual,
    evacuate,
    evacuate_by_freezing,
    promote,
    promote_slide,
    tau,
    tau_word,
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


@given(poset_and_extension(), st.integers(-3, 10))
@settings(max_examples=100, deadline=None)
def test_tau_index_out_of_range(Pw, i):
    P, w = Pw
    if 1 <= i <= P.p - 1:
        return
    with pytest.raises(IndexError):
        tau_word(P, w, (i,))
    with pytest.raises(IndexError):
        tau(P, w, i)


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
