"""Graded posets, slenderness, chain promotion, cross-polytopes, Eq.-(7) ops."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext import chains, posets
from linext.chains import (
    ChainVector,
    GradedPoset,
    all_signed_perms,
    chain_neighbors,
    chain_to_signed_perm,
    cross_polytope,
    dual_domino_chains,
    dual_evacuate_chain,
    evacuate_chain,
    evacuate_chains,
    graded_from_poset,
    linear_tau,
    maximal_chains,
    promote_chain,
    promote_chains,
    self_evacuating_chains,
    signed_delta,
    signed_delta_power,
    signed_gamma,
    signed_gamma_star,
    signed_group_order,
    tau_chain,
)
from linext.corpus import boolean_lattice, weak_order_s3
from linext.flags import subspace_lattice
from linext.posets import ExtensionSpace, Shape, ideals_lattice, shape_poset
from linext.posets import chain as chain_poset
from linext.posets import poset_from_covers
from linext.stats import self_evacuating


def graded(P):
    return graded_from_poset(P)


def test_graded_rejects_unranked():
    # maximal chains 0<1<2<4 and 0<3<4 disagree on the rank of 4
    P = poset_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(ValueError):
        graded_from_poset(P)


def test_boolean_lattice_is_slender_weak_order_too():
    b3 = graded(boolean_lattice(3))
    assert b3.slender
    ws3 = graded(weak_order_s3())
    assert ws3.slender
    assert len(maximal_chains(b3)) == 6
    assert len(maximal_chains(ws3)) == 2


def test_tau_chain_swaps_unique_middle():
    ws3 = graded(weak_order_s3())
    m1, m2 = maximal_chains(ws3)
    assert tau_chain(ws3, m1, 1) == m2 or tau_chain(ws3, m1, 1) == m1
    # involution
    for m in (m1, m2):
        for i in (1, 2):
            assert tau_chain(ws3, tau_chain(ws3, m, i), i) == m


def _middles(Q, s, t):
    """Elements strictly between s and t, from the order relation."""
    P = Q.poset
    return posets._mask_members(P.leq_mask[s] & P.geq_mask[t] & ~(1 << s) & ~(1 << t))


def _tau_by_middles(Q, m, i):
    others = [t for t in _middles(Q, m[i - 1], m[i + 1]) if t != m[i]]
    return m[:i] + (others[0],) + m[i + 1:] if others else m


@pytest.mark.parametrize("which", ["J(3,3)", "L_3"])
def test_rank2_table_matches_middles(which):
    if which == "L_3":
        Q, _ = cross_polytope(3)
    else:
        Q = graded(ideals_lattice(shape_poset(Shape((3, 3))))[0])
    P = Q.poset
    assert Q.rank2 == {
        (s, t): _middles(Q, s, t)
        for s in range(P.p)
        for t in range(P.p)
        if P.less(s, t) and Q.rank[t] - Q.rank[s] == 2
    }
    for m in maximal_chains(Q):
        for i in range(1, Q.height):
            assert tau_chain(Q, m, i) == _tau_by_middles(Q, m, i)


@st.composite
def dag_ideal_lattices(draw, max_p=6):
    """(P, J(P) graded, members of each ideal) for a random poset P on
    1..max_p elements, ids shuffled so it need not be natural."""
    p = draw(st.integers(1, max_p))
    ids = draw(st.permutations(range(p)))
    pairs = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                          max_size=2 * p))
    P = poset_from_covers(p, [(ids[s], ids[t]) for s, t in pairs if s < t])
    J, members = ideals_lattice(P)
    return P, graded(J), members


@given(dag_ideal_lattices())
@settings(max_examples=60, deadline=None)
def test_chain_tau_rows_are_the_swaps_of_middles(PQ):
    _, Q, _ = PQ
    for m in maximal_chains(Q):
        for i in range(1, Q.height):
            assert tau_chain(Q, m, i) == _tau_by_middles(Q, m, i)


@given(dag_ideal_lattices())
@settings(max_examples=60, deadline=None)
def test_self_evacuating_chains_are_the_prefix_chains_of_self_evacuating_words(PQ):
    P, Q, members = PQ
    index = {ideal: k for k, ideal in enumerate(members)}
    prefix_chains = [tuple(index[frozenset(w[:k])] for k in range(P.p + 1))
                     for w in self_evacuating(P)]
    assert self_evacuating_chains(Q) == sorted(prefix_chains)


@given(dag_ideal_lattices(max_p=4), st.data())
@settings(max_examples=30, deadline=None)
def test_chain_operators_accept_a_list(PQ, data):
    _, Q, _ = PQ
    m = data.draw(st.sampled_from(maximal_chains(Q)))
    for op in (promote_chain, evacuate_chain, dual_evacuate_chain):
        assert op(Q, list(m)) == op(Q, m)
    for i in range(1, Q.height):
        assert tau_chain(Q, list(m), i) == tau_chain(Q, m, i)


def test_dual_evacuate_chain_is_signed_gamma_star():
    Q, faces = cross_polytope(4)
    for m in maximal_chains(Q):
        w = chain_to_signed_perm(faces, m)
        image = dual_evacuate_chain(Q, m)
        assert chain_to_signed_perm(faces, image) == signed_gamma_star(w)


def test_non_slender_rejected_on_every_call():
    Q = subspace_lattice(2, 2).graded  # [0, F_2^2] has 3 middles
    m = maximal_chains(Q)[0]
    calls = (
        lambda: tau_chain(Q, m, 1),
        lambda: promote_chain(Q, m),
        lambda: evacuate_chain(Q, m),
        lambda: dual_evacuate_chain(Q, m),
        lambda: self_evacuating_chains(Q),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(ValueError, match="slender"):
                call()
    assert not Q.slender


def test_chain_listings_and_operators_share_one_walk(monkeypatch):
    spaces = []  # the root of each ExtensionSpace built

    def counted(p, root, kids, head):
        spaces.append(root)
        return ExtensionSpace(p, root, kids, head)

    monkeypatch.setattr(chains, "ExtensionSpace", counted)
    Q = graded(boolean_lattice(4))
    ms = maximal_chains(Q)
    assert len(ms) == 24
    assert dual_domino_chains(Q) == []
    assert self_evacuating_chains(Q) == []
    m = ms[5]
    for op in (promote_chain, evacuate_chain, dual_evacuate_chain):
        assert op(Q, m) in ms
    assert tau_chain(Q, m, 1) in ms
    assert spaces == [Q.bottom]
    assert not hasattr(Q, "index")


def test_extension_space_lists_a_non_slender_graph_and_rejects_its_tau():
    Q = subspace_lattice(2, 2).graded  # [0, F_2^2]: three middles
    space = Q.space
    assert isinstance(space, ExtensionSpace)
    assert space.words == tuple((Q.bottom, t, Q.top) for t in Q.poset.up[Q.bottom])
    assert len(space.words) == 3
    for _ in range(2):
        with pytest.raises(ValueError, match="slender"):
            space.tau


def test_non_maximal_chain_rejected():
    b3 = graded(boolean_lattice(3))
    m = maximal_chains(b3)[0]
    wrong_middle = next(
        m[:1] + (t,) + m[2:] for t in range(b3.poset.p)
        if b3.rank[t] == 1 and t not in _middles(b3, m[0], m[2])
    )
    for bad in (m[::-1], m[:-1], wrong_middle):
        for op in (promote_chain, evacuate_chain, dual_evacuate_chain):
            with pytest.raises(ValueError, match="not a maximal chain"):
                op(b3, bad)
    with pytest.raises(ValueError, match="not a maximal chain"):
        tau_chain(b3, wrong_middle, 1)
    with pytest.raises(ValueError, match="not a maximal chain"):
        tau_chain(b3, m[1:2] + m[1:], 2)  # t_0 = t_1: broken away from i
    c2 = graded(chain_poset(2))  # height 1: every word is empty
    for op in (promote_chain, evacuate_chain, dual_evacuate_chain):
        with pytest.raises(ValueError, match="not a maximal chain"):
            op(c2, (1, 0))
    with pytest.raises(ValueError, match="not a maximal chain"):
        chain_neighbors(b3, wrong_middle, 1)


def test_promote_and_evacuate_chain_are_bijections():
    b3 = graded(boolean_lattice(3))
    ms = maximal_chains(b3)
    assert sorted(promote_chain(b3, m) for m in ms) == sorted(ms)
    for m in ms:
        assert evacuate_chain(b3, evacuate_chain(b3, m)) == m


def test_eulerian_emptiness_on_b3():
    b3 = graded(boolean_lattice(3))
    assert dual_domino_chains(b3) == []
    assert self_evacuating_chains(b3) == []


def test_weak_order_equality():
    ws3 = graded(weak_order_s3())
    assert len(dual_domino_chains(ws3)) == len(self_evacuating_chains(ws3))


def test_chain_poset_domino_chains():
    c4 = graded(chain_poset(4))  # rank 3: steps must pair up ranks
    dd = dual_domino_chains(c4)
    # height 3 is odd: first step is a single cover, then 2-chains
    assert len(dd) == 1


# --- cross-polytope -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_cross_polytope_chain_count(n):
    Q, faces = cross_polytope(n)
    # maximal chains correspond to signed permutations: 2^n * n!
    expect = (2 ** n) * [1, 1, 2, 6][n]
    assert len(maximal_chains(Q)) == expect
    assert Q.slender


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cross_polytope_covers_are_exact(n):
    # the covers are built without a transitive reduction; reducing them must
    # change nothing
    P = cross_polytope(n)[0].poset
    ref = poset_from_covers(P.p, list(P.covers))
    assert (P.covers, P.up, P.down) == (ref.covers, ref.up, ref.down)
    assert (P.leq_mask, P.geq_mask) == (ref.leq_mask, ref.geq_mask)


@pytest.mark.parametrize("n", [0, -1])
def test_signed_group_order_rejects_n_below_1(n):
    with pytest.raises(ValueError, match=f"not n = {n}"):
        signed_group_order(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_perm_chain_roundtrip(n):
    # chain_to_signed_perm maps the maximal chains of L_n one-to-one onto the
    # 2^n n! signed permutations
    Q, faces = cross_polytope(n)
    perms = [chain_to_signed_perm(faces, m) for m in maximal_chains(Q)]
    assert len(perms) == len(set(perms)) == 2 ** n * factorial(n)
    assert set(perms) == set(all_signed_perms(n))


def test_signed_closed_forms():
    w = (1, 2, 3)
    assert signed_delta(w) == (2, 3, -1)
    assert signed_gamma(w) == (-1, 3, 2)
    assert signed_gamma_star(w) == (-3, -2, -1)
    assert signed_delta_power(w) == (-2, -3, 1)  # delta^(n+1) = gamma gamma*


@pytest.mark.parametrize("n", [2, 3])
def test_closed_forms_match_generic_operators(n):
    Q, faces = cross_polytope(n)
    for m in maximal_chains(Q):
        w = chain_to_signed_perm(faces, m)
        assert chain_to_signed_perm(faces, promote_chain(Q, m)) == signed_delta(w)
        assert chain_to_signed_perm(faces, evacuate_chain(Q, m)) == signed_gamma(w)


@pytest.mark.parametrize("n,order", [(1, 2), (2, 8), (3, 6), (4, 16), (5, 10)])
def test_signed_group_orders(n, order):
    assert signed_group_order(n) == order


# --- linear operators ---------------------------------------------------------

def test_chain_vector_arithmetic():
    a = ChainVector.basis((0, 1, 2))
    b = ChainVector.basis((0, 3, 2))
    v = a + b.scale(Fraction(1, 2))
    assert v.coeff((0, 3, 2)) == Fraction(1, 2)
    assert (v - v) == ChainVector()


def test_linear_tau_fixed_when_no_neighbors():
    c4 = graded(chain_poset(4))
    m = maximal_chains(c4)[0]
    v = ChainVector.basis(m)
    for i in range(1, c4.height):
        assert linear_tau(c4, v, i) == v  # q = 0: fixed


def test_linear_tau_involution_on_corpus():
    for Q in (graded(boolean_lattice(3)), graded(weak_order_s3())):
        for m in maximal_chains(Q):
            v = ChainVector.basis(m)
            for i in range(1, Q.height):
                assert linear_tau(Q, linear_tau(Q, v, i), i) == v


def test_linear_tau_slender_case_is_permutation():
    # on a slender poset every rank-2 interval has at most one other middle,
    # so the linear operator restricted to basis vectors is +/- a basis vector
    ws3 = graded(weak_order_s3())
    for m in maximal_chains(ws3):
        v = ChainVector.basis(m)
        for i in range(1, ws3.height):
            tv = linear_tau(ws3, v, i)
            nz = {c: x for c, x in tv.terms.items() if x}
            assert len(nz) == 1


def test_promote_evacuate_chains_linearity():
    b3 = graded(boolean_lattice(3))
    ms = maximal_chains(b3)
    v = ChainVector.basis(ms[0]) + ChainVector.basis(ms[1]).scale(Fraction(2))
    pv = promote_chains(b3, v)
    expect = (promote_chains(b3, ChainVector.basis(ms[0]))
              + promote_chains(b3, ChainVector.basis(ms[1])).scale(Fraction(2)))
    assert pv == expect
    evacuate_chains(b3, v)  # must not raise
