"""The generic-parameter Hecke algebra and the evacuation-element expansion."""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext.hecke import (
    DEFAULT_HECKE_CAP,
    HeckeElt,
    _coefficients,
    _expand_packed,
    _pack_width,
    c_w,
    check_thm_cid,
    cid_closed_form,
    divisibility_report,
    evacuation_element,
    perm_cycles,
    perm_length,
    reversal,
)
from linext.posets import CapExceeded
from linext.promotion import gamma_word
from linext.ratfunc import Q_MINUS_1, RF_ONE, RF_Q, RF_ZERO, RatFunc, _unpack, peval, pnorm, ppow, qm1_order

S4 = list(permutations((1, 2, 3, 4)))


def _t_word(n, word) -> HeckeElt:
    """T_{i_1} ... T_{i_k}: the generators along `word`, multiplied on the right."""
    elt = HeckeElt.unit(n)
    for i in word:
        elt = elt.mul_gen_right(i)
    return elt


def _reduced_words(n) -> dict:
    """{w: a reduced word of w} over S_n, grown from the identity one length
    at a time by w -> w s_i where that adds an inversion."""
    layer = [tuple(range(1, n + 1))]
    words = {layer[0]: ()}
    while layer:
        grown = []
        for u in layer:
            for i in range(1, n):
                v = u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]
                if u[i - 1] < u[i] and v not in words:
                    words[v] = words[u] + (i,)
                    grown.append(v)
        layer = grown
    return words


def _inverse(h) -> HeckeElt:
    """The image of h under the anti-involution T_w -> T_{w^-1}."""
    # w^-1(k) is the position of k in w
    return HeckeElt(h.n, {tuple(w.index(k) + 1 for k in range(1, h.n + 1)): c for w, c in h.terms.items()})


def _left(h, i) -> HeckeElt:
    """T_i h = (h' T_i)' for the anti-involution ' = `_inverse`."""
    return _inverse(_inverse(h).mul_gen_right(i))


def test_perm_basics():
    assert perm_length((2, 1, 3)) == 1
    assert perm_length((3, 2, 1)) == 3
    assert perm_cycles((2, 1, 4, 3)) == 2
    assert reversal((1, 3, 2)) == (2, 3, 1)
    assert _reduced_words(3)[(1, 2, 3)] == ()
    assert {w: len(word) for w, word in _reduced_words(4).items()} == {w: perm_length(w) for w in S4}


@given(st.permutations([1, 2, 3, 4]))
def test_reduced_word_reconstructs(wl):
    w = tuple(wl)
    elt = _t_word(4, _reduced_words(4)[w])
    assert elt.terms.keys() == {w}
    assert elt.coeff(w) == RF_ONE


def test_longest_element_word():
    word = gamma_word(4)
    assert len(word) == 6
    elt = _t_word(4, word)
    assert set(elt.terms) == {(4, 3, 2, 1)}


def test_quadratic_relation():
    # (T_i + 1)(T_i - q) = 0, i.e. T_i^2 = (q-1) T_i + q
    n = 3
    for i in (1, 2):
        ti = _t_word(n, (i,))
        sq = ti.mul_gen_right(i)
        expect = ti.scale(RF_Q - RF_ONE) + HeckeElt.unit(n).scale(RF_Q)
        assert sq == expect


def test_braid_relation():
    n = 3
    a = _t_word(n, (1, 2, 1))
    b = _t_word(n, (2, 1, 2))
    assert a == b


def test_left_and_right_multiplication_agree_on_words():
    n = 4
    for word in [(1, 2, 3), (3, 2, 1), (2, 1, 3, 2)]:
        right = HeckeElt.unit(n)
        for i in word:
            right = right.mul_gen_right(i)
        left = HeckeElt.unit(n)
        for i in reversed(word):
            left = _left(left, i)
        assert left == right


def test_left_action_commutes_with_right_and_is_quadratic():
    # T_i h is computed through the anti-involution T_w -> T_{w^-1}; check it
    # is a left action in its own right: (T_i h) T_j = T_i (h T_j) and
    # T_i (T_i h) = (q - 1) T_i h + q h.
    words = _reduced_words(4)
    hs = [_t_word(4, words[w]) for w in S4] + [evacuation_element(3)]
    for h in hs:
        for i in range(1, h.n):
            left = _left(h, i)
            assert _left(left, i) == left.scale(RF_Q - RF_ONE) + h.scale(RF_Q)
            for j in range(1, h.n):
                assert left.mul_gen_right(j) == _left(h.mul_gen_right(j), i)


def test_e_i_is_involution():
    n = 3
    for i in (1, 2):
        e = HeckeElt.unit(n).mul_e_right(i)
        assert e != HeckeElt.unit(n) and e.mul_e_right(i) == HeckeElt.unit(n)


def test_evacuation_element_n2():
    # E_1 alone: c_id = (q-1)/(q+1), c_21 = -2/(q+1)
    elt = evacuation_element(2)
    q1 = RatFunc.make((-1, 1), (1, 1))
    assert elt.coeff((1, 2)) == q1
    assert elt.coeff((2, 1)) == RatFunc.make((-2,), (1, 1))


def test_evacuation_element_is_involution_n3():
    elt = evacuation_element(3)
    # square it by expanding the right factor over T-basis products
    prod = HeckeElt.unit(3).scale(RF_ZERO)
    words = _reduced_words(3)
    for w, c in elt.terms.items():
        term = elt
        for i in words[w]:
            term = term.mul_gen_right(i)
        prod = prod + term.scale(c)
    assert prod == HeckeElt.unit(3)


def test_cid_closed_form():
    for n in (2, 3, 4, 5):
        assert check_thm_cid(n)
        got = c_w(n, tuple(range(1, n + 1)))
        assert got == cid_closed_form(n)


def test_s4_zero_coefficients():
    elt = evacuation_element(4)
    for w in ((2, 4, 1, 3), (3, 1, 4, 2), (3, 2, 4, 1), (4, 2, 1, 3)):
        assert elt.coeff(w) == RF_ZERO


def test_divisibility_bound_holds_n4():
    rows = divisibility_report(4)
    assert len(rows) == 24
    for w, bound, order, ok, tight in rows:
        assert ok
        if order is not None:
            assert order >= bound


def test_witness_2314_is_not_tight():
    rows = {w: (bound, order) for w, bound, order, ok, tight
            in divisibility_report(4)}
    bound, order = rows[(2, 3, 1, 4)]
    assert bound == 2 and order == 4


def test_default_cap_n7_cid_and_divisibility():
    n = DEFAULT_HECKE_CAP
    assert n == 7
    assert check_thm_cid(n)
    rows = divisibility_report(n)
    assert len(rows) == 5040
    for w, bound, order, ok, tight in rows:
        assert bound == n - perm_cycles(reversal(w))
        assert ok and (order is None or order >= bound)


def test_evacuation_element_is_a_fresh_copy():
    evacuation_element(4).terms.clear()
    assert len(evacuation_element(4).terms) == 20
    assert c_w(4, (1, 2, 3, 4)) == cid_closed_form(4)


def test_cap_enforced():
    with pytest.raises(CapExceeded, match="n = 8 .* cap 7"):
        evacuation_element(8, cap=7)


@pytest.mark.parametrize("n", range(1, 6))
def test_expand_numerators_match_the_generic_algebra(n):
    """The numerators of E_gamma decoded from the packed expansion match the
    product of (q - 1 - 2 T_i) along gamma, built by right multiplication by
    T_i over RatFunc."""
    qm1, two = RatFunc.from_poly(Q_MINUS_1), RatFunc.from_rational(2)
    elt = HeckeElt.unit(n)
    for i in gamma_word(n):
        elt = elt.scale(qm1) - elt.mul_gen_right(i).scale(two)
    width = _pack_width(n)
    got = {w: RatFunc.from_poly(_unpack(c, width)) for w, c in _expand_packed(n).items() if c}
    assert got == elt.terms


@pytest.mark.parametrize("n", range(1, 9))
@given(data=st.data())
def test_packing_round_trips(n, data):
    """Decoding p(2^B) gives back p for every integer polynomial p whose
    coefficients lie below 2^(B-1) in absolute value."""
    width = _pack_width(n)
    top = (1 << (width - 1)) - 1
    coeffs = st.integers(-top, top)
    drawn = data.draw(st.lists(coeffs, max_size=n * (n - 1) // 2 + 2).map(pnorm))
    edges = [(), (top,), (-top,), (0, 0, -1), (-top, 0, top), (top, -1), (-1,) * 4, (1, -top)]
    for poly in [drawn] + edges:
        assert _unpack(peval(poly, 1 << width), width) == poly


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


# SHA-256 prefixes of repr([(w, c.coef, c.num, c.den) ...]) over _coefficients(n)
# and of repr(divisibility_report(n)), as the earlier list-based expansion gave them
EXPANSION_DIGESTS = {
    1: ("a435a583accca7c7", "53bcc7fb9f14ce51"),
    2: ("fa1a2201ed73d05a", "51591cbd07ebb105"),
    3: ("523a69d81f15d762", "df7c19cb4babb546"),
    4: ("4695108892efe397", "638ed4e81b7b285c"),
    5: ("16f8979f4f374540", "811c9bebeb0d654c"),
    6: ("cf65388c6d2fc779", "f1275883e1a1e9ae"),
    7: ("da8a0019b9d50900", "4ad2a5ff04f05ba8"),
}


def test_expansion_is_pinned_by_digest():
    for n, pinned in EXPANSION_DIGESTS.items():
        coeffs = [(w, c.coef, c.num, c.den) for w, c in _coefficients(n).items()]
        assert (_digest(coeffs), _digest(divisibility_report(n))) == pinned, n
    e5 = evacuation_element(5)
    norm = by_q = by_sign = RF_ZERO
    for w, c in e5.terms.items():
        ell = perm_length(w)
        q_ell = RatFunc.from_poly((0,) * ell + (1,))
        norm = norm + c * c * q_ell
        by_q = by_q + c * q_ell
        by_sign = by_sign + (c if ell % 2 == 0 else -c)
    # <E_5, E_5> = sum c_w^2 q^l(w) = 1, as <T_u, T_v> = q^l(u) [u = v];
    # sum c_w q^l(w) = (-1)^C(5,2) and sum c_w (-1)^l(w) = 1
    assert norm == by_q == by_sign == RF_ONE


def test_expansion_n8_is_pinned_by_digest():
    """n = 8, past DEFAULT_HECKE_CAP: the digests of _coefficients(8) and
    divisibility_report(8, cap=8) as the RatFunc.make-based reduction gave
    them, the c_id closed form and the Thm 9 bound over all 40320 w."""
    coeffs = [(w, c.coef, c.num, c.den) for w, c in _coefficients(8).items()]
    rows = divisibility_report(8, cap=8)
    assert (_digest(coeffs), _digest(rows)) == ("df8e0cbe05761653", "be28a079cb0f37e4")
    assert check_thm_cid(8, cap=8)
    assert len(rows) == 40320 and all(ok for _, _, _, ok, _ in rows)
