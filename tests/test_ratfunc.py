"""Exact polynomial / rational function arithmetic."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext.ratfunc import (
    Q_PLUS_1,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    InexactDivision,
    RatFunc,
    cyclotomic,
    deflate,
    format_factored,
    padd,
    pcontent,
    pdeg,
    pdiv_exact,
    peval,
    pmul,
    pnorm,
    poly_str,
    ppow,
    prem_monic,
    pscale,
    qm1_order,
)

def _at(r: RatFunc, x) -> Fraction:
    """The exact value of r at the rational point x, read off its parts."""
    return r.coef * Fraction(peval(r.num, x)) / peval(r.den, x)


polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(
    lambda xs: pnorm(tuple(xs))
)


def test_pnorm_strips_trailing_zeros():
    assert pnorm((1, 2, 0, 0)) == (1, 2)
    assert pnorm((0, 0)) == ()
    assert pdeg(()) == -1
    assert pdeg((0, 0, 3)) == 2


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert padd(a, b) == padd(b, a)
    assert pmul(a, b) == pmul(b, a)
    assert pmul(a, padd(b, c)) == padd(pmul(a, b), pmul(a, c))
    assert padd(padd(a, b), pscale(b, -1)) == a


@given(polys, polys)
def test_eval_is_homomorphism(a, b):
    x = Fraction(3, 2)
    assert peval(padd(a, b), x) == peval(a, x) + peval(b, x)
    assert peval(pmul(a, b), x) == peval(a, x) * peval(b, x)


@given(polys, polys)
def test_pdiv_exact_roundtrip(a, b):
    if not b:
        return
    prod = pmul(a, b)
    assert pdiv_exact(prod, b) == a


def test_pdiv_exact_rejects_inexact():
    with pytest.raises((ArithmeticError, ValueError)):
        pdiv_exact((1, 1), (0, 1))  # (x+1)/x


def test_pdiv_exact_raises_inexact_division():
    with pytest.raises(InexactDivision, match="not integral"):
        pdiv_exact((1,), (2,))
    with pytest.raises(InexactDivision, match="inexact"):
        pdiv_exact((1, 1), (0, 1))
    assert pdiv_exact((2, 6, 4), (2, 2)) == (1, 2)  # a non-monic divisor


@given(polys, st.integers(-3, 3), st.integers(0, 4))
def test_deflate_strips_the_root(a, r, m):
    if not a:
        return
    got, rest = deflate(pmul(a, ppow((-r, 1), m)), r)
    assert got >= m and peval(rest, r) != 0
    assert pmul(rest, ppow((-r, 1), got)) == pmul(a, ppow((-r, 1), m))
    assert deflate(pmul(a, ppow((-r, 1), m)), r, limit=m) == (m, a)


@given(
    polys,
    st.integers(0, 4),
    st.integers(0, 6),
    st.sampled_from((1, -1)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
def test_make_over_powers_of_q_plus_1(a, j, k, sign, c):
    if not a or c == 0:
        return
    num = pmul(a, ppow(Q_PLUS_1, j))
    den = ppow(Q_PLUS_1, k)
    if sign < 0:
        den = pscale(den, -1)
    r = RatFunc.make(num, den, c)
    for x in (Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
        assert _at(r, x) == c * Fraction(peval(num, x)) / peval(den, x)
    assert pcontent(r.num) == pcontent(r.den) == 1
    assert r.num[-1] > 0 and r.den[-1] > 0
    assert r.den == ppow(Q_PLUS_1, pdeg(r.den))
    assert pdeg(r.den) == 0 or peval(r.num, -1) != 0  # coprime: (q+1) stripped
    # a denominator c * (q+1)^k with c not a unit gives the same form
    assert RatFunc.make(pmul(num, (3,)), pmul(den, (3,)), c) == r


@given(polys, st.integers(0, 6), st.integers(-30, 30))
def test_make_takes_any_nonzero_multiple_of_a_power_of_q_plus_1(a, k, c):
    """c * (q+1)^k, for any nonzero integer c, negative and non-unit included,
    gives the form of (q+1)^k with coef divided by c."""
    if not a or c == 0:
        return
    num = pmul(a, ppow(Q_PLUS_1, k // 2))
    r = RatFunc.make(num, pscale(ppow(Q_PLUS_1, k), c), Fraction(5, 7))
    assert r == RatFunc.make(num, ppow(Q_PLUS_1, k), Fraction(5, 7) / c)


@pytest.mark.parametrize("den, name", [
    ((-1, 1), "q-1"), ((1, 2), "2*q+1"), ((1, 0, 1), "q^2+1"), ((-2, 2), "2*q-2"), ((0, 1), "q"),
])
def test_make_rejects_other_denominators(den, name):
    """Q[q, 1/(q+1)] holds no other denominator: each raises in make, naming it,
    whether or not the numerator has a factor in common with it."""
    message = re.escape(f"denominator {name} is not c*(q+1)^k")
    with pytest.raises(ArithmeticError, match=message):
        RatFunc.make((1,), den)
    with pytest.raises(ArithmeticError, match=message):
        RatFunc.make(pmul((1, 1), den), den, Fraction(3))


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_qn_minus_1():
    # prod over d | n of Phi_d = x^n - 1
    for n in (1, 2, 3, 4, 6, 8, 12):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = pmul(prod, cyclotomic(d))
        expect = tuple([-1] + [0] * (n - 1) + [1])
        assert prod == pnorm(expect)


def test_prem_monic():
    # x^2 + 1 mod x - 1 = 2
    assert prem_monic((1, 0, 1), (-1, 1)) == (2,)
    assert prem_monic((1, 0, 1), (1, 0, 1)) == ()


def test_ratfunc_canonical():
    half = RatFunc.make((1,), (2,))
    assert _at(half, Fraction(5)) == Fraction(1, 2)
    # (q^2-1)/(q+1) reduces to q-1
    r = RatFunc.make((-1, 0, 1), (1, 1))
    assert r == RatFunc.make((-1, 1), (1,))
    assert (r.coef, r.num, r.den) == (1, (-1, 1), (1,))


def test_ratfunc_field_ops():
    q = RF_Q
    one = RF_ONE
    expr = (q - one) * (q + one)
    assert expr == RatFunc.make((-1, 0, 1), (1,))
    assert RF_ZERO + q == q


def _operand(a, j, k, c, negate) -> RatFunc:
    r = RatFunc.make(pmul(a, ppow(Q_PLUS_1, j)), ppow(Q_PLUS_1, k), c)
    return -r if negate else r


# c * a * (q+1)^j / (q+1)^k, so sums meet every gap between the powers,
# shared (q+1) factors and cancellation; zero and negated operands included
ratfuncs = st.one_of(st.just(RF_ZERO), st.builds(
    _operand, polys, st.integers(0, 3), st.integers(0, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=9), st.booleans(),
))


def cross_multiplied_sum(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b over the product of the two denominators."""
    if not a or not b:
        return b if not a else a
    an, ad = a.coef.numerator, a.coef.denominator
    bn, bd = b.coef.numerator, b.coef.denominator
    num = padd(pscale(pmul(a.num, b.den), an * bd), pscale(pmul(b.num, a.den), bn * ad))
    return RatFunc.make(num, pmul(a.den, b.den), Fraction(1, ad * bd))


def cross_multiplied_product(a: RatFunc, b: RatFunc) -> RatFunc:
    """a * b over the product of the two denominators."""
    return RatFunc.make(pmul(a.num, b.num), pmul(a.den, b.den), a.coef * b.coef)


@given(ratfuncs, ratfuncs)
@settings(max_examples=300)
def test_add_over_the_larger_power_of_q_plus_1(a, b):
    ab = a * b
    assert ab == cross_multiplied_product(a, b)
    assert ab + a == cross_multiplied_sum(cross_multiplied_product(a, b), a)
    s = a + b
    assert s == cross_multiplied_sum(a, b)
    if s:
        assert pcontent(s.num) == 1 and s.num[-1] > 0
        assert s.den == ppow(Q_PLUS_1, pdeg(s.den))
        assert pdeg(s.den) == 0 or peval(s.num, -1) != 0
    else:
        assert (s.coef, s.num, s.den) == (0, (1,), (1,))
    for x in (Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
        assert _at(s, x) == _at(a, x) + _at(b, x)
    assert a + (-a) == RF_ZERO


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 5))
def test_ratfunc_eval_matches_fraction_arithmetic(a, b, c):
    r = RatFunc.make((a, b), (c,))
    x = Fraction(7, 3)
    assert _at(r, x) == Fraction(a + b * x, c)


def test_qm1_divisibility_order():
    # (q-1)^3 * (q+2) has order 3 at q=1
    f = RatFunc.make(pmul(ppow((-1, 1), 3), (2, 1)), (1,))
    assert qm1_order(f) == 3


def test_internal_arithmetic_faults_raise_arithmetic_error():
    """The CLI reports an ArithmeticError as an internal error (exit 1), not
    as a usage error or a traceback."""
    with pytest.raises(ArithmeticError, match="infinite"):
        qm1_order(RF_ZERO)
    with pytest.raises(ArithmeticError, match="every root"):
        deflate((), 1)
    with pytest.raises(ArithmeticError, match="denominator q-1 is not"):
        RatFunc.make((1,), (-1, 1))  # the pole 1 / (q - 1)


def test_poly_str_and_factored_format():
    assert poly_str((1, 0, 2)) == "2*q^2+1"
    assert poly_str(()) == "0"
    neg = RatFunc.make(
        pmul((-2,), ppow((-1, 1), 3)), ppow((1, 1), 4)
    )
    assert format_factored(neg) == "-2*(q-1)^3/(q+1)^4"
    assert format_factored(RF_ZERO) == "0"


def fraction_divmod(a, b) -> tuple:
    """(quotient, remainder) of a by b over Q, by schoolbook long division on
    Fraction coefficients, ascending, with trailing zeros stripped."""
    rem = [Fraction(x) for x in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        quo[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= quo[i] * y
    return pnorm(quo), pnorm(rem)


@given(polys, polys, polys)
@settings(max_examples=300)
def test_long_division_matches_fraction_long_division(a, b, r):
    """pdiv_exact and prem_monic against division over Q, on quotients that
    are and are not integral, with monic and non-monic divisors."""
    if not b:
        return
    for divisor in (b, b[:-1] + (1,)):
        for num in (a, pmul(a, divisor), padd(pmul(a, divisor), pnorm(r[:pdeg(divisor)]))):
            quo, rem = fraction_divmod(num, divisor)
            if all(x.denominator == 1 for x in quo):
                assert prem_monic(num, divisor) == tuple(map(int, rem))
                if rem:
                    with pytest.raises(InexactDivision, match="inexact polynomial division"):
                        pdiv_exact(num, divisor)
                else:
                    assert pdiv_exact(num, divisor) == tuple(map(int, quo))
            else:
                assert divisor[-1] not in (1, -1)
                for divide in (pdiv_exact, prem_monic):
                    with pytest.raises(InexactDivision, match="quotient not integral"):
                        divide(num, divisor)
