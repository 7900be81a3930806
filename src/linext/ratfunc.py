"""Exact integer polynomials, and rational functions in Q[q, 1/(q+1)].

Polynomials are tuples of ints in ascending degree with no trailing zeros;
the empty tuple is the zero polynomial.

Polynomial division is integer-only.  One long division in Z[x] gives the
quotient and remainder that `pdiv_exact` and `prem_monic` read; a step whose
quotient is not an integer raises `InexactDivision`, an ArithmeticError.
Factors (q - r) come off by integer synthetic division (`deflate`).

Every Hecke coefficient lies in the ring Q[q, 1/(q+1)], since
E_i = (q - 1 - 2 T_i) / (q + 1), so a `RatFunc` is coef * num / (q+1)^k.
`RatFunc.make` accepts a denominator c * (q+1)^k only, and reduces by
stripping (q+1) from the numerator; any other denominator is an internal
fault and raises ArithmeticError.  A sum is taken over the larger of its
operands' two powers of (q+1), the other numerator lifted to it, so only
the factors that the sum itself gains are stripped.  `Fraction` appears
only in the scalar factor and in evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

IntPoly = tuple  # tuple[int, ...]

ZERO_POLY: IntPoly = ()
ONE_POLY: IntPoly = (1,)
Q_POLY: IntPoly = (0, 1)  # the variable q
Q_MINUS_1: IntPoly = (-1, 1)
Q_PLUS_1: IntPoly = (1, 1)


def pnorm(coeffs) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(a: IntPoly) -> int:
    """Degree, with deg 0 = -1."""
    return len(a) - 1


def padd(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return pnorm(c)


def pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ZERO_POLY
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    return pnorm(c)


def pscale(a: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return ZERO_POLY
    return tuple(k * x for x in a)


def ppow(a: IntPoly, n: int) -> IntPoly:
    r = ONE_POLY
    for _ in range(n):
        r = pmul(r, a)
    return r


def peval(a: IntPoly, x):
    r = 0
    for c in reversed(a):
        r = r * x + c
    return r


def _unpack(x: int, width: int) -> IntPoly:
    """The polynomial p with p(2^width) = x and every coefficient in
    [-2^(width-1), 2^(width-1)): x's signed base-2^width digits, ascending."""
    mask, half, digits = (1 << width) - 1, 1 << (width - 1), []
    while x:
        d = x & mask
        x >>= width
        if d >= half:  # a negative digit borrowed 1 from the next one
            d -= mask + 1
            x += 1
        digits.append(d)
    return tuple(digits)


def pcontent(a: IntPoly) -> int:
    return gcd(*a)


def _split_content(a: IntPoly) -> tuple:
    """(c, a / c) for a nonzero a, with c its content signed like its leading
    coefficient, so a / c is primitive with a positive leading coefficient."""
    c = pcontent(a)
    if a[-1] < 0:
        c = -c
    return c, tuple(x // c for x in a)


class InexactDivision(ArithmeticError):
    """An exact polynomial division whose quotient is not in Z[x]."""


def _long_division(a: IntPoly, b: IntPoly) -> tuple:
    """(quotient, remainder) of a by b in Z[x].

    Each step divides the leading coefficient of the running remainder by
    b's with divmod.  When the quotient over Q lies in Z[x] the steps give
    exactly its coefficients; otherwise a step raises InexactDivision.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = pdeg(b)
    quo = [0] * max(len(a) - db, 0)
    lead = b[-1]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise InexactDivision("quotient not integral")
            quo[i - db] = q
            for j, y in enumerate(b):
                rem[i - db + j] -= q * y
    return pnorm(quo), pnorm(rem)


def pdiv_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division a / b in Z[x]; raises InexactDivision otherwise."""
    quo, rem = _long_division(a, b)
    if rem:
        raise InexactDivision("inexact polynomial division")
    return quo


def deflate(a: IntPoly, r: int, limit: int | None = None) -> tuple:
    """Divide a by (x - r) while it divides evenly, at most `limit` times.

    Integer synthetic division; returns (m, a / (x - r)^m).
    """
    if not a:
        raise ArithmeticError("zero polynomial has every root")
    m = 0
    while m != limit and len(a) > 1:
        quo = [0] * (len(a) - 1)
        acc = a[-1]
        for i in range(len(a) - 2, -1, -1):
            quo[i] = acc
            acc = a[i] + r * acc
        if acc:
            break
        a = tuple(quo)
        m += 1
    return m, a


def prem_monic(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of a modulo b in Z[x]; always defined when b is monic, and
    InexactDivision when b is not and a step of the division is not integral."""
    return _long_division(a, b)[1]


@lru_cache(maxsize=None)
def _qp1_power(k: int) -> IntPoly:
    """(q+1)^k."""
    return ppow(Q_PLUS_1, k)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, by dividing x^m - 1 by the proper ones."""
    poly = pnorm((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            poly = pdiv_exact(poly, cyclotomic(d))
    return poly


def poly_str(a: IntPoly, var: str = "q") -> str:
    """Render in descending degree, e.g. 'q^2+6*q+1'."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            term = v if abs(c) == 1 else f"{abs(c)}*{v}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        out += sign + term
    return out


class RatFunc:
    """An element coef * num / (q+1)^k of Q[q, 1/(q+1)] in canonical form.

    coef is a Fraction, num a primitive integer polynomial with positive
    leading coefficient and num(-1) != 0 unless k = 0, and den = (q+1)^k.
    Zero is coef == 0 with num = den = 1.
    """

    __slots__ = ("coef", "num", "den")

    def __init__(self, coef: Fraction, num: IntPoly, den: IntPoly):
        # Trusted internal constructor; use make() to canonicalize.
        self.coef = coef
        self.num = num
        self.den = den

    @staticmethod
    def make(num: IntPoly, den: IntPoly, coef: Fraction = Fraction(1)) -> "RatFunc":
        """coef * num / den in canonical form.  den must be c * (q+1)^k for a
        nonzero integer c; any other denominator raises ArithmeticError."""
        num, den = pnorm(num), pnorm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        k, c = pdeg(den), den[-1]
        power = _qp1_power(k)
        # the library passes (q+1)^k itself; that case builds no scaled copy
        if den != power and den != pscale(power, c):
            raise ArithmeticError(f"denominator {poly_str(den)} is not c*(q+1)^k")
        if not num or coef == 0:
            return RF_ZERO
        m, num = deflate(num, -1, k)
        cn, num = _split_content(num)
        coef = Fraction(coef.numerator * cn, coef.denominator * c)
        return RatFunc(coef, num, _qp1_power(k - m))

    @staticmethod
    def from_poly(p: IntPoly) -> "RatFunc":
        return RatFunc.make(p, ONE_POLY)

    @staticmethod
    def from_rational(x) -> "RatFunc":
        return RatFunc.make(ONE_POLY, ONE_POLY, Fraction(x))

    def __bool__(self) -> bool:
        return self.coef != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.coef, self.num, self.den) == (other.coef, other.num, other.den)

    def __hash__(self):
        return hash((self.coef, self.num, self.den))

    def __neg__(self) -> "RatFunc":
        if not self:
            return self
        return RatFunc(-self.coef, self.num, self.den)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """The sum over the larger of the two (q+1) powers, so `make` strips
        only the (q+1) factors that the sum of the numerators gains."""
        if not self:
            return other
        if not other:
            return self
        an, ad = self.coef.numerator, self.coef.denominator
        bn, bd = other.coef.numerator, other.coef.denominator
        x, y = pscale(self.num, an * bd), pscale(other.num, bn * ad)
        # over (q+1)^max(a, b): only the smaller power's numerator is lifted
        gap, den = len(self.den) - len(other.den), self.den
        if gap < 0:
            x, den = pmul(x, _qp1_power(-gap)), other.den
        elif gap:
            y = pmul(y, _qp1_power(gap))
        return RatFunc.make(padd(x, y), den, Fraction(1, ad * bd))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not self or not other:
            return RF_ZERO
        return RatFunc.make(pmul(self.num, other.num),
                            _qp1_power(len(self.den) + len(other.den) - 2), self.coef * other.coef)

    def as_int_pair(self) -> tuple:
        """(num, den) as integer polynomials with the scalar folded in.  They
        share no integer factor: coef is reduced, and num and den primitive."""
        return pscale(self.num, self.coef.numerator), pscale(self.den, self.coef.denominator)

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        return format_factored(self)


RF_ZERO = RatFunc(Fraction(0), ONE_POLY, ONE_POLY)
RF_ONE = RatFunc(Fraction(1), ONE_POLY, ONE_POLY)
RF_Q = RatFunc(Fraction(1), Q_POLY, ONE_POLY)


def qm1_order(a: RatFunc) -> int:
    """Multiplicity of (q-1) in the numerator (a must be nonzero)."""
    if not a:
        raise ArithmeticError("zero has infinite (q-1) order")
    return deflate(a.num, 1)[0]


def _factor_parts(scalar: int, p: IntPoly) -> list:
    """The displayed factors of scalar * p: the scalar unless it is 1, the
    part of p free of (q-1) and (q+1) unless it is 1, then (q-1)^a, (q+1)^b."""
    a, p = deflate(p, 1)
    b, rest = deflate(p, -1)
    parts = [str(scalar)] if scalar != 1 else []
    if rest != ONE_POLY:
        parts.append(f"({poly_str(rest)})")
    for base, e in (("(q-1)", a), ("(q+1)", b)):
        if e:
            parts.append(base if e == 1 else f"{base}^{e}")
    return parts


def format_factored(rf: RatFunc) -> str:
    """Display in the factored style '-2*(q-1)^3/(q+1)^4'."""
    if not rf:
        return "0"
    num_str = "*".join(_factor_parts(rf.coef.numerator, rf.num) or ["1"])
    if num_str.startswith("-1*"):
        num_str = "-" + num_str[3:]
    den = _factor_parts(rf.coef.denominator, rf.den)
    if not den:
        return num_str
    return f"{num_str}/({'*'.join(den)})" if len(den) > 1 else f"{num_str}/{den[0]}"
