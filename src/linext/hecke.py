"""The Hecke algebra H_n(q) in the T_w basis, over exact rational functions.

Permutations are 1-based one-line tuples, matching table keys like 2413.
The evacuation element E_1...E_{n-1} E_1...E_{n-2} ... E_1 is expanded with
integer-polynomial coefficients (every generator product is denominator-free)
and the global (q+1)^C(n,2) denominator is divided out at the end.  While
expanding, each coefficient is one Python int, the polynomial's value at
q = 2^B (Kronecker substitution), so a letter costs shifts and adds.  Each
(q+1) comes off that int as a factor 2^B + 1, then each numerator is read
back off its signed base-2^B digits, once; by Mignotte's factor bound both
steps are exact (von zur Gathen-Gerhard, Modern Computer Algebra, 6.6, 8.4).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .posets import CapExceeded
from .promotion import cycle_lengths, gamma_word
from .ratfunc import (
    ONE_POLY,
    Q_MINUS_1,
    Q_PLUS_1,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RatFunc,
    _qp1_power,
    _split_content,
    _unpack,
    ppow,
    qm1_order,
)

Perm = tuple  # tuple[int, ...], one-line notation with values 1..n

DEFAULT_HECKE_CAP = 7

_RF_QM1 = RatFunc.from_poly(Q_MINUS_1)
_RF_INV_QP1 = RatFunc.make(ONE_POLY, Q_PLUS_1)
_RF_TWO = RatFunc.from_rational(2)


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_length(w: Perm) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_cycles(w: Perm) -> int:
    """Number of cycles (fixed points count)."""
    return len(cycle_lengths([x - 1 for x in w]))


def reversal(w: Perm) -> Perm:
    """w-hat, the reversal of the one-line word (= w0 w)."""
    return w[::-1]


class HeckeElt:
    """A finitely supported map Perm -> RatFunc in the T_w basis."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {w: c for w, c in terms.items() if c}

    @staticmethod
    def unit(n: int) -> "HeckeElt":
        return HeckeElt(n, {identity_perm(n): RF_ONE})

    def coeff(self, w: Perm) -> RatFunc:
        return self.terms.get(tuple(w), RF_ZERO)

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, RF_ZERO) + c
        return HeckeElt(self.n, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + other.scale(-RF_ONE)

    def scale(self, c: RatFunc) -> "HeckeElt":
        return HeckeElt(self.n, {w: x * c for w, x in self.terms.items()})

    def inverse(self) -> "HeckeElt":
        """The image under the anti-involution T_w -> T_{w^-1}."""
        # w^-1(k) is the position of k in w
        return HeckeElt(self.n, {
            tuple(w.index(k) + 1 for k in range(1, self.n + 1)): c
            for w, c in self.terms.items()
        })

    def mul_gen_right(self, i: int) -> "HeckeElt":
        """Right multiplication by T_i."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range 1..{self.n - 1}")
        out = {}

        def acc(w, c):
            if c:
                out[w] = out.get(w, RF_ZERO) + c

        for u, c in self.terms.items():
            v = u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]  # u s_i
            if u[i - 1] < u[i]:  # l(u s_i) = l(u) + 1
                acc(v, c)
            else:
                acc(v, c * RF_Q)
                acc(u, c * _RF_QM1)
        return HeckeElt(self.n, out)

    def mul_e_right(self, i: int) -> "HeckeElt":
        """Right multiplication by E_i = (q - 1 - 2 T_i) / (q + 1)."""
        return (self.scale(_RF_QM1) - self.mul_gen_right(i).scale(_RF_TWO)).scale(_RF_INV_QP1)

    def __repr__(self):
        items = sorted(self.terms.items())
        body = ", ".join(f"{''.join(map(str, w))}: {c}" for w, c in items)
        return f"HeckeElt(n={self.n}, {{{body}}})"


def _pack_width(n: int) -> int:
    """B = 3 C(n,2) + 2, the digit width in bits of the packed expansion.

    A numerator c of _expand_packed(n) has deg c <= C(n,2) and |c|_2 <= |c|_1
    <= 2^(2 C(n,2)).  A quotient d = c / (q+1)^j in Z[q] has c's Mahler
    measure, as (q+1) has measure 1, so by Mignotte's bound |d|_1 <=
    2^(deg d) |c|_2 <= 2^(3 C(n,2)) < 2^(B-1).  So _unpack reads d off d(2^B)
    exactly, and d(2^B) = d(-1) mod 2^B + 1 is 0 just when (q+1) divides d.
    """
    return 3 * (n * (n - 1) // 2) + 2


def _expand_packed(n: int) -> dict:
    """Expand prod (q - 1 - 2 T_i) over the evacuation word gamma of w0.

    Returns {w: c(2^B)} for B = _pack_width(n); dividing each numerator c by
    (q+1)^C(n,2) gives c_w(q).  Zero entries are kept where terms cancel at
    the last letter.

    Each coefficient c is held as the int c(2^B): (q - 1) c is (c << B) - c,
    2c is c << 1 and 2q c is c << (B + 1), exact since evaluation at 2^B is a
    ring map.  A factor sends a term c T_u to at most two terms, +-(q - 1) c
    and -2c or -2q c, each of L1 norm at most 2 |c|_1, so the L1 norm summed
    over all terms grows at most 4x per letter.  It starts at 1, so after the
    C(n,2) letters of gamma every c has |c|_1 <= 2^(2 C(n,2)), and each letter
    raises the degree by at most one, so deg c <= C(n,2).
    """
    width = _pack_width(n)
    terms = {identity_perm(n): 1}
    for i in gamma_word(n):
        out = {}
        get = out.get
        for u, c in terms.items():
            if not c:
                continue
            qm1 = (c << width) - c
            v = u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]  # u s_i
            if u[i - 1] < u[i]:
                # T_u (q - 1 - 2 T_i) = (q - 1) T_u - 2 T_{u s_i}
                out[u] = get(u, 0) + qm1
                out[v] = get(v, 0) - (c << 1)
            else:
                # T_u T_i = q T_{u s_i} + (q - 1) T_u, so the factor gives
                # -(q - 1) T_u - 2q T_{u s_i}
                out[u] = get(u, 0) - qm1
                out[v] = get(v, 0) - (c << (width + 1))
        terms = out
    return terms


def _expand_numerators(n: int) -> dict:
    """{w: IntPoly}, the numerators of _expand_packed(n) read back by _unpack:
    exact, since |c|_1 <= 2^(2 C(n,2)) < 2^(B-1)."""
    width = _pack_width(n)
    return {w: _unpack(c, width) for w, c in _expand_packed(n).items()}


@lru_cache(maxsize=None)
def _coefficients(n: int) -> dict:
    """{w: c_w(q)} in canonical form, expanded and reduced once per n: each
    (q+1) comes off c(2^B) as a factor 2^B + 1 (exact by _pack_width), then
    the quotient is unpacked once and its content split off."""
    k, width = n * (n - 1) // 2, _pack_width(n)
    qp1, out = (1 << width) + 1, {}
    for w, x in _expand_packed(n).items():
        m, out[w] = 0, RF_ZERO
        while x and not x % qp1:
            x, m = x // qp1, m + 1
        if x:
            cn, num = _split_content(_unpack(x, width))
            out[w] = RatFunc(Fraction(cn), num, _qp1_power(k - m))
    return out


def _check_n(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the Hecke cap {cap}")
    if n < 1:
        raise ValueError("n must be positive")


def evacuation_element(n: int, cap: int = DEFAULT_HECKE_CAP) -> HeckeElt:
    """E_1...E_{n-1} E_1...E_{n-2} ... E_1 expanded in the T_w basis."""
    _check_n(n, cap)
    # HeckeElt copies the dict, so callers cannot change the cached one.
    return HeckeElt(n, _coefficients(n))


def c_w(n: int, w: Perm) -> RatFunc:
    _check_n(n, DEFAULT_HECKE_CAP)
    return _coefficients(n).get(tuple(w), RF_ZERO)


def cid_closed_form(n: int) -> RatFunc:
    """((q-1)/(q+1))^floor(n/2)."""
    k = n // 2
    return RatFunc.make(ppow(Q_MINUS_1, k), _qp1_power(k))


def check_thm_cid(n: int, cap: int = DEFAULT_HECKE_CAP) -> bool:
    elt = evacuation_element(n, cap=cap)
    return elt.coeff(identity_perm(n)) == cid_closed_form(n)


def divisibility_report(n: int, cap: int = DEFAULT_HECKE_CAP) -> list:
    """Per-w rows (w, bound, actual (q-1)-order or None for 0, passes, tight).

    bound = n - kappa(w-hat); zero coefficients pass trivially.
    """
    _check_n(n, cap)
    coeffs = _coefficients(n)
    rows = []
    for w in permutations(range(1, n + 1)):
        bound = n - perm_cycles(reversal(w))
        c = coeffs.get(w, RF_ZERO)
        if not c:
            rows.append((w, bound, None, True, False))
        else:
            order = qm1_order(c)
            rows.append((w, bound, order, order >= bound, order == bound))
    return rows
