"""Hook lengths, tableau major index, F(q) and the cyclic sieving checks.

F(q) is computed two ways on rectangles: by summing q^maj over the standard
tableaux and by the hook-length closed form.  Elsewhere F_poly reads it as
a path sum over J(P) (`posets._path_sum`), listing no tableau.  The
root-of-unity evaluation is exact cyclotomic arithmetic, so the sieving
identity e_d = F(zeta^d) is checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .posets import (
    DEFAULT_EXTENSION_CAP,
    Poset,
    Shape,
    Word,
    _path_sum,
    count_extensions,
    extension_space,
    linear_extensions,
    shape_poset,
)
from .promotion import dihedral_group_order, orbit_structure, permutation_power
from .ratfunc import (
    IntPoly,
    ONE_POLY,
    _unpack,
    cyclotomic,
    pdiv_exact,
    pmul,
    pnorm,
    prem_monic,
)


def hook_lengths(s: Shape) -> dict:
    """Hook length (arm + leg + 1) per cell; shifted shapes are rejected."""
    if s.shifted:
        raise ValueError("hook lengths are only provided for ordinary shapes")
    rows = s.rows
    cols = [sum(1 for r in rows if r >= c) for c in range(1, rows[0] + 1)]
    out = {}
    for r, length in enumerate(rows, start=1):
        for c in range(1, length + 1):
            out[(r, c)] = (length - c) + (cols[c - 1] - r) + 1
    return out


def _row_table(s: Shape) -> tuple:
    """rows[t]: the row of cell id t."""
    return tuple(r for r, _ in s.cells())


def _maj(rows: tuple, word: Word) -> int:
    """maj of the tableau `word`, read from the row table of its shape."""
    r = [rows[t] for t in word]
    return sum(i for i in range(1, len(r)) if r[i] > r[i - 1])


def maj_tableau(s: Shape, word: Word) -> int:
    """Sum of entries i whose successor i+1 sits in a strictly lower row."""
    if not shape_poset(s).is_extension(word):
        raise ValueError("word is not a linear extension of the shape poset")
    return _maj(_row_table(s), word)


def f_poly_sum(s: Shape) -> IntPoly:
    """F(q) = sum of q^maj over standard tableaux of the shape."""
    rows = _row_table(s)
    coeffs = [0] * (s.size * s.size + 1)
    for w in linear_extensions(shape_poset(s)):
        coeffs[_maj(rows, w)] += 1
    return pnorm(coeffs)


def f_poly_hook(s: Shape) -> IntPoly:
    """The hook-length closed form, rectangles only:

    F(q) = q^{n*C(m,2)} (1-q)(1-q^2)...(1-q^p) / prod_t (1-q^{h(t)}).
    """
    rows = s.rows
    if s.shifted or len(set(rows)) != 1:
        raise ValueError("the closed form is implemented for rectangles")
    m, n = len(rows), rows[0]
    p = m * n
    num = ONE_POLY
    for i in range(1, p + 1):
        num = pmul(num, _one_minus_qk(i))
    den = ONE_POLY
    for h in hook_lengths(s).values():
        den = pmul(den, _one_minus_qk(h))
    quot = pdiv_exact(num, den)
    shift = n * (m * (m - 1) // 2)
    return pnorm((0,) * shift + quot)


def _one_minus_qk(k: int) -> IntPoly:
    return pnorm((1,) + (0,) * (k - 1) + (-1,))


def F_poly(s: Shape) -> IntPoly:
    """F(q): by hooks on rectangles, elsewhere as the path sum over J(P) in
    which the step putting t in a lower row than `last`, after i cells,
    weighs i.  The first step reads rows[-1], the last cell's row, for
    last = -1, and weighs 0 whatever it finds, as i = 0."""
    if not s.shifted and len(set(s.rows)) == 1:
        return f_poly_hook(s)
    rows, P = _row_table(s), shape_poset(s)
    width = count_extensions(P).bit_length() + 1
    return _unpack(_path_sum(P, lambda mask, last, t, poly: (
        t, poly << mask.bit_count() * width if rows[t] > rows[last] else poly)), width)


def eval_at_root(F: IntPoly, p: int, d: int) -> int:
    """Exact F(zeta^d) with zeta = e^{2 pi i / p}.

    Reduces F(x^d) in Z[x]/(x^m - 1) with m = p / gcd(d, p), then modulo the
    m-th cyclotomic polynomial; the residue must be a constant integer.
    """
    g = gcd(d % p if d % p else p, p)
    m = p // g
    dprime = (d // g) % m
    residue = [0] * max(m, 1)
    for k, c in enumerate(F):
        residue[(k * dprime) % m] += c
    rem = prem_monic(pnorm(residue), cyclotomic(m))
    if len(rem) > 1:
        raise ArithmeticError(
            f"F(zeta^{d}) is not an integer: residue {rem} mod Phi_{m}"
        )
    return rem[0] if rem else 0


@dataclass(frozen=True)
class SieveRow:
    d: int
    fixed: int
    f_at_root: int

    @property
    def ok(self) -> bool:
        return self.fixed == self.f_at_root


def cyclic_sieving_check(m: int, n: int, cap: int = DEFAULT_EXTENSION_CAP) -> list:
    """Per-d comparison e_d(P) vs F(zeta^d) on the m x n rectangle.

    F is normalized by dropping its q^(n*C(m,2)) prefactor before the
    root-of-unity evaluation.  The prefactor is forced by the maj
    statistic's minimum value, but it contributes a phase zeta^(d*shift)
    that is not always 1 (2x3 at d=3 evaluates to -3 with it), so the
    fixed-point count equals the evaluation of the bare hook quotient.
    """
    s = Shape((n,) * m)
    P = shape_poset(s)
    p = m * n
    shift = n * (m * (m - 1) // 2)
    F = pnorm(f_poly_hook(s)[shift:])
    return [
        SieveRow(d=d, fixed=fixed, f_at_root=eval_at_root(F, p, d))
        for d, fixed in fixed_point_table(P, cap=cap)
    ]


def fixed_point_table(P: Poset, cap: int = DEFAULT_EXTENSION_CAP) -> list:
    """(d, e_d) for d = 1..p, e_d = #{f : f = f promote^d} the points on the
    promotion cycles whose length divides d; for shapes without a known
    closed form this is exploratory output only."""
    lengths = orbit_structure(P, "promote", cap=cap).cycle_lengths
    return [(d, sum(n for n in lengths if d % n == 0)) for d in range(1, P.p + 1)]


def _transpose_map(s: Shape):
    """Cell bijection (i, j) -> (j, i) as an id map (staircases only)."""
    cells = s.cells()
    index = {cell: i for i, cell in enumerate(cells)}
    return [index[(c, r)] for (r, c) in cells]


@dataclass(frozen=True)
class SpecialShapeReport:
    kind: str
    shape: Shape
    extensions: int
    power_ok: bool  # the stated behavior of promote^p
    dihedral: int
    evac_formula_ok: bool  # rectangles only; True elsewhere


def special_shape_check(
    s: Shape, kind: str, cap: int = DEFAULT_EXTENSION_CAP
) -> SpecialShapeReport:
    """Verify the promote^p behavior for the special shape families.

    rectangle / shifted_double_staircase / shifted_trapezoid: promote^p = id
    (plus the explicit evacuation complement-rotation formula on rectangles);
    staircase: promote^p = transpose.
    """
    rows = s.rows
    if kind == "rectangle":
        if s.shifted or len(set(rows)) != 1:
            raise ValueError("shape is not a rectangle")
    elif kind == "staircase":
        if s.shifted or list(rows) != list(range(len(rows), 0, -1)):
            raise ValueError("shape is not a staircase")
    elif kind in ("shifted_double_staircase", "shifted_trapezoid"):
        # Both families have rows decreasing by exactly 2: double
        # staircases end at 1 (rows 2k-1, 2k-3, ..., 3, 1 truncated),
        # trapezoids are m+n-1, m+n-3, ..., n-m+1 for n >= m.
        if not s.shifted:
            raise ValueError("shape is not shifted")
        if any(a - b != 2 for a, b in zip(rows, rows[1:])):
            raise ValueError(f"shape is not a {kind.replace('_', ' ')[8:]}")
        if kind == "shifted_double_staircase" and rows[-1] not in (1, 2):
            raise ValueError("shape is not a double staircase")
    else:
        raise ValueError(f"unknown kind {kind!r}")

    P = shape_poset(s)
    p = P.p
    space = extension_space(P, cap)
    words = space.words
    evac = space.operators["evacuate"]
    power = permutation_power(space.operators["promote"], p)
    tmap = _transpose_map(s) if kind == "staircase" else range(p)  # promote^p as an id map
    power_ok = all(words[power[k]] == tuple(tmap[t] for t in w) for k, w in enumerate(words))
    evac_ok = True
    if kind == "rectangle":
        # f e(t) = p + 1 - f(opposite t): f e is f reversed, each id sent to its opposite.
        m, n = len(rows), rows[0]
        index = {cell: i for i, cell in enumerate(s.cells())}
        opposite = [index[(m + 1 - r, n + 1 - c)] for (r, c) in index]
        evac_ok = all(words[j] == tuple(opposite[t] for t in reversed(w))
                      for w, j in zip(words, evac))
    return SpecialShapeReport(
        kind=kind,
        shape=s,
        extensions=len(words),
        power_ok=power_ok,
        dihedral=dihedral_group_order(evac, space.operators["dual_evacuate"]),
        evac_formula_ok=evac_ok,
    )
