"""Hooks, maj, F(q), exact root-of-unity evaluation, special shapes."""

import cmath

import pytest

from linext import sieve
from linext.posets import Shape, count_extensions, shape_poset
from linext.ratfunc import peval, pnorm
from linext.sieve import (
    F_poly,
    eval_at_root,
    f_poly_hook,
    f_poly_sum,
    fixed_point_table,
    hook_lengths,
    maj_tableau,
    cyclic_sieving_check,
    special_shape_check,
)


def test_hook_lengths_rectangle():
    h = hook_lengths(Shape((3, 3)))
    assert h[(1, 1)] == 4 and h[(1, 3)] == 2 and h[(2, 3)] == 1
    assert sorted(h.values()) == [1, 2, 2, 3, 3, 4]


def test_hook_lengths_general_partition():
    h = hook_lengths(Shape((3, 1)))
    assert h[(1, 1)] == 4 and h[(1, 2)] == 2 and h[(1, 3)] == 1
    assert h[(2, 1)] == 1


def test_hook_lengths_reject_shifted():
    with pytest.raises(ValueError):
        hook_lengths(Shape((3, 1), shifted=True))


def test_maj_of_displayed_tableau():
    # 3x4 tableau with rows 1,3,4,8 / 2,5,6,11 / 7,9,10,12.  The entries i
    # with i+1 strictly below are 1, 4, 6, 8, 11 (9 sits two rows below 8),
    # so maj = 30.  The statistic itself is pinned by the sum-route/hook-route
    # identity below, which fixes the whole distribution.
    s = Shape((4, 4, 4))
    by_value = {
        1: (1, 1), 3: (1, 2), 4: (1, 3), 8: (1, 4),
        2: (2, 1), 5: (2, 2), 6: (2, 3), 11: (2, 4),
        7: (3, 1), 9: (3, 2), 10: (3, 3), 12: (3, 4),
    }
    index = {cell: i for i, cell in enumerate(s.cells())}
    word = tuple(index[by_value[v]] for v in range(1, 13))
    assert maj_tableau(s, word) == 1 + 4 + 6 + 8 + 11


@pytest.mark.parametrize("rows", [(2, 2), (3, 3), (4, 4), (3, 3, 3), (4, 4, 4)])
def test_sum_route_equals_hook_route(rows):
    s = Shape(rows)
    assert f_poly_sum(s) == f_poly_hook(s) == F_poly(s)


def test_f_poly_counts_extensions_at_1():
    s = Shape((4, 4))
    assert peval(f_poly_hook(s), 1) == count_extensions(shape_poset(s))


def test_f_poly_sum_works_off_rectangles():
    s = Shape((2, 1))
    # SYT of (2,1): maj values 1 and 2
    assert f_poly_sum(s) == (0, 1, 1)
    with pytest.raises(ValueError):
        f_poly_hook(s)  # hook route is rectangle-only


# --- exact cyclotomic evaluation ---------------------------------------------

def test_eval_at_root_agrees_with_float():
    F = f_poly_hook(Shape((4, 4, 4)))
    F = pnorm(F[4 * 3:])  # drop the forced q^(n*C(m,2)) prefactor
    p = 12
    for d in range(1, p + 1):
        exact = eval_at_root(F, p, d)
        z = cmath.exp(2j * cmath.pi * d / p)
        approx = sum(c * z ** k for k, c in enumerate(F))
        assert abs(approx - exact) < 1e-6


def test_eval_at_root_rejects_nonintegral():
    # q + 1 at a primitive cube root is not an integer
    with pytest.raises(ArithmeticError):
        eval_at_root((1, 1), 3, 1)


def test_eval_at_root_at_identity():
    F = (1, 2, 3)
    assert eval_at_root(F, 5, 5) == 6  # zeta^5 = 1


# --- cyclic sieving -----------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_sieving_rows_all_pass(m, n):
    for row in cyclic_sieving_check(m, n):
        assert row.fixed == row.f_at_root, (m, n, row)


def test_fixed_count_and_table():
    P = shape_poset(Shape((3, 3)))
    table = dict(fixed_point_table(P))
    assert table[6] == 5  # everything returns after p promotions
    assert table[1] == 0
    assert table[2] == 2 and table[3] == 3


# --- special shapes -----------------------------------------------------------

def test_rectangle_report():
    rep = special_shape_check(Shape((3, 3)), "rectangle")
    assert rep.power_ok and rep.evac_formula_ok and rep.dihedral == 2


def test_staircase_transpose():
    s = Shape((3, 2, 1))
    rep = special_shape_check(s, "staircase")
    assert rep.power_ok and rep.extensions == 16 and rep.dihedral == 4
    # transpose on a staircase is an involution on extensions
    P = shape_poset(s)
    tmap = sieve._transpose_map(s)
    from linext.posets import linear_extensions

    for w in linear_extensions(P):
        image = tuple(tmap[t] for t in w)
        assert P.is_extension(image) and tuple(tmap[t] for t in image) == w


def test_staircase_check_builds_the_transpose_map_once(monkeypatch):
    calls = []
    build = sieve._transpose_map

    def counting(s):
        calls.append(s)
        return build(s)

    monkeypatch.setattr(sieve, "_transpose_map", counting)
    rep = special_shape_check(Shape((4, 3, 2, 1)), "staircase")
    assert rep.power_ok and rep.extensions == 768
    assert len(calls) == 1


@pytest.mark.parametrize(
    "rows,kind",
    [
        ((3, 1), "shifted_double_staircase"),
        ((5, 3, 1), "shifted_double_staircase"),
        ((4, 2), "shifted_trapezoid"),
        ((5, 3), "shifted_trapezoid"),
        ((6, 4, 2), "shifted_trapezoid"),
    ],
)
def test_shifted_families_power_identity(rows, kind):
    rep = special_shape_check(Shape(rows, shifted=True), kind)
    assert rep.power_ok


def test_kind_validation():
    with pytest.raises(ValueError):
        special_shape_check(Shape((3, 2)), "rectangle")
    with pytest.raises(ValueError):
        special_shape_check(Shape((3, 2), shifted=True), "shifted_trapezoid")
    with pytest.raises(ValueError):
        special_shape_check(Shape((3, 1)), "staircase")
