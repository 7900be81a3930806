"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test is self-contained and asserts its own runtime bound where one is
stated.  Run with -v to get the per-criterion pass/fail lines.
"""

import time
from itertools import permutations

from linext import chains, flags, sieve, stats, verify
from linext.corpus import boolean_lattice, corpus_p_le, weak_order_s3
from linext.hecke import (
    c_w,
    cid_closed_form,
    divisibility_report,
    evacuation_element,
)
from linext.posets import (
    Shape,
    antichain_cuts_all_chains,
    count_extensions,
    delete_element,
    extension_space,
    linear_extensions,
    natural_relabel,
    poset_from_covers,
    shape_poset,
)
from linext.promotion import (
    compose,
    dual_evacuate,
    evacuate,
    extension_permutation,
    permutation_power,
    principal_chain,
    promote,
    promote_slide,
    promotion_blocks,
    rotate_blocks,
    trajectory,
)
from linext.ratfunc import RatFunc, peval, pmul, pnorm, ppow

QM1 = (-1, 1)
QP1 = (1, 1)


def rf(coef, num_factors=(), den_factors=()):
    num = (coef,)
    for f in num_factors:
        num = pmul(num, f)
    den = (1,)
    for f in den_factors:
        den = pmul(den, f)
    return RatFunc.make(num, den)


def test_c01_s4_hecke_table_verbatim():
    t0 = time.perf_counter()
    elt = evacuation_element(4)
    expected = {
        (1, 2, 3, 4): rf(1, [ppow(QM1, 2)], [ppow(QP1, 2)]),
        (1, 2, 4, 3): rf(-2, [ppow(QM1, 3)], [ppow(QP1, 4)]),
        (1, 3, 2, 4): rf(-16, [(0, 1), QM1, (1, 0, 1)], [ppow(QP1, 6)]),
        (1, 3, 4, 2): rf(4, [ppow(QM1, 2)], [ppow(QP1, 4)]),
        (1, 4, 2, 3): rf(4, [ppow(QM1, 2)], [ppow(QP1, 4)]),
        (1, 4, 3, 2): rf(-8, [ppow(QM1, 3)], [ppow(QP1, 6)]),
        (2, 1, 3, 4): rf(-2, [ppow(QM1, 3)], [ppow(QP1, 4)]),
        (2, 1, 4, 3): rf(4, [ppow(QM1, 2)], [ppow(QP1, 4)]),
        (2, 3, 1, 4): rf(-4, [ppow(QM1, 4)], [ppow(QP1, 6)]),
        (2, 3, 4, 1): rf(-8, [QM1], [ppow(QP1, 4)]),
        (2, 4, 1, 3): rf(0),
        (2, 4, 3, 1): rf(16, [ppow(QM1, 2)], [ppow(QP1, 6)]),
        (3, 1, 2, 4): rf(-4, [ppow(QM1, 4)], [ppow(QP1, 6)]),
        (3, 1, 4, 2): rf(0),
        (3, 2, 1, 4): rf(8, [ppow(QM1, 3)], [ppow(QP1, 6)]),
        (3, 2, 4, 1): rf(0),
        (3, 4, 1, 2): rf(16, [ppow(QM1, 2)], [ppow(QP1, 6)]),
        (3, 4, 2, 1): rf(-32, [QM1], [ppow(QP1, 6)]),
        (4, 1, 2, 3): rf(-8, [QM1], [ppow(QP1, 4)]),
        (4, 1, 3, 2): rf(16, [ppow(QM1, 2)], [ppow(QP1, 6)]),
        (4, 2, 1, 3): rf(0),
        (4, 2, 3, 1): rf(-32, [QM1], [ppow(QP1, 6)]),
        (4, 3, 1, 2): rf(-32, [QM1], [ppow(QP1, 6)]),
        (4, 3, 2, 1): rf(64, [], [ppow(QP1, 6)]),
    }
    assert len(expected) == 24
    for w in permutations((1, 2, 3, 4)):
        assert elt.coeff(w) == expected[w], w
    assert time.perf_counter() - t0 < 1.0


def test_c02_s5_spot_values():
    t0 = time.perf_counter()
    elt = evacuation_element(5)
    assert elt.coeff((1, 2, 4, 5, 3)) == rf(
        4, [(1, 6, 1), ppow(QM1, 4)], [ppow(QP1, 8)]
    )
    assert elt.coeff((1, 3, 2, 4, 5)) == rf(
        -2, [(1, -8, -2, -8, 1), ppow(QM1, 5)], [ppow(QP1, 10)]
    )
    assert elt.coeff((1, 3, 4, 2, 5)) == rf(
        -4, [(1, -6, -33, 12, -33, -6, 1), ppow(QM1, 2)], [ppow(QP1, 10)]
    )
    assert time.perf_counter() - t0 < 10.0


def test_c03_identity_coefficient_closed_form():
    t0 = time.perf_counter()
    for n in range(2, 7):
        assert c_w(n, tuple(range(1, n + 1))) == cid_closed_form(n)
    assert time.perf_counter() - t0 < 300.0


def test_c04_qm1_divisibility_with_nontight_witness():
    for n in range(2, 6):
        rows = divisibility_report(n)
        for w, bound, order, ok, tight in rows:
            assert ok, (n, w)
            if n == 4 and w == (2, 3, 1, 4):
                assert bound == 2 and order == 4


def test_c05_involution_and_conjugation_identities():
    for name, P in corpus_p_le(8).items():
        space = extension_space(P)
        for op in (promote, evacuate, dual_evacuate):  # the {word: word} map against the tau words
            perm = extension_permutation(P, op)
            assert len(perm) == len(space.words), name
            assert all(perm[w] == op(P, w) for w in space.words), name
        ops = space.operators
        ev, dev, prom = ops["evacuate"], ops["dual_evacuate"], ops["promote"]
        ident = list(range(len(space.words)))
        assert compose(ev, ev) == ident, name
        assert compose(dev, dev) == ident, name
        assert permutation_power(prom, P.p) == compose(ev, dev), name
        inv_prom = [0] * len(prom)
        for k, j in enumerate(prom):
            inv_prom[j] = k
        lhs = compose(prom, ev)
        rhs = compose(ev, inv_prom)
        assert lhs == rhs, name


def test_c06_promotion_cross_check_and_block_example():
    for name, P in corpus_p_le(8).items():
        for w in linear_extensions(P):
            slid, _ = promote_slide(P, w)
            assert slid == promote(P, w), name
    # the worked example: z = cabdfeghjilk with c<f<h<j forced; rotating the
    # blocks (cabd)(feg)(h)(jilk) one step left concatenates to abdcegfhilkj
    letters = "abcdefghijkl"
    ids = {ch: i for i, ch in enumerate(letters)}
    P = poset_from_covers(
        12,
        [(ids["c"], ids["f"]), (ids["f"], ids["h"]), (ids["h"], ids["j"])],
    )
    z = tuple(ids[ch] for ch in "cabdfeghjilk")
    blocks = promotion_blocks(P, z)
    assert ["".join(letters[t] for t in b) for b in blocks] == [
        "cabd", "feg", "h", "jilk"
    ]
    out = "".join(letters[t] for t in rotate_blocks(blocks))
    assert out == "abdcegfhilkj"
    assert rotate_blocks(blocks) == promote(P, z)


def test_c07_principal_chain_is_trajectory_after_evacuation():
    for name, P in corpus_p_le(7).items():
        for w in linear_extensions(P):
            assert principal_chain(P, w) == trajectory(P, evacuate(P, w)), name


def test_c08_cutting_antichain_recursion():
    from itertools import combinations

    for name, P in corpus_p_le(8).items():
        e = count_extensions(P)
        elements = range(P.p)
        for r in range(1, P.p + 1):
            for A in combinations(elements, r):
                if not antichain_cuts_all_chains(P, A):
                    continue
                total = sum(count_extensions(delete_element(P, t)) for t in A)
                assert total == e, (name, A)


def test_c09_sign_balance_hypotheses():
    for name, P in corpus_p_le(8).items():
        rep = stats.sign_balance_report(natural_relabel(P)[0])
        if rep.thm4a_applies or rep.thm4b_applies:
            assert rep.balanced, name


def test_c10_three_way_count_and_bijection():
    for name, P in corpus_p_le(8).items():
        Q, _ = natural_relabel(P)
        tableaux = stats.dual_domino_tableaux(Q)
        selfev = set(stats.self_evacuating(Q))
        assert peval(stats.wprime_poly(Q), -1) == len(tableaux) == len(selfev)
        images = {
            stats.domino_to_selfevac(Q, stats.domino_word(t)) for t in tableaux
        }
        assert images == selfev and len(images) == len(tableaux), name


def test_c11_special_shape_families():
    t0 = time.perf_counter()
    for rows in [(2, 2), (3, 3), (4, 4), (3, 3, 3), (4, 4, 4)]:
        rep = sieve.special_shape_check(Shape(rows), "rectangle")
        assert rep.power_ok and rep.evac_formula_ok and rep.dihedral == 2, rows
    for rows in [(2, 1), (3, 2, 1)]:
        rep = sieve.special_shape_check(Shape(rows), "staircase")
        assert rep.power_ok and rep.dihedral == 4, rows
    # shifted families with the power identity; members verified against the
    # family definitions (rows decreasing by 2, ending at 1 resp. n-m+1)
    for rows, kind in [
        ((3, 1), "shifted_double_staircase"),
        ((5, 3, 1), "shifted_double_staircase"),
        ((4, 2), "shifted_trapezoid"),
        ((5, 3), "shifted_trapezoid"),
        ((6, 4, 2), "shifted_trapezoid"),
    ]:
        rep = sieve.special_shape_check(Shape(rows, shifted=True), kind)
        assert rep.power_ok, rows
    assert time.perf_counter() - t0 < 60.0


def test_c12_cyclic_sieving_on_rectangles():
    t0 = time.perf_counter()
    for m, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        for row in sieve.cyclic_sieving_check(m, n):
            assert row.fixed == row.f_at_root, (m, n, row.d)
    assert time.perf_counter() - t0 < 120.0


def test_c13_maj_example_and_route_equality():
    # displayed 3x4 tableau: descent entries 1, 4, 6, 8, 11 (8 included:
    # 9 appears two rows below it), so maj = 30
    s = Shape((4, 4, 4))
    by_value = {
        1: (1, 1), 3: (1, 2), 4: (1, 3), 8: (1, 4),
        2: (2, 1), 5: (2, 2), 6: (2, 3), 11: (2, 4),
        7: (3, 1), 9: (3, 2), 10: (3, 3), 12: (3, 4),
    }
    index = {cell: i for i, cell in enumerate(s.cells())}
    word = tuple(index[by_value[v]] for v in range(1, 13))
    assert sieve.maj_tableau(s, word) == 1 + 4 + 6 + 8 + 11
    for rows in [(2, 2), (3, 3), (4, 4), (3, 3, 3), (4, 4, 4)]:
        sh = Shape(rows)
        assert sieve.f_poly_sum(sh) == sieve.f_poly_hook(sh), rows


def test_c14_cross_polytope_operators_and_orders():
    for n in (2, 3, 4):
        Q, faces = chains.cross_polytope(n)
        for m in chains.maximal_chains(Q):
            w = chains.chain_to_signed_perm(faces, m)
            assert chains.chain_to_signed_perm(
                faces, chains.promote_chain(Q, m)
            ) == chains.signed_delta(w)
            assert chains.chain_to_signed_perm(
                faces, chains.evacuate_chain(Q, m)
            ) == chains.signed_gamma(w)
    for n in (2, 3, 4, 5):
        expect = 4 * n if n % 2 == 0 else 2 * n
        assert chains.signed_group_order(n) == expect, n


def test_c15_hecke_consistency_on_subspace_lattices():
    t0 = time.perf_counter()
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        rep = flags.hecke_consistency(n, q)
        assert rep.ok, (n, q, rep.mismatches)
    assert time.perf_counter() - t0 < 60.0


def test_c16_eulerian_emptiness_and_slender_equality():
    b3 = chains.graded_from_poset(boolean_lattice(3))
    assert chains.dual_domino_chains(b3) == []
    assert chains.self_evacuating_chains(b3) == []
    ws3 = chains.graded_from_poset(weak_order_s3())
    assert len(chains.self_evacuating_chains(ws3)) == len(
        chains.dual_domino_chains(ws3)
    )
