"""Theorem verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of CheckResult rows; a suite passes when every row
does.  All checks are exact (zero tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chains, flags, hecke, sieve, stats
from .corpus import boolean_lattice, corpus_p_le, v_poset, weak_order_s3
from .posets import (
    Shape,
    antichain_cuts_all_chains,
    chain,
    count_extensions,
    delete_element,
    extension_space,
    ideals_lattice,
    linear_extensions,
    natural_relabel,
)
from .promotion import (
    compose,
    delta_word,
    dual_evacuate,
    dual_evacuate_via_dual,
    evacuate,
    evacuate_by_freezing,
    gamma_star_word,
    gamma_word,
    odd_falling_word,
    permutation_power,
    promote,
    promote_slide,
    principal_chain,
    promotion_blocks,
    rotate_blocks,
    tau_word,
    trajectory,
)
from .ratfunc import RF_ONE, RF_ZERO, RatFunc, peval
from .sieve import special_shape_check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def verify_thm1() -> list:
    """epsilon^2 = 1, promote^p = epsilon epsilon*, and the braid-type relation
    promote epsilon = epsilon promote^{-1}, as promote epsilon promote = epsilon."""
    out = []
    for name, P in corpus_p_le(8).items():
        ops = extension_space(P).operators
        pr, ev, dev = ops["promote"], ops["evacuate"], ops["dual_evacuate"]
        out += [
            CheckResult(f"{name}: evac involution", compose(ev, ev) == list(range(len(ev)))),
            CheckResult(f"{name}: promote^p = evac dual_evac",
                        permutation_power(pr, P.p) == compose(ev, dev)),
            CheckResult(f"{name}: promote evac = evac promote^-1",
                        compose(compose(pr, ev), pr) == list(ev)),
        ]
    return out


def verify_thm2() -> list:
    """trajectory(f evac) equals the principal chain of f."""
    out = []
    for name, P in corpus_p_le(7).items():
        ok = all(
            trajectory(P, evacuate(P, w)) == principal_chain(P, w)
            for w in linear_extensions(P)
        )
        out.append(CheckResult(f"{name}: trajectory/principal chain", ok))
    return out


def verify_thm3() -> list:
    """e(P) = sum over t in A of e(P - t) for every cutting antichain A, the
    antichains taken by element mask in increasing order."""
    out = []
    for name, P in corpus_p_le(8).items():
        e = count_extensions(P)
        ok = True
        checked = 0
        for mask in range(1, 1 << P.p):
            A = [t for t in range(P.p) if mask >> t & 1]
            if not antichain_cuts_all_chains(P, A):
                continue
            checked += 1
            if e != sum(count_extensions(delete_element(P, t)) for t in A):
                ok = False
        out.append(
            CheckResult(f"{name}: cutting antichains", ok, f"{checked} antichains")
        )
    return out


def verify_thm4() -> list:
    """Whenever hypothesis (a) or (b) holds, the parity census is balanced."""
    out = []
    for name, P in corpus_p_le(8).items():
        rep = stats.sign_balance_report(P)
        applies = rep.thm4a_applies or rep.thm4b_applies
        ok = rep.balanced if applies else True
        tag = (
            f"a={rep.thm4a_applies} b={rep.thm4b_applies} "
            f"even={rep.even} odd={rep.odd}"
        )
        out.append(CheckResult(f"{name}: sign balance", ok, tag))
    return out


def verify_thm5() -> list:
    """W'_P(-1) = #dual domino tableaux = #self-evacuating, with the
    constructive bijection verified."""
    out = []
    for name, P in corpus_p_le(8).items():
        Q, _ = natural_relabel(P)
        wp = stats.wprime_poly(Q)
        at_minus1 = peval(wp, -1)
        tableaux = stats.dual_domino_tableaux(Q)
        selfev = set(stats.self_evacuating(Q))
        counts_ok = at_minus1 == len(tableaux) == len(selfev)
        images = {
            stats.domino_to_selfevac(Q, stats.domino_word(t)) for t in tableaux
        }
        bij_ok = len(images) == len(tableaux) and images == selfev
        out.append(
            CheckResult(
                f"{name}: three quantities",
                counts_ok,
                f"W'(-1)={at_minus1} dominoes={len(tableaux)} selfevac={len(selfev)}",
            )
        )
        out.append(CheckResult(f"{name}: domino bijection", bij_ok))
    return out


def verify_thm6() -> list:
    cases = (
        ("rectangle", Shape((2, 2))),
        ("rectangle", Shape((3, 3))),
        ("rectangle", Shape((4, 4))),
        ("rectangle", Shape((3, 3, 3))),
        ("rectangle", Shape((4, 4, 4))),
        ("staircase", Shape((2, 1))),
        ("staircase", Shape((3, 2, 1))),
        ("shifted_double_staircase", Shape((3, 1), shifted=True)),
        ("shifted_double_staircase", Shape((5, 3, 1), shifted=True)),
        ("shifted_trapezoid", Shape((4, 2), shifted=True)),
        ("shifted_trapezoid", Shape((5, 3), shifted=True)),
        ("shifted_trapezoid", Shape((6, 4, 2), shifted=True)),
    )
    out = []
    for kind, s in cases:
        rep = special_shape_check(s, kind)
        rows = s.rows
        checks = [rep.power_ok, rep.evac_formula_ok]
        if kind == "rectangle" and len(rows) > 1 and rows[0] > 1:
            checks.append(rep.dihedral == 2)
        if kind == "staircase" and len(rows) > 1:
            checks.append(rep.dihedral == 4)
        out.append(
            CheckResult(
                f"{kind} {s}: promote^p behavior",
                all(checks),
                f"e={rep.extensions} dihedral={rep.dihedral}",
            )
        )
    return out


def verify_thm7() -> list:
    out = []
    for m, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)):
        rows = sieve.cyclic_sieving_check(m, n)
        ok = all(r.ok for r in rows)
        out.append(
            CheckResult(f"{m}x{n}: e_d = F(zeta^d) for all d", ok)
        )
    return out


def verify_thm8() -> list:
    """The c_id closed form; and for n <= 5 the packed expansion of the
    evacuation element against E_1 ... E_1 multiplied out over RatFunc, and
    its images under the characters T_i -> q and T_i -> -1 of H_n(q), which
    send each E_i to -1 and to 1: sum c_w q^l(w) = (-1)^C(n,2) and
    sum c_w (-1)^l(w) = 1."""
    out = [
        CheckResult(f"n={n}: c_id closed form", hecke.check_thm_cid(n))
        for n in (2, 3, 4, 5, 6)
    ]
    for n in (2, 3, 4, 5):
        elt = hecke.HeckeElt.unit(n)
        for i in gamma_word(n):
            elt = elt.mul_e_right(i)
        expansion = hecke.evacuation_element(n)
        out.append(CheckResult(f"n={n}: expansion = E_i product", elt == expansion,
                               f"{len(elt.terms)} terms"))
        at_q = at_minus1 = RF_ZERO
        for w, c in expansion.terms.items():
            ell = hecke.perm_length(w)
            at_q = at_q + c * RatFunc.from_poly((0,) * ell + (1,))
            at_minus1 = at_minus1 + (-c if ell % 2 else c)
        sign = RF_ONE if n * (n - 1) // 2 % 2 == 0 else -RF_ONE
        out.append(CheckResult(f"n={n}: E at T_i = q and T_i = -1", (at_q, at_minus1) == (sign, RF_ONE)))
    return out


def verify_thm9() -> list:
    reports = {n: hecke.divisibility_report(n) for n in (2, 3, 4, 5)}
    out = [
        CheckResult(f"n={n}: (q-1) divisibility bound", all(r[3] for r in rows))
        for n, rows in reports.items()
    ]
    w = (2, 3, 1, 4)
    _, bound, order, ok, _ = next(r for r in reports[4] if r[0] == w)
    out.append(
        CheckResult(
            "n=4 w=2314: non-tight witness",
            ok and bound == 2 and order == 4,
            f"bound={bound} order={order}",
        )
    )
    return out


def verify_lemma1() -> list:
    """gamma^2 = 1, gamma*^2 = 1, delta^p = gamma gamma* and delta gamma =
    gamma delta^{-1}, with delta^{-1} = tau_{p-1} ... tau_1, for the tau words
    applied to every word of L(P)."""
    out = []
    for name, P in corpus_p_le(7).items():
        d, g, gs = delta_word(P.p), gamma_word(P.p), gamma_star_word(P.p)
        ok = all(
            tau_word(P, w, g + g) == w
            and tau_word(P, w, gs + gs) == w
            and tau_word(P, w, d * P.p) == tau_word(P, w, g + gs)
            and tau_word(P, w, d + g) == tau_word(P, w, g + d[::-1])
            for w in linear_extensions(P)
        )
        out.append(CheckResult(f"{name}: monoid identities", ok))
    return out


def verify_lemma2() -> list:
    """u d*_1 d*_3 ... d*_{2j-1} = v d*_1 ... d*_{2j-1} d_{2j-1} ... d_1
    iff u tau_1 tau_3 ... tau_{2j-1} = v, for all extensions u, v."""
    out = []
    for name, P in corpus_p_le(6).items():
        exts = list(linear_extensions(P))
        ok = True
        for j in range(1, P.p // 2 + 1):  # 2j - 1 <= p - 1
            # u d*_1 d*_3 ... d*_{2j-1}; v's image then goes on by d_{2j-1} ... d_1
            left = {u: tau_word(P, u, odd_falling_word(2 * j - 1)) for u in exts}
            right = {v: tau_word(P, left[v], gamma_word(2 * j)) for v in exts}
            paired = {u: tau_word(P, u, range(1, 2 * j, 2)) for u in exts}
            if any((left[u] == right[v]) != (paired[u] == v) for u in exts for v in exts):
                ok = False
        out.append(CheckResult(f"{name}: lemma 2 equivalence", ok))
    return out


def _graded_corpus() -> dict:
    jp, _ = ideals_lattice(v_poset())
    return {
        "B_3": chains.graded_from_poset(boolean_lattice(3)),
        "weak_s3": chains.graded_from_poset(weak_order_s3()),
        "chain4": chains.graded_from_poset(chain(4)),
        "J(v)": chains.graded_from_poset(jp),
        "B_4": chains.graded_from_poset(boolean_lattice(4)),
    }


def verify_eq7() -> list:
    """Operator identities for the linear tau: involutivity and distant
    commutation on the graded corpus, plus the Hecke quadratic relation
    (tau_i + 1)(tau_i - q) = 0 on B_n(q).  A distant pair j >= i + 2 needs
    height 4 (B_4: tau_1 tau_3), so each row counts the commutations checked
    and names commutation only when it checked some.  Every graded-corpus
    poset is slender, so there the linear delta sends each chain to +-1 times
    its combinatorial promotion."""
    out = []
    for name, Q in _graded_corpus().items():
        ok = True
        pairs = 0
        basis = [chains.ChainVector.basis(m) for m in chains.maximal_chains(Q)]
        for i in range(1, Q.height):
            for v in basis:
                if chains.linear_tau(Q, chains.linear_tau(Q, v, i), i) != v:
                    ok = False
            for jj in range(i + 2, Q.height):
                for v in basis:
                    a = chains.linear_tau(Q, chains.linear_tau(Q, v, i), jj)
                    b = chains.linear_tau(Q, chains.linear_tau(Q, v, jj), i)
                    pairs += 1
                    if a != b:
                        ok = False
        checked = "tau_i^2 = 1 and commutation" if pairs else "tau_i^2 = 1"
        out.append(CheckResult(f"{name}: {checked}", ok, f"{pairs} distant-pair checks"))
        ok, signs = True, set()
        for v, m in zip(basis, chains.maximal_chains(Q)):
            image = chains.promote_chains(Q, v)
            ok &= image.den == 1 and image.terms.keys() == {chains.promote_chain(Q, m)}
            signs.update(image.terms.values())
        out.append(CheckResult(f"{name}: linear delta = +-promotion", ok and signs <= {1, -1},
                               "signs " + " ".join(f"{c:+d}" for c in sorted(signs))))
    for n, q in ((2, 2), (2, 3), (3, 2)):
        lat = flags.subspace_lattice(n, q)
        Q = lat.graded
        ok = True

        def hecke_t(v, i):
            # The involution tau is (q-1-2T)/(q+1); invert for T.
            tv = chains.linear_tau(Q, v, i)
            return (v.scale(Fraction(q - 1, 2))
                    + tv.scale(Fraction(-(q + 1), 2)))

        for i in range(1, Q.height):
            for m in chains.maximal_chains(Q):
                v = chains.ChainVector.basis(m)
                tv = hecke_t(v, i)
                # (T_i + 1)(T_i - q) v = T^2 v + (1-q) T v - q v = 0
                lhs = hecke_t(tv, i) + tv.scale(1 - q) + v.scale(-q)
                if lhs != chains.ChainVector():
                    ok = False
        out.append(CheckResult(f"B_{n}({q}): Hecke quadratic relation", ok))
    return out


def verify_crosspoly() -> list:
    """Closed-form signed-permutation operators vs the generic slender ones,
    and the dihedral order 2n (n odd) / 4n (n even)."""
    out = []
    for n in (2, 3, 4, 5):
        expected = 2 * n if n % 2 else 4 * n
        out.append(
            CheckResult(
                f"L_{n}: dihedral order",
                chains.signed_group_order(n) == expected,
                f"expected {expected}",
            )
        )
        if n <= 4:
            Q, faces = chains.cross_polytope(n)
            ok = Q.slender
            pairs = (
                (chains.promote_chain, chains.signed_delta),
                (chains.evacuate_chain, chains.signed_gamma),
                (chains.dual_evacuate_chain, chains.signed_gamma_star),
            )
            for m in chains.maximal_chains(Q):
                w = chains.chain_to_signed_perm(faces, m)
                for op, closed_form in pairs:
                    if chains.chain_to_signed_perm(faces, op(Q, m)) != closed_form(w):
                        ok = False
            out.append(CheckResult(f"L_{n}: closed forms match generic", ok))
        ok = True
        for w in chains.all_signed_perms(n):
            power = w
            for _ in range(n + 1):
                power = chains.signed_delta(power)
            ok &= chains.signed_delta_power(w) == chains.signed_gamma_star(chains.signed_gamma(w)) == power
        out.append(CheckResult(f"L_{n}: delta^(n+1) = gamma gamma*", ok))
    return out


def verify_hecke_consistency() -> list:
    out = []
    for n, q in ((2, 2), (2, 3), (3, 2)):
        rep = flags.hecke_consistency(n, q)
        out.append(
            CheckResult(
                f"B_{n}({q}): cell coefficients = c_w({q})",
                rep.ok,
                f"{len(rep.cells)} cells",
            )
        )
    return out


def verify_eulerian() -> list:
    """Eulerian emptiness on B_3 and the slender equality on weak order S_3."""
    out = []
    b3 = chains.graded_from_poset(boolean_lattice(3))
    out.append(
        CheckResult(
            "B_3: no dual domino chains", len(chains.dual_domino_chains(b3)) == 0
        )
    )
    out.append(
        CheckResult(
            "B_3: no self-evacuating maximal chains",
            len(chains.self_evacuating_chains(b3)) == 0,
        )
    )
    ws3 = chains.graded_from_poset(weak_order_s3())
    dominoes = len(chains.dual_domino_chains(ws3))
    out.append(
        CheckResult(
            "weak order S_3: #selfevac = #dual domino chains",
            len(chains.self_evacuating_chains(ws3)) == dominoes,
            f"count={dominoes}",
        )
    )
    return out


def verify_promotion_crosscheck() -> list:
    """The second routes agree with the tau words on every word of L(P):
    label sliding and block rotation with promotion, iterated
    promote-and-freeze with evacuation, and evacuation on P* with dual
    evacuation."""
    out = []
    for name, P in corpus_p_le(8).items():
        words = extension_space(P).words
        out += [
            CheckResult(f"{name}: slide = word promotion",
                        all(promote_slide(P, w)[0] == promote(P, w) for w in words)),
            CheckResult(f"{name}: freezing = word evacuation",
                        all(evacuate_by_freezing(P, w) == evacuate(P, w) for w in words)),
            CheckResult(f"{name}: evac on P* = dual evac",
                        all(dual_evacuate_via_dual(P, w) == dual_evacuate(P, w) for w in words)),
            CheckResult(f"{name}: block rotation = promotion",
                        all(rotate_blocks(promotion_blocks(P, w)) == promote(P, w) for w in words)),
        ]
    return out


SUITES = {
    "thm1": verify_thm1,
    "thm2": verify_thm2,
    "thm3": verify_thm3,
    "thm4": verify_thm4,
    "thm5": verify_thm5,
    "thm6": verify_thm6,
    "thm7": verify_thm7,
    "thm8": verify_thm8,
    "thm9": verify_thm9,
    "lemma1": verify_lemma1,
    "lemma2": verify_lemma2,
    "eq7": verify_eq7,
    "crosspoly": verify_crosspoly,
    "flags": verify_hecke_consistency,
    "eulerian": verify_eulerian,
    "promotion": verify_promotion_crosscheck,
}
