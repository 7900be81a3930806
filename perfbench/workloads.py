"""The four workloads: their set-up, their timed calls and their checks.

Each workload turns the seeded input data from `inputs.make` into `linext`
objects (the set-up) and returns a list of operations.  An operation is one
timed call into a public `linext` function together with the checks of its
answer.  Checks run after the timed job and compare against `reference`,
which does not use `linext`, or against properties the mathematics forces.
Each operation also says how to corrupt its answer, for the self-test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Callable

from linext import chains, flags, hecke, posets, promotion, sieve, stats
from linext.ratfunc import RF_ONE, RF_ZERO, RatFunc

from . import reference as ref


class Missing(Exception):
    """An operation needs the answer of an earlier operation that failed."""


@dataclass
class Op:
    key: str  # names the answer for later operations and for reports
    layer: str  # span name; the per-layer metric is `<layer>_s`
    run: Callable  # run(answers) -> answer; this is the timed call
    check: Callable  # check(answer, answers) -> list of problems
    corrupt: Callable  # corrupt(answer) -> a wrong answer of the same kind
    count: tuple | None = None  # (count metric, fn(answer) -> work items)


def need(answers: dict, key: str):
    if key not in answers:
        raise Missing(key)
    return answers[key]


def swap_values(perm: dict) -> dict:
    """Two entries of a word permutation exchanged."""
    out = dict(perm)
    keys = list(out)
    a, b = keys[1], keys[-2]
    out[a], out[b] = out[b], out[a]
    return out


def alter_last(seq) -> list:
    """The last element replaced by the first, dropped, or one bogus added."""
    out = list(seq)
    if len(out) >= 2 and out[0] != out[-1]:
        out[-1] = out[0]
    elif out:
        out.pop()
    else:
        out.append(None)
    return out


def rect_tag(m: int, n: int) -> str:
    """The m x n rectangle as its row lengths, e.g. 5,5,5."""
    return ",".join([str(n)] * m)


def _problem(ok: bool, what: str) -> list:
    return [] if ok else [what]


class PosetRef:
    """What the checks know about a poset, from the benchmark's own relations.

    The closure and covers are worked out on first use, in the checks, so
    that they are not part of the timed set-up.
    """

    def __init__(self, p: int, relations, e: int):
        self.p = p
        self.relations = relations
        self.e = e

    @cached_property
    def below(self) -> list:
        return ref.closure(self.p, self.relations)

    @cached_property
    def up(self) -> list:
        return ref.upper_covers(self.p, self.below)


# ---------------------------------------------------------------------------
# Checks shared by the two extension workloads.


def check_extensions(words, R: PosetRef) -> list:
    return (
        _problem(len(words) == R.e, f"{len(words)} extensions, expected {R.e}")
        + _problem(
            all(a < b for a, b in zip(words, words[1:])),
            "extensions not distinct in lexicographic order",
        )
        + _problem(
            all(ref.is_extension(w, R.p, R.below) for w in words),
            "a word is not a linear extension",
        )
    )


def check_promotion(perm: dict, R: PosetRef) -> list:
    return _problem(len(perm) == R.e, f"{len(perm)} words, expected {R.e}") + _problem(
        all(ref.slide_promote(w, R.up) == v for w, v in perm.items()),
        "promotion differs from label sliding",
    )


def check_involution(perm: dict, R: PosetRef, name: str) -> list:
    return _problem(len(perm) == R.e, f"{name}: {len(perm)} words") + _problem(
        all(perm.get(v) == w for w, v in perm.items()), f"{name}^2 != id"
    )


def extension_ops(tag: str, P, R: PosetRef, rect=None) -> list:
    """Operator permutations over all of L(P); `rect` = (m, n) for rectangles."""
    k = f"{tag}:"
    words = "promotion.words"

    def check_evacuate(ev, a):
        out = check_involution(ev, R, "evacuation")
        if rect:
            m, n = rect
            out += _problem(
                all(ref.rectangle_evacuate(w, m, n) == v for w, v in ev.items()),
                "evacuation differs from the complement rotation",
            )
        else:
            # the definition (promote, freeze the top) on every 64th word
            sample = list(ev)[::64]
            out += _problem(
                all(ref.slide_evacuate(w, R.up) == ev[w] for w in sample),
                "evacuation differs from promote-and-freeze",
            )
        return out

    def check_dual(dev, a):
        prom, ev = need(a, k + "promote"), need(a, k + "evacuate")
        out = check_involution(dev, R, "dual evacuation")
        if rect:
            out += _problem(dev == ev, "dual evacuation != evacuation on a rectangle")
            out += _problem(
                all(x == y for x, y in ref.power(prom, R.p).items()),
                "promotion^p != id on a rectangle",
            )
        else:
            out += _problem(
                ref.power(prom, R.p) == ref.compose(ev, dev),
                "promotion^p != evacuation * dual evacuation",
            )
            out += _problem(
                ref.compose(prom, ev) == ref.compose(ev, ref.inverse(prom)),
                "promotion * evacuation != evacuation * promotion^-1",
            )
        return out

    def check_orbits(rep, a):
        lengths = ref.cycle_lengths(need(a, k + "promote"))
        out = _problem(rep.size == R.e, f"orbit census of {rep.size} words") + _problem(
            sorted(rep.cycle_lengths) == lengths, "cycle lengths differ"
        )
        if rect:
            out += _problem(all(R.p % x == 0 for x in lengths), "an orbit length does not divide p")
        return out

    def check_dihedral(order, a):
        product = ref.compose(need(a, k + "evacuate"), need(a, k + "dual_evacuate"))
        want = 2 * ref.order(product) if R.e > 1 else 1
        return _problem(order == want, f"dihedral order {order}, expected {want}")

    ops = [
        Op(k + "extensions", "posets.linear_extensions",
           lambda a: list(posets.linear_extensions(P)),
           lambda words, a: check_extensions(words, R),
           alter_last, ("posets.extensions", len)),
        Op(k + "promote", "promotion.promote",
           lambda a: promotion.extension_permutation(P, promotion.promote),
           lambda perm, a: check_promotion(perm, R),
           swap_values, (words, len)),
        Op(k + "evacuate", "promotion.evacuate",
           lambda a: promotion.extension_permutation(P, promotion.evacuate),
           check_evacuate, swap_values, (words, len)),
        Op(k + "dual_evacuate", "promotion.dual_evacuate",
           lambda a: promotion.extension_permutation(P, promotion.dual_evacuate),
           check_dual, swap_values, (words, len)),
        Op(k + "orbits", "promotion.orbit_structure",
           lambda a: promotion.orbit_structure(P, "promote"),
           check_orbits,
           lambda rep: dataclasses.replace(
               rep, cycle_lengths=tuple(alter_last(rep.cycle_lengths))),
           (words, lambda rep: rep.size)),
        Op(k + "dihedral", "promotion.dihedral_order",
           lambda a: promotion.dihedral_order(P),
           check_dihedral, lambda order: order + 2),
    ]
    if rect:
        m, n = rect

        def check_sieve(rows, a):
            lengths = ref.cycle_lengths(need(a, k + "promote"))
            F = ref.q_hook_poly(m, n)[n * comb(m, 2):]
            at_roots = ref.root_of_unity_values(F, R.p)
            fixed = [sum(x for x in lengths if d % x == 0) for d in range(1, R.p + 1)]
            got = [(r.d, r.fixed, r.f_at_root) for r in rows]
            want = list(zip(range(1, R.p + 1), fixed, at_roots))
            return _problem(got == want, "cyclic sieving rows differ") + _problem(
                fixed == at_roots, "e_d != F(zeta^d)"
            )

        ops.append(
            Op(k + "sieve", "sieve.cyclic_sieving_check",
               lambda a: sieve.cyclic_sieving_check(m, n),
               check_sieve,
               lambda rows: rows[:-1] + [dataclasses.replace(rows[-1], fixed=rows[-1].fixed + 1)]))
    return ops


def extension_orbits(spec: dict) -> list:
    m, n = spec["rect"]
    rect = posets.shape_poset(posets.Shape((n,) * m))
    rnd = spec["random"]
    rand = posets.poset_from_covers(rnd["p"], [tuple(x) for x in rnd["relations"]])
    return extension_ops(
        rect_tag(m, n), rect, PosetRef(m * n, ref.rectangle_relations(m, n), ref.hook_count(m, n)),
        rect=(m, n),
    ) + extension_ops("random", rand, PosetRef(rnd["p"], rnd["relations"], rnd["e"]))


# ---------------------------------------------------------------------------
# extension-statistics


def statistics_ops(tag: str, P, R: PosetRef, evacuate_word) -> list:
    """Per-word statistics; `evacuate_word` is the reference evacuation."""
    k = f"{tag}:"

    def check_wprime(poly, a):
        words = need(a, k + "extensions")
        return _problem(ref.poly_eval(poly, 1) == R.e, "W'(1) != e(P)") + _problem(
            list(poly) == ref.comaj_poly(words, R.p), "W' differs from the comaj census"
        )

    def check_selfevac(found, a):
        words = need(a, k + "extensions")
        wanted = [w for w in words if evacuate_word(w) == w]
        w_at_minus_1 = ref.poly_eval(need(a, k + "wprime"), -1)
        return _problem(list(found) == wanted, "self-evacuating set differs") + _problem(
            len(found) == w_at_minus_1, "#self-evacuating != W'(-1)"
        )

    def check_domino(tableaux, a):
        w_at_minus_1 = ref.poly_eval(need(a, k + "wprime"), -1)
        return (
            _problem(len(tableaux) == w_at_minus_1, "#dual domino tableaux != W'(-1)")
            + _problem(len(set(tableaux)) == len(tableaux), "repeated domino tableau")
            + _problem(
                all(ref.is_dual_domino_chain(t, R.p, R.below) for t in tableaux),
                "not a dual domino tableau",
            )
        )

    def run_bijection(a):
        return [
            stats.domino_to_selfevac(P, stats.domino_word(t))
            for t in need(a, k + "domino")
        ]

    def check_bijection(images, a):
        selfevac = need(a, k + "selfevac")
        return _problem(
            len(set(images)) == len(images) and set(images) == set(selfevac),
            "domino images are not the self-evacuating set",
        )

    def check_signs(rep, a):
        words = need(a, k + "extensions")
        odd = sum(ref.parity(w) for w in words)
        lens = _chain_lengths(R)
        maximal = [t for t in range(R.p) if not R.up[t]]
        thm4a = all(x % 2 == R.p % 2 for t in maximal for x in lens[t])
        uniform = all(len({x % 2 for x in lens[t]}) == 1 for t in range(R.p))
        gamma = sum(max(lens[t]) for t in range(R.p))
        thm4b = uniform and comb(R.p, 2) % 2 != gamma % 2
        want = (R.e - odd == odd, thm4a, thm4b, R.e - odd, odd)
        got = (rep.balanced, rep.thm4a_applies, rep.thm4b_applies, rep.even, rep.odd)
        return _problem(got == want, f"sign balance {got}, expected {want}")

    return [
        Op(k + "extensions", "posets.linear_extensions",
           lambda a: list(posets.linear_extensions(P)),
           lambda words, a: check_extensions(words, R),
           alter_last, ("posets.extensions", len)),
        Op(k + "wprime", "stats.wprime_poly",
           lambda a: stats.wprime_poly(P), check_wprime,
           lambda poly: tuple(alter_last(poly))),
        Op(k + "selfevac", "stats.self_evacuating",
           lambda a: stats.self_evacuating(P), check_selfevac, alter_last),
        Op(k + "domino", "stats.dual_domino_tableaux",
           lambda a: stats.dual_domino_tableaux(P), check_domino, alter_last),
        Op(k + "bijection", "stats.domino_to_selfevac",
           run_bijection, check_bijection, alter_last),
        Op(k + "signs", "stats.sign_balance_report",
           lambda a: stats.sign_balance_report(P), check_signs,
           lambda rep: dataclasses.replace(rep, odd=rep.odd + 1)),
    ]


def _chain_lengths(R: PosetRef) -> list:
    """lens[t]: lengths of the saturated chains from a minimal element to t."""
    lens = [None] * R.p
    down = [[s for s in range(R.p) if t in R.up[s]] for t in range(R.p)]
    for t in range(R.p):  # ids are natural, so covers come first
        lens[t] = {0} if not down[t] else {x + 1 for s in down[t] for x in lens[s]}
    return lens


def extension_statistics(spec: dict) -> list:
    m, n = spec["rect"]
    shape = posets.Shape((n,) * m)
    natural, relabel = posets.natural_relabel(posets.shape_poset(shape))
    rnd = spec["random"]
    rand = posets.poset_from_covers(rnd["p"], [tuple(x) for x in rnd["relations"]])

    tag = rect_tag(m, n)
    sieve_ops = [
        Op(tag + ":f_poly_sum", "sieve.f_poly_sum",
           lambda a: sieve.f_poly_sum(shape),
           lambda F, a: _problem(list(F) == ref.q_hook_poly(m, n),
                                 "F(q) by summing maj != q-hook formula"),
           lambda F: tuple(alter_last(F)), ("sieve.tableaux", sum)),
        Op(tag + ":f_poly_hook", "sieve.f_poly_hook",
           lambda a: sieve.f_poly_hook(shape),
           lambda F, a: _problem(list(F) == ref.q_hook_poly(m, n),
                                 "F(q) by hooks != q-hook formula"),
           lambda F: tuple(alter_last(F))),
    ]
    # The relabel is the identity on row-major cells; the reference reads
    # the rectangle through it all the same.
    inverse = {new: old for old, new in enumerate(relabel)}
    nat_ref = PosetRef(
        m * n,
        [(relabel[s], relabel[t]) for s, t in ref.rectangle_relations(m, n)],
        ref.hook_count(m, n),
    )

    def rect_evacuate(word):
        ev = ref.rectangle_evacuate([inverse[t] for t in word], m, n)
        return tuple(relabel[t] for t in ev)

    rand_ref = PosetRef(rnd["p"], rnd["relations"], rnd["e"])
    return (
        sieve_ops
        + statistics_ops(tag + " natural", natural, nat_ref, rect_evacuate)
        + statistics_ops("random", rand, rand_ref, lambda w: ref.slide_evacuate(w, rand_ref.up))
    )


# ---------------------------------------------------------------------------
# hecke-expansion


def _rf_at(c: RatFunc, q) -> Fraction:
    return ref.ratfunc_at(c.coef, c.num, c.den, q)


def check_evacuation_element(elt, n: int, points) -> list:
    """The identities of the evacuation element at exact sample points."""
    sign = (-1) ** comb(n, 2)
    ident = tuple(range(1, n + 1))
    w0 = ident[::-1]
    out = _problem(
        all(sorted(w) == list(ident) for w in elt.terms), "a key is not a permutation"
    )
    lengths = {w: ref.perm_length(w) for w in elt.terms}
    for q in points:
        vals = {w: _rf_at(c, q) for w, c in elt.terms.items()}
        out += _problem(
            sum(v * q ** lengths[w] for w, v in vals.items()) == sign,
            f"sum c_w q^l(w) != {sign} at q = {q}",
        )
        out += _problem(
            sum(v * (-1) ** lengths[w] for w, v in vals.items()) == 1,
            f"sum c_w (-1)^l(w) != 1 at q = {q}",
        )
        out += _problem(
            vals.get(ident, 0) == ref.c_id_closed_form_at(n, q), f"c_id wrong at q = {q}"
        )
    at_one = {w: _rf_at(c, 1) for w, c in elt.terms.items()}
    out += _problem(
        all(v == (sign if w == w0 else 0) for w, v in at_one.items()) and w0 in at_one,
        "c_w(1) != (-1)^C(n,2) delta_{w,w0}",
    )
    return out


def perturb_coefficient(elt):
    """One c_w multiplied by 2."""
    terms = dict(elt.terms)
    w = sorted(terms)[len(terms) // 2]
    c = terms[w]
    terms[w] = RatFunc(c.coef * 2, c.num, c.den)
    return hecke.HeckeElt(elt.n, terms)


def hecke_expansion(spec: dict) -> list:
    n, n_small = spec["n"], spec["n_small"]
    big, small = f"evacuation_element({n})", f"evacuation_element({n_small})"
    points = [Fraction(a, b) for a, b in spec["points"]]
    # l(w) of every w in S_n_small: an input of the character sums
    lengths = {w: ref.perm_length(w) for w in permutations(range(1, n_small + 1))}

    def check_divisibility(rows, a):
        elt = need(a, small)
        want = []
        for w in permutations(range(1, n_small + 1)):
            bound = n_small - ref.reversal_cycles(w)
            c = elt.terms.get(w)
            order = None if c is None else ref.qm1_order(c.num)
            want.append((w, bound, order, order is None or order >= bound,
                         order is not None and order == bound))
        return _problem([tuple(r) for r in rows] == want, "divisibility rows differ") + _problem(
            all(r[3] for r in want), "a (q-1)-order is below n - kappa(w-hat)"
        )

    def character_sums(a):
        elt = need(a, small)
        by_q = RF_ZERO
        by_sign = RF_ZERO
        for w, c in elt.terms.items():
            ell = lengths[w]
            by_q = by_q + c * RatFunc.from_poly((0,) * ell + (1,))
            by_sign = by_sign + (c if ell % 2 == 0 else -c)
        return by_q, by_sign

    def check_sums(sums, a):
        by_q, by_sign = sums
        sign = (-1) ** comb(n_small, 2)
        elt = need(a, small)
        out = []
        for q in points:
            vals = [(_rf_at(c, q), lengths[w]) for w, c in elt.terms.items()]
            out += _problem(
                _rf_at(by_q, q) == sum(v * q ** ell for v, ell in vals) == sign,
                f"sum c_w q^l(w) wrong at q = {q}",
            )
            out += _problem(
                _rf_at(by_sign, q) == sum(v * (-1) ** ell for v, ell in vals) == 1,
                f"sum c_w (-1)^l(w) wrong at q = {q}",
            )
        return out

    def consistency_op(nq):
        fn, fq = nq

        def check(rep, a):
            sizes = {w: size for w, (size, _) in rep.cells.items()}
            sign = (-1) ** comb(fn, 2)
            elt = hecke.evacuation_element(fn)
            return (
                _problem(rep.ok and not rep.mismatches, "mismatched flags reported")
                + _problem(
                    all(size == fq ** ref.perm_length(w) for w, size in sizes.items()),
                    "a Bruhat cell is not of size q^l(w)",
                )
                + _problem(sum(sizes.values()) == ref.q_factorial_at(fn, fq),
                           "flag count != [n]_q!")
                + _problem(
                    sum(size * c for size, c in rep.cells.values()) == sign,
                    "sum over flags of the evacuation coefficients != (-1)^C(n,2)",
                )
                + _problem(
                    all(c == _rf_at(elt.coeff(w), fq) for w, (_, c) in rep.cells.items()),
                    "a cell coefficient differs from c_w(q)",
                )
            )

        def corrupt(rep):
            cells = dict(rep.cells)
            w = sorted(cells)[-1]
            size, c = cells[w]
            cells[w] = (size + 1, c)
            return dataclasses.replace(rep, cells=cells)

        return Op(f"hecke_consistency B_{fn}({fq})", "flags.hecke_consistency",
                  lambda a: flags.hecke_consistency(fn, fq), check, corrupt,
                  ("flags.flags", lambda rep: sum(s for s, _ in rep.cells.values())))

    return [
        Op(big, "hecke.evacuation_element",
           lambda a: hecke.evacuation_element(n),
           lambda elt, a: check_evacuation_element(elt, n, points),
           perturb_coefficient, ("hecke.terms", lambda elt: len(elt.terms))),
        Op(small, "hecke.evacuation_element",
           lambda a: hecke.evacuation_element(n_small),
           lambda elt, a: check_evacuation_element(elt, n_small, points),
           perturb_coefficient, ("hecke.terms", lambda elt: len(elt.terms))),
        Op(f"divisibility_report({n_small})", "hecke.divisibility_report",
           lambda a: hecke.divisibility_report(n_small), check_divisibility,
           lambda rows: rows[:1] + [(rows[1][0], rows[1][1] + 1) + rows[1][2:]] + rows[2:]),
        Op("character sums", "ratfunc.character_sum", character_sums, check_sums,
           lambda sums: (sums[0] + RF_ONE, sums[1]),
           ("ratfunc.terms_summed", lambda sums: 2 * len(lengths))),
    ] + [consistency_op(tuple(nq)) for nq in spec["flags"]]


# ---------------------------------------------------------------------------
# ideal-lattices


def ideal_lattices(spec: dict) -> list:
    wide = spec["wide"]
    W = posets.poset_from_covers(wide["p"], [tuple(x) for x in wide["relations"]])
    wide_ref = PosetRef(wide["p"], wide["relations"], ref.multinomial(wide["sizes"]))
    m, n = spec["shape"]
    P3 = posets.shape_poset(posets.Shape((n,) * m))
    J, members = posets.ideals_lattice(P3)
    JQ = chains.graded_from_poset(J)
    r3 = PosetRef(m * n, ref.rectangle_relations(m, n), ref.hook_count(m, n))
    cn = spec["cross"]
    X, faces = chains.cross_polytope(cn)
    stride, every = spec["chain_every"], spec["tau_every"]

    def check_ideals(masks, a):
        return (
            _problem(len(masks) == ref.chains_ideal_count(wide["sizes"]), f"{len(masks)} ideals")
            + _problem(len(set(masks)) == len(masks), "repeated ideal")
            + _problem(all(ref.is_ideal(x, wide_ref.below) for x in masks), "not an ideal")
            + _problem(
                all(bin(x).count("1") <= bin(y).count("1") for x, y in zip(masks, masks[1:])),
                "ideals not sorted by size",
            )
        )

    def check_lattice(lat, a):
        lattice, mem = lat
        masks = [sum(1 << t for t in x) for x in mem]
        covers = sum(
            1 for x in masks for t in range(r3.p)
            if not x >> t & 1 and not r3.below[t] & ~x
        )
        return (
            _problem(lattice.p == len(mem) == ref.rectangle_ideal_count(m, n), f"{lattice.p} ideals")
            + _problem(len(set(masks)) == len(masks), "repeated ideal")
            + _problem(all(ref.is_ideal(x, r3.below) for x in masks), "not an ideal")
            + _problem(
                len(lattice.covers) == covers
                and all(len(mem[hi] - mem[lo]) == 1 and mem[lo] < mem[hi]
                        for lo, hi in lattice.covers),
                "cover relation of J(P) wrong",
            )
        )

    def word(chain):
        return ref.ideal_chain_word(members, chain)

    def check_j_chains(found, a):
        words_ = [word(c) for c in found]
        return (
            _problem(len(found) == r3.e, f"{len(found)} chains of J(P), expected {r3.e}")
            + _problem(len(set(words_)) == len(words_), "repeated chain")
            + _problem(all(ref.is_extension(w, r3.p, r3.below) for w in words_),
                       "a chain of J(P) is not a linear extension")
        )

    def j_image_check(key, fn, what):
        def check(images, a):
            src = need(a, key)
            return _problem(
                len(images) == len(src)
                and all(word(y) == fn(word(x)) for x, y in zip(src, images)),
                what,
            )
        return check

    def steps(chain):
        return ref.chain_steps(faces, chain)

    def check_x_chains(found, a):
        perms = [steps(c) for c in found]
        return _problem(sorted(perms) == sorted(ref.signed_perms(cn)),
                        "chains of L_n are not the signed permutations")

    def x_image_check(fn, what, stride=1):
        def check(images, a):
            src = need(a, "L_n:chains")[::stride]
            return _problem(
                len(images) == len(src)
                and all(steps(y) == fn(steps(x)) for x, y in zip(src, images)),
                what,
            )
        return check

    def dual_evacuate_by_tau(a):
        h = X.height
        out = []
        for c in need(a, "L_n:chains")[::every]:
            for k in range(1, h):
                for i in range(h - 1, k - 1, -1):
                    c = chains.tau_chain(X, c, i)
            out.append(c)
        return out

    j_chains = ("chains.chains", len)  # chains handed to or made by the call
    return [
        Op("wide:count_extensions", "posets.count_extensions",
           lambda a: posets.count_extensions(W),
           lambda e, a: _problem(e == wide_ref.e, f"e(P) = {e}"),
           lambda e: e + 1),
        Op("wide:ideals", "posets.ideals",
           lambda a: posets.ideals(W), check_ideals, alter_last, ("posets.ideals", len)),
        Op("shape:ideals_lattice", "posets.ideals",
           lambda a: posets.ideals_lattice(P3), check_lattice,
           lambda lat: (lat[0], tuple(alter_last(lat[1]))),
           ("posets.ideals", lambda lat: lat[0].p)),
        Op("J(P):chains", "chains.maximal_chains",
           lambda a: chains.maximal_chains(JQ), check_j_chains, alter_last, j_chains),
        Op("J(P):promote", "chains.promote_chain",
           lambda a: [chains.promote_chain(JQ, c) for c in need(a, "J(P):chains")],
           j_image_check("J(P):chains", lambda w: ref.slide_promote(w, r3.up),
                         "chain promotion != word promotion"),
           alter_last, j_chains),
        Op("J(P):evacuate", "chains.evacuate_chain",
           lambda a: [chains.evacuate_chain(JQ, c) for c in need(a, "J(P):chains")],
           j_image_check("J(P):chains", lambda w: ref.rectangle_evacuate(w, m, n),
                         "chain evacuation != word evacuation"),
           alter_last, j_chains),
        Op("J(P):self_evacuating", "chains.self_evacuating_chains",
           lambda a: chains.self_evacuating_chains(JQ),
           lambda found, a: _problem(
               sorted(word(c) for c in found) == sorted(
                   word(c) for c in need(a, "J(P):chains")
                   if ref.rectangle_evacuate(word(c), m, n) == word(c)),
               "self-evacuating chains of J(P) differ"),
           alter_last, ("chains.chains", lambda found: r3.e)),
        Op("L_n:chains", "chains.maximal_chains",
           lambda a: chains.maximal_chains(X), check_x_chains, alter_last, j_chains),
        Op("L_n:promote", "chains.promote_chain",
           lambda a: [chains.promote_chain(X, c) for c in need(a, "L_n:chains")[::stride]],
           x_image_check(ref.signed_delta, "chain promotion != signed delta", stride),
           alter_last, j_chains),
        Op("L_n:evacuate", "chains.evacuate_chain",
           lambda a: [chains.evacuate_chain(X, c) for c in need(a, "L_n:chains")[::stride]],
           x_image_check(ref.signed_gamma, "chain evacuation != signed gamma", stride),
           alter_last, j_chains),
        Op("L_n:dual_evacuate", "chains.tau_chain", dual_evacuate_by_tau,
           x_image_check(ref.signed_gamma_star, "tau word gamma* != signed gamma*", every),
           alter_last, j_chains),
        Op("L_n:self_evacuating", "chains.self_evacuating_chains",
           lambda a: chains.self_evacuating_chains(X),
           lambda found, a: _problem(
               sorted(steps(c) for c in found) == sorted(
                   w for w in ref.signed_perms(cn) if ref.signed_gamma(w) == w),
               "self-evacuating chains of L_n differ"),
           alter_last, ("chains.chains", lambda found: len(ref.signed_perms(cn)))),
        Op("L_n:group_order", "chains.signed_group_order",
           lambda a: chains.signed_group_order(cn),
           lambda order, a: _problem(
               order == ref.dihedral_group_order(
                   ref.signed_perms(cn), ref.signed_gamma, ref.signed_gamma_star),
               f"group order {order}"),
           lambda order: order * 2),
    ]


BUILDERS = {
    "extension-orbits": extension_orbits,
    "extension-statistics": extension_statistics,
    "hecke-expansion": hecke_expansion,
    "ideal-lattices": ideal_lattices,
}
