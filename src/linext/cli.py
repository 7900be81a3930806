"""Batch command-line surface.

Exit codes: 0 all requested computations/verifications passed, 1 a
verification failed or an internal arithmetic invariant broke (printed as
"internal error: ..."), 2 parse/usage error, 3 a size cap was breached.
Output is deterministic (sorted emission).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations

from . import chains, corpus, flags, hecke, promotion, sieve, stats, verify
from .hecke import DEFAULT_HECKE_CAP
from .io import ParseError, format_word, load_poset, parse_shape, parse_word
from .posets import (
    DEFAULT_EXTENSION_CAP,
    CapExceeded,
    count_extensions,
    linear_extensions,
    natural_relabel,
    shape_poset,
)
from .ratfunc import format_factored, poly_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _load_input(args):
    if getattr(args, "poset", None):
        if args.poset.startswith("corpus:"):
            name = args.poset[len("corpus:"):]
            table = corpus.corpus()
            if name not in table:
                raise ParseError(f"unknown corpus poset {name!r}")
            return table[name]
        return load_poset(args.poset)
    if getattr(args, "shape", None):
        return shape_poset(parse_shape(args.shape))
    raise ParseError("need --poset FILE (or corpus:NAME) or --shape SPEC")


def _emit(rows, header, fmt):
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], default=str))
    else:
        print("\t".join(header))
        for r in rows:
            print("\t".join(str(x) for x in r))


def _emit_checks(results, fmt) -> int:
    rows = [(r.name, "pass" if r.passed else "FAIL", r.detail) for r in results]
    _emit(rows, ("check", "status", "detail"), fmt)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_le(args):
    P = _load_input(args)
    rows = [(format_word(w),) for w in linear_extensions(P, cap=args.cap)]
    _emit(rows, ("extension",), args.format)
    return EXIT_OK


def cmd_count(args):
    P = _load_input(args)
    _emit([(count_extensions(P),)], ("e",), args.format)
    return EXIT_OK


_WORD_OPERATORS = {
    ("promote", False): promotion.promote,
    ("promote", True): promotion.dual_promote,
    ("evacuate", False): promotion.evacuate,
    ("evacuate", True): promotion.dual_evacuate,
}


def cmd_word_operator(args):
    P = _load_input(args)
    w = parse_word(args.word)
    if not P.is_extension(w):
        raise ParseError(f"{args.word!r} is not a linear extension")
    print(format_word(_WORD_OPERATORS[args.verb, args.dual](P, w)))
    return EXIT_OK


def cmd_orbits(args):
    P = _load_input(args)
    rep = promotion.orbit_structure(P, args.op, cap=args.cap)
    rows = [(rep.operator, rep.size, ",".join(map(str, rep.cycle_lengths)))]
    _emit(rows, ("operator", "extensions", "cycle_lengths"), args.format)
    return EXIT_OK


def cmd_dihedral(args):
    P = _load_input(args)
    _emit([(promotion.dihedral_order(P, cap=args.cap),)], ("order",), args.format)
    return EXIT_OK


def cmd_stats(args):
    P = _load_input(args)
    Q, relabel = natural_relabel(P)
    fmt = args.format
    if args.stat == "wprime":
        poly = stats.wprime_poly(Q)
        if fmt == "json":
            print(json.dumps({"coeffs": list(poly)}))
        else:
            print(poly_str(poly, "x"))
        return EXIT_OK
    original = sorted(range(P.p), key=relabel.__getitem__)  # Q's id -> P's id
    if args.stat == "domino":
        tableaux = stats.dual_domino_tableaux(Q, cap=args.cap)
        rows = [
            (" | ".join(",".join(map(str, sorted(original[t] for t in ideal)))
                        for ideal in tableau),)
            for tableau in tableaux
        ]
        _emit(rows, ("ideal_chain",), fmt)
        return EXIT_OK
    if args.stat == "selfevac":
        rows = [
            (format_word(original[t] for t in w),)
            for w in stats.self_evacuating(Q, cap=args.cap)
        ]
        _emit(rows, ("extension",), fmt)
        return EXIT_OK
    if args.stat == "signbalance":
        rep = stats.sign_balance_report(Q)
        rows = [
            (rep.balanced, rep.thm4a_applies, rep.thm4b_applies, rep.even, rep.odd)
        ]
        _emit(rows, ("balanced", "thm4a", "thm4b", "even", "odd"), fmt)
        return EXIT_OK


def cmd_sieve(args):
    fmt, s = args.format, parse_shape(args.shape)
    if args.action == "F":
        poly = sieve.F_poly(s)
        if fmt == "json":
            print(json.dumps({"coeffs": list(poly)}))
        else:
            print(poly_str(poly))
        return EXIT_OK
    if args.action == "check":
        if s.shifted or len(set(s.rows)) != 1:
            raise ParseError(f"sieve check needs a rectangle, not {args.shape!r}")
        rows_data = sieve.cyclic_sieving_check(len(s.rows), s.rows[0], cap=args.cap)
        rows = [
            (r.d, r.fixed, r.f_at_root, "pass" if r.ok else "FAIL")
            for r in rows_data
        ]
        _emit(rows, ("d", "e_d", "F(zeta^d)", "status"), fmt)
        return EXIT_OK if all(r.ok for r in rows_data) else EXIT_FAIL
    if args.action == "special":
        rep = sieve.special_shape_check(s, args.kind, cap=args.cap)
        rows = [
            (rep.kind, str(rep.shape), rep.extensions, rep.power_ok,
             rep.dihedral, rep.evac_formula_ok)
        ]
        _emit(
            rows,
            ("kind", "shape", "extensions", "power_ok", "dihedral", "evac_formula"),
            fmt,
        )
        return EXIT_OK if rep.power_ok and rep.evac_formula_ok else EXIT_FAIL
    if args.action == "table":
        rows = sieve.fixed_point_table(shape_poset(s), cap=args.cap)
        _emit(rows, ("d", "e_d"), fmt)
        return EXIT_OK


def cmd_hecke(args):
    fmt = args.format
    if args.action == "cw":
        if args.w and sorted(args.w) != [str(i) for i in range(1, args.n + 1)]:
            raise ParseError(f"--w {args.w!r} is not a permutation of 1..{args.n}")
        w = tuple(map(int, args.w or ""))
        elt = hecke.evacuation_element(args.n, cap=args.hecke_cap)
        if w:
            c = elt.coeff(w)
            if fmt == "json":
                num, den = c.as_int_pair()
                print(json.dumps({"w": args.w, "num": list(num), "den": list(den)}))
            else:
                print(format_factored(c))
            return EXIT_OK
        rows = []
        for w in permutations(range(1, args.n + 1)):
            key = "".join(map(str, w))
            rows.append((key, format_factored(elt.coeff(w))))
        _emit(rows, ("w", "c_w"), fmt)
        return EXIT_OK
    if args.action == "verify":
        if args.what == "cid":
            ok = hecke.check_thm_cid(args.n, cap=args.hecke_cap)
            return _emit_checks(
                [verify.CheckResult(f"n={args.n}: c_id closed form", ok)], fmt
            )
        if args.what == "div":
            rows_data = hecke.divisibility_report(args.n, cap=args.hecke_cap)
            rows = [
                (
                    "".join(map(str, w)),
                    bound,
                    "-" if order is None else order,
                    "pass" if ok else "FAIL",
                    "tight" if tight else "",
                )
                for (w, bound, order, ok, tight) in rows_data
            ]
            _emit(rows, ("w", "bound", "qm1_order", "status", "tight"), fmt)
            return EXIT_OK if all(r[3] for r in rows_data) else EXIT_FAIL
        raise ParseError("hecke verify needs cid or div")


def cmd_slender(args):
    Q = chains.graded_from_poset(_load_input(args))
    slender = Q.slender
    rows = [
        (
            slender,
            len(chains.maximal_chains(Q)),
            len(chains.dual_domino_chains(Q)),
            len(chains.self_evacuating_chains(Q)) if slender else "-",
        )
    ]
    _emit(rows, ("slender", "max_chains", "dual_domino", "self_evacuating"), args.format)
    return EXIT_OK


def cmd_crosspoly(args):
    n = args.n
    Q, faces = chains.cross_polytope(n)
    rows = [
        (
            n,
            len(chains.maximal_chains(Q)),
            Q.slender,
            chains.signed_group_order(n),
        )
    ]
    _emit(rows, ("n", "max_chains", "slender", "dihedral_order"), args.format)
    return EXIT_OK


def cmd_flags(args):
    if args.verify_hecke:
        rep = flags.hecke_consistency(args.n, args.q)
        rows = [
            ("".join(map(str, w)), size, str(coeff))
            for w, (size, coeff) in sorted(rep.cells.items())
        ]
        _emit(rows, ("w", "cell_size", "coefficient"), args.format)
        return EXIT_OK if rep.ok else EXIT_FAIL
    lat = flags.subspace_lattice(args.n, args.q)
    rows = [(args.n, args.q, len(lat.subspaces), len(chains.maximal_chains(lat.graded)))]
    _emit(rows, ("n", "q", "subspaces", "max_chains"), args.format)
    return EXIT_OK


def cmd_verify(args):
    results = verify.SUITES[args.id]()
    return _emit_checks(results, args.format)


def _positive_int(text: str) -> int:
    """The value of a cap option; anything but a positive integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _global_options(suppress: bool) -> argparse.ArgumentParser:
    """The options accepted on either side of the verb.  After the verb they
    default to SUPPRESS, so that a value given before the verb stands."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--format", choices=("tsv", "json"), default=default("tsv"))
    g.add_argument("--cap", type=_positive_int, default=default(DEFAULT_EXTENSION_CAP),
                   help="cap on e(P) and on the dual domino tableaux; stats wprime, "
                   "stats signbalance and sieve F list no word and are bounded by the ideal cap alone")
    g.add_argument("--hecke-cap", type=_positive_int, default=default(DEFAULT_HECKE_CAP))
    return g


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linext",
        description="Promotion and evacuation on linear extensions, exactly.",
        parents=[_global_options(suppress=False)],
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    after_verb = _global_options(suppress=True)

    def add_verb(name, **kwargs):
        return sub.add_parser(name, parents=[after_verb], **kwargs)

    def poset_args(p):
        p.add_argument("--poset", help="poset file or corpus:NAME")
        p.add_argument("--shape", help="shape spec like shape:3,3 or shifted:3,1")

    p = add_verb("le", help="list linear extensions")
    poset_args(p)
    p.set_defaults(func=cmd_le)

    p = add_verb("count", help="count linear extensions")
    poset_args(p)
    p.set_defaults(func=cmd_count)

    for verb in ("promote", "evacuate"):
        p = add_verb(verb)
        poset_args(p)
        p.add_argument("--word", required=True, help="comma-separated word")
        p.add_argument("--dual", action="store_true")
        p.set_defaults(func=cmd_word_operator)

    p = add_verb("orbits")
    poset_args(p)
    p.add_argument("--op", choices=sorted(promotion.ORBIT_OPERATORS), default="promote")
    p.set_defaults(func=cmd_orbits)

    p = add_verb("dihedral")
    poset_args(p)
    p.set_defaults(func=cmd_dihedral)

    p = add_verb("stats")
    p.add_argument("stat", choices=("wprime", "domino", "selfevac", "signbalance"))
    poset_args(p)
    p.set_defaults(func=cmd_stats)

    p = add_verb("sieve")
    p.add_argument("action", choices=("F", "check", "special", "table"))
    p.add_argument("--shape", required=True)
    p.add_argument("--kind", default="rectangle",
                   choices=("rectangle", "staircase",
                            "shifted_double_staircase", "shifted_trapezoid"))
    p.set_defaults(func=cmd_sieve)

    p = add_verb("hecke")
    p.add_argument("action", choices=("cw", "verify"))
    p.add_argument("what", nargs="?", choices=("cid", "div"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", help="one-line permutation like 2413")
    p.set_defaults(func=cmd_hecke)

    p = add_verb("slender")
    p.add_argument("poset", metavar="posetfile", help="poset file or corpus:NAME")
    p.set_defaults(func=cmd_slender)

    p = add_verb("crosspoly")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_crosspoly)

    p = add_verb("flags")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify-hecke", action="store_true")
    p.set_defaults(func=cmd_flags)

    p = add_verb("verify")
    p.add_argument("id", choices=sorted(verify.SUITES))
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
