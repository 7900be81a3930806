"""File formats and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from linext import cli, corpus, flags, hecke, posets
from linext.cli import main
from linext.io import (
    ParseError,
    format_word,
    parse_poset,
    parse_shape,
    parse_word,
)
from linext.posets import count_extensions
from linext.ratfunc import RF_ZERO, InexactDivision, RatFunc, deflate, qm1_order

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _poset_text(P) -> str:
    """P as a poset file: `p=<n>`, then one `s<t` line per cover."""
    return "".join([f"p={P.p}\n"] + [f"{s}<{t}\n" for s, t in P.covers])


def test_poset_roundtrip():
    text = "p=4\n0<1\n0<2\n1<3\n2<3\n"
    P = parse_poset(text)
    assert count_extensions(P) == 2
    assert _poset_text(P) == text
    assert parse_poset(_poset_text(P)).covers == P.covers


def test_poset_parse_errors():
    with pytest.raises(ParseError):
        parse_poset("0<1\n")
    with pytest.raises(ParseError):
        parse_poset("p=2\n0-1\n")
    with pytest.raises(ParseError):
        parse_poset("p=x\n")


def test_shape_parsing():
    assert parse_shape("shape:3,3,2").rows == (3, 3, 2)
    assert parse_shape("shifted:4,3,1").shifted
    assert parse_shape("2,1").rows == (2, 1)
    with pytest.raises(ParseError):
        parse_shape("weird:1")
    with pytest.raises(ParseError):
        parse_shape("shape:3,4")


def test_word_roundtrip():
    assert parse_word("0,2,1") == (0, 2, 1)
    assert format_word((0, 2, 1)) == "0,2,1"
    assert parse_word("") == () and format_word(()) == ""
    with pytest.raises(ParseError):
        parse_word(",")


def test_corpus_files_load():
    files = {}
    for fname in sorted(os.listdir(CORPUS_DIR)):
        with open(os.path.join(CORPUS_DIR, fname)) as fh:
            files[fname.removesuffix(".poset")] = parse_poset(fh.read())
    assert files == corpus.corpus()


def test_cli_le_and_count(capsys):
    code, out, _ = run_cli(["le", "--shape", "shape:2,2"], capsys)
    assert code == 0
    assert out.splitlines() == ["extension", "0,1,2,3", "0,2,1,3"]
    code, out, _ = run_cli(["count", "--poset", "corpus:boolean3"], capsys)
    assert code == 0 and out.splitlines()[1] == "48"


def test_cli_promote_evacuate_roundtrip(capsys):
    code, out, _ = run_cli(
        ["promote", "--shape", "shape:2,2", "--word", "0,1,2,3"], capsys
    )
    assert code == 0 and out.strip() == "0,2,1,3"
    code, out, _ = run_cli(
        ["promote", "--dual", "--shape", "shape:2,2", "--word", "0,2,1,3"],
        capsys,
    )
    assert code == 0 and out.strip() == "0,1,2,3"
    code, out, _ = run_cli(
        ["evacuate", "--shape", "shape:2,2", "--word", "0,1,2,3"], capsys
    )
    assert code == 0 and out.strip() == "0,1,2,3"


def test_cli_json_format(capsys):
    code, out, _ = run_cli(
        ["--format", "json", "dihedral", "--shape", "shape:3,3"], capsys
    )
    assert code == 0
    assert json.loads(out) == [{"order": 2}]


def test_cli_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "thm1"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(["le", "--poset", "no_such_file.poset"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["--cap", "1", "orbits", "--poset", "corpus:boolean3"], capsys
    )
    assert code == 3
    code, _, err = run_cli(
        ["promote", "--shape", "shape:2,2", "--word", "3,2,1,0"], capsys
    )
    assert code == 2  # not a linear extension


@pytest.mark.parametrize("argv,code,message", [
    (["flags", "--n", "6", "--q", "2"], 3, "n = 6 exceeds cap n <= 5 at q = 2"),
    (["flags", "--n", "5", "--q", "3", "--verify-hecke"], 3, "n = 5 exceeds cap n <= 4 at q = 3"),
    (["crosspoly", "--n", "7"], 3, "n = 7 exceeds cap n <= 6"),
    (["flags", "--n", "2", "--q", "4"], 2, "supports q in [2, 3], not q = 4"),
    (["flags", "--n", "-1", "--q", "2"], 2, "needs n >= 0, not n = -1"),
    (["crosspoly", "--n", "0"], 2, "needs n >= 1, not n = 0"),
    (["crosspoly", "--n", "-1"], 2, "needs n >= 1, not n = -1"),
])
def test_cli_size_caps_exit_3_and_unsupported_q_exits_2(argv, code, message, capsys):
    # a size past a cap exits 3; an unsupported q is a usage error
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    assert message in err


def test_flags_verify_hecke_answers_n_0(capsys):
    # B_0(q) has one flag, in the cell of the empty permutation, with
    # coefficient 1; the Hecke verbs themselves still need n >= 1
    for q in ("2", "3"):
        argv = ["flags", "--n", "0", "--q", q, "--verify-hecke"]
        assert run_cli(argv, capsys) == (0, "w\tcell_size\tcoefficient\n\t1\t1\n", "")
        code, out, _ = run_cli(["--format", "json", *argv], capsys)
        assert code == 0 and json.loads(out) == [{"w": "", "cell_size": 1, "coefficient": "1"}]
    code, out, err = run_cli(["hecke", "cw", "--n", "0"], capsys)
    assert (code, out) == (2, "") and "n must be positive" in err


def test_cli_internal_index_error_is_not_a_usage_error(monkeypatch):
    def broken(P, w):
        raise IndexError("internal fault")

    monkeypatch.setitem(cli._WORD_OPERATORS, ("promote", False), broken)
    with pytest.raises(IndexError, match="internal fault"):
        main(["promote", "--shape", "shape:2,2", "--word", "0,1,2,3"])


def test_cli_slender_reads_corpus_names_and_files(capsys):
    rows = ["slender\tmax_chains\tdual_domino\tself_evacuating", "True\t2\t2\t2"]
    for poset in ("corpus:weak_s3", os.path.join(CORPUS_DIR, "weak_s3.poset")):
        code, out, _ = run_cli(["slender", poset], capsys)
        assert (code, out.splitlines()) == (0, rows)


@pytest.mark.parametrize("verb", [["le", "--poset"], ["slender"]])
def test_cli_unreadable_poset_path_is_a_usage_error(verb, tmp_path, capsys):
    # the reader's OSError is the user's fault: exit 2 with its text, no traceback
    for path, reason in ((tmp_path, "Is a directory"), (tmp_path / "missing.poset", "No such file or directory")):
        code, out, err = run_cli([*verb, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and err.endswith(f"] {reason}: {str(path)!r}\n")


def test_cli_count_exits_3_at_ideal_cap(tmp_path, capsys, monkeypatch):
    # a small cap in place of the default keeps the test fast
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 1000)
    f = tmp_path / "antichain40.poset"
    f.write_text("p=40\n")  # 2^40 ideals
    code, out, err = run_cli(["count", "--poset", str(f)], capsys)
    assert code == 3 and out == ""
    assert "40-element" in err and "1000" in err


def test_cli_count_on_a_wide_antichain_exits_3_at_once(tmp_path, capsys):
    # 21 one-element components pass the default ideal cap: the message is the
    # one walk of all 2^21 ideals gave, and no such walk runs
    f = tmp_path / "antichain21.poset"
    f.write_text("p=21\n")
    code, out, err = run_cli(["count", "--poset", str(f)], capsys)
    assert (code, out) == (3, "")
    assert err == "cap exceeded: e(P) of a 21-element poset needs more than 1048576 order ideals\n"


@pytest.mark.parametrize("verb", [["count"], ["le"], ["orbits"], ["dihedral"], ["stats", "selfevac"]])
def test_cli_negative_element_count_is_a_usage_error(verb, tmp_path, capsys):
    f = tmp_path / "negative.poset"
    f.write_text("p=-3\n")
    code, out, err = run_cli([*verb, "--poset", str(f)], capsys)
    assert (code, out, err) == (2, "", "error: a poset needs p >= 0 elements, not p = -3\n")


def test_ideal_lattice_of_a_disconnected_corpus_poset_is_pinned():
    # chains 0 < 1 and 2 < 3 < 4: J(P) is the 3 x 4 grid, in (size, members) order
    lattice, members = posets.ideals_lattice(corpus.corpus()["union_c2_c3"])
    assert [tuple(sorted(m)) for m in members] == [
        (), (0,), (2,), (0, 1), (0, 2), (2, 3), (0, 1, 2), (0, 2, 3), (2, 3, 4),
        (0, 1, 2, 3), (0, 2, 3, 4), (0, 1, 2, 3, 4)]
    assert lattice.covers == (
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (4, 7), (5, 7),
        (5, 8), (6, 9), (7, 9), (7, 10), (8, 10), (9, 11), (10, 11))


def test_cli_le_on_a_wide_poset_names_the_extension_cap(tmp_path, capsys, monkeypatch):
    # the ideal walk overflows; its last complete layer already shows e(P) > --cap
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 1000)
    f = tmp_path / "antichain12.poset"
    f.write_text("p=12\n")
    code, out, err = run_cli(["--cap", "100", "le", "--poset", str(f)], capsys)
    assert (code, out, err) == (3, "", "cap exceeded: e(P) >= 11880 exceeds cap 100\n")
    code, out, err = run_cli(["le", "--poset", str(f)], capsys)
    assert (code, out) == (3, "")
    assert err == "cap exceeded: e(P) of a 12-element poset needs more than 1000 order ideals\n"


def test_cli_poset_file_input(tmp_path, capsys):
    f = tmp_path / "p.poset"
    f.write_text("p=3\n0<1\n0<2\n")
    code, out, _ = run_cli(["le", "--poset", str(f)], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["0,1,2", "0,2,1"]


def test_cli_stats_and_hecke(capsys):
    code, out, _ = run_cli(["stats", "wprime", "--poset", "corpus:diamond"], capsys)
    assert code == 0 and out.strip() == "x^2+1"
    code, out, _ = run_cli(["hecke", "cw", "--n", "4", "--w", "4321"], capsys)
    assert code == 0 and out.strip() == "64/(q+1)^6"


@pytest.mark.parametrize("w, line", [
    ("4321", '{"w": "4321", "num": [64], "den": [1, 6, 15, 20, 15, 6, 1]}'),
    ("1234", '{"w": "1234", "num": [1, -2, 1], "den": [1, 2, 1]}'),
    ("2314", '{"w": "2314", "num": [-4, 16, -24, 16, -4], "den": [1, 6, 15, 20, 15, 6, 1]}'),
])
def test_cli_hecke_cw_json_prints_integer_num_and_den(w, line, capsys):
    """The scalar folds into num and den, which then share no integer factor."""
    code, out, err = run_cli(["hecke", "cw", "--n", "4", "--w", w, "--format", "json"], capsys)
    assert (code, out, err) == (0, line + "\n", "")


def test_cli_signbalance_on_the_empty_poset(tmp_path, capsys):
    f = tmp_path / "empty.poset"
    f.write_text("p=0\n")
    code, out, _ = run_cli(["stats", "signbalance", "--poset", str(f)], capsys)
    assert code == 0 and out.splitlines()[1] == "False\tFalse\tFalse\t1\t0"


def test_cli_word_operators_take_the_empty_word_of_the_empty_poset(tmp_path, capsys):
    f = tmp_path / "empty.poset"
    f.write_text("p=0\n")
    for verb in ("promote", "evacuate"):
        for dual in ([], ["--dual"]):
            code, out, _ = run_cli([verb, "--poset", str(f), "--word", ""] + dual, capsys)
            assert (code, out) == (0, "\n")
    code, out, err = run_cli(["promote", "--poset", "corpus:diamond", "--word", ""], capsys)
    assert (code, out) == (2, "") and "not a linear extension" in err


def _under_recursion_limit(limit, run):
    """run() with the interpreter's recursion limit lowered to `limit`."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return run()
    finally:
        sys.setrecursionlimit(old)


def test_cli_extension_verbs_on_a_1000_element_chain(capsys):
    # A one-row shape of 1000 cells is a 1000-element chain, with e(P) = 1.
    runs = _under_recursion_limit(250, lambda: {
        verb: run_cli(verb.split() + ["--shape", "1000"], capsys)
        for verb in ("le", "orbits", "stats wprime")})
    assert {verb: (code, err) for verb, (code, _, err) in runs.items()} == dict.fromkeys(runs, (0, ""))
    assert runs["le"][1] == "extension\n" + ",".join(map(str, range(1000))) + "\n"
    assert runs["orbits"][1].splitlines()[1] == "promote\t1\t1"
    assert runs["stats wprime"][1] == "1\n"


def test_cli_domino_tableaux_of_a_long_chain(capsys):
    # 300 domino steps, each of two elements, under a recursion limit of 250.
    code, out, err = _under_recursion_limit(
        250, lambda: run_cli(["stats", "domino", "--shape", "600"], capsys))
    assert (code, err) == (0, "")
    (tableau,) = out.splitlines()[1:]
    ideals = tableau.split(" | ")
    assert ideals[:3] == ["", "0,1", "0,1,2,3"] and len(ideals) == 301
    assert ideals[-1] == ",".join(map(str, range(600)))


def test_cli_hecke_verify_needs_cid_or_div(capsys):
    code, out, err = run_cli(["hecke", "verify", "--n", "3"], capsys)
    assert code == 2 and out == ""
    assert "verify needs cid or div" in err


def test_cli_entrypoint_subprocess():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "linext.cli", "dihedral", "--shape", "shape:2,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2"


def test_cli_sieve_check_rejects_non_rectangles(capsys):
    for spec in ("shape:3,2", "shifted:3,1"):
        code, out, err = run_cli(["sieve", "check", "--shape", spec], capsys)
        assert code == 2, spec
        assert out == ""
        assert "rectangle" in err


def test_cli_stats_print_input_ids(tmp_path, capsys):
    f = tmp_path / "rev.poset"
    f.write_text("p=3\n2<1\n1<0\n")
    code, out, _ = run_cli(["stats", "selfevac", "--poset", str(f)], capsys)
    assert code == 0 and out.splitlines()[1:] == ["2,1,0"]
    code, out, _ = run_cli(["stats", "domino", "--poset", str(f)], capsys)
    assert code == 0 and out.splitlines()[1:] == [" | 2 | 0,1,2"]
    f.write_text("p=4\n3<1\n2<0\n")
    code, out, _ = run_cli(["stats", "selfevac", "--poset", str(f)], capsys)
    assert code == 0 and out.splitlines()[1:] == ["2,3,1,0", "3,2,0,1"]
    code, out, _ = run_cli(["stats", "domino", "--poset", str(f)], capsys)
    assert code == 0 and out.splitlines()[1:] == [" | 0,2 | 0,1,2,3", " | 1,3 | 0,1,2,3"]


def test_cli_hecke_cw_rejects_non_permutations(capsys):
    for w in ("9999", "123", "1224", "12345"):
        code, out, err = run_cli(["hecke", "cw", "--n", "4", "--w", w], capsys)
        assert code == 2, w
        assert out == ""
        assert "permutation" in err


def test_cli_hecke_cw_names_w_when_it_is_not_digits(capsys):
    code, out, err = run_cli(["hecke", "cw", "--n", "3", "--w", "1a3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --w '1a3' is not a permutation of 1..3\n"


@pytest.mark.parametrize("option", ["--cap", "--hecke-cap"])
@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("after_verb", [False, True])
def test_cli_caps_below_1_are_usage_errors(option, value, after_verb, capsys):
    verb = ["le", "--shape", "shape:2,2"]
    argv = verb + [option, value] if after_verb else [option, value] + verb
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"argument {option}: expected a positive integer, got '{value}'" in err


def test_cli_internal_arithmetic_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(n, cap):
        raise InexactDivision("inexact polynomial division")

    monkeypatch.setattr("linext.hecke.evacuation_element", broken)
    code, out, err = run_cli(["hecke", "cw", "--n", "3", "--w", "321"], capsys)
    assert code == 1 and out == ""
    assert "internal error" in err and "inexact polynomial division" in err
    # a real usage error is still exit 2
    code, out, err = run_cli(["hecke", "cw", "--n", "3", "--w", "9999"], capsys)
    assert code == 2 and "internal error" not in err


def test_cli_stats_domino_exits_3_at_cap(capsys):
    code, out, err = run_cli(["stats", "domino", "--shape", "shape:4,4"], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 6
    code, out, err = run_cli(
        ["--cap", "1", "stats", "domino", "--shape", "shape:4,4"], capsys
    )
    assert code == 3 and out == ""
    assert "1 dual domino tableaux" in err


def test_cli_global_options_on_either_side_of_the_verb(capsys):
    code, before, _ = run_cli(
        ["--cap", "1000", "orbits", "--shape", "shape:2,2"], capsys
    )
    assert code == 0
    code, after, _ = run_cli(
        ["orbits", "--shape", "shape:2,2", "--cap", "1000"], capsys
    )
    assert code == 0 and after == before
    code, out, _ = run_cli(["orbits", "--shape", "shape:3,3", "--cap", "4"], capsys)
    assert code == 3 and out == ""
    code, out, _ = run_cli(["dihedral", "--shape", "shape:2,2", "--format", "json"], capsys)
    assert code == 0 and json.loads(out) == [{"order": 2}]
    # a value after the verb wins over one before it; none keeps the default
    code, out, _ = run_cli(
        ["--format", "json", "dihedral", "--shape", "shape:2,2", "--format", "tsv"], capsys
    )
    assert code == 0 and out.splitlines() == ["order", "2"]
    code, out, _ = run_cli(["--format", "json", "dihedral", "--shape", "shape:2,2"], capsys)
    assert code == 0 and json.loads(out) == [{"order": 2}]
    code, _, err = run_cli(["hecke", "cw", "--n", "4", "--w", "1234", "--hecke-cap", "3"], capsys)
    assert code == 3 and "n = 4" in err


def test_cli_orbits_offers_every_operator(capsys):
    for op in ("promote", "evacuate", "dual_evacuate", "promote_p"):
        code, out, _ = run_cli(["orbits", "--shape", "shape:3,2", "--op", op], capsys)
        assert code == 0, op
        assert out.splitlines()[1].split("\t")[:2] == [op, "5"]


@pytest.mark.parametrize("fault", [
    lambda: qm1_order(RF_ZERO),
    lambda: qm1_order(RatFunc.make((1,), (-1, 1))),
    lambda: deflate((), 1),
])
def test_cli_arithmetic_fault_exits_1_as_internal_error(fault, capsys, monkeypatch):
    monkeypatch.setattr(hecke, "divisibility_report", lambda n, cap: fault())
    code, out, err = run_cli(["hecke", "verify", "div", "--n", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("internal error: ")


def _chain_verb_commands(tmp_path) -> dict:
    """Verb group -> argv lists of the chain verbs, each in tsv and in json."""
    files = []
    for n in (2, 3):  # B_n(2), not slender: [0, F_2^2] has 3 middles
        path = tmp_path / f"b{n}2.poset"
        path.write_text(_poset_text(flags.subspace_lattice(n, 2).graded.poset))
        files.append(str(path))
    groups = {
        "slender": [["slender", f"corpus:{name}"] for name in corpus.corpus()]
        + [["slender", path] for path in files],
        "crosspoly": [["crosspoly", "--n", str(n)] for n in (1, 2, 3, 4, 5, 7)],
        "flags": [["flags", "--n", str(n), "--q", str(q)]
                  for n, q in ((0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3))],
        "flags --verify-hecke": [["flags", "--n", str(n), "--q", str(q), "--verify-hecke"]
                                 for n, q in ((2, 2), (2, 3), (3, 2))],
    }
    return {group: [[*argv, "--format", fmt] for argv in cmds for fmt in ("tsv", "json")]
            for group, cmds in groups.items()}


# SHA-256 prefixes, per verb group, of (exit code, stdout, stderr) of each
# command of _chain_verb_commands run through cli.main
CHAIN_VERB_DIGESTS = {
    "slender": "840d7be940b3a6d2",
    "crosspoly": "e075a9e693df8f26",
    "flags": "bee4846584d432a4",
    "flags --verify-hecke": "528859341749ae12",
}


def test_chain_verbs_are_pinned_by_digest(tmp_path, capsys):
    got = {}
    for group, cmds in _chain_verb_commands(tmp_path).items():
        h = hashlib.sha256()
        for argv in cmds:
            h.update(repr(run_cli(argv, capsys)).encode())
        got[group] = h.hexdigest()[:16]
    assert got == CHAIN_VERB_DIGESTS


def _statistic_verb_commands(tmp_path) -> dict:
    """Verb group -> argv lists of the statistic verbs, each in tsv and in
    json: every corpus poset and a few shapes, none past a cap."""
    empty = tmp_path / "empty.poset"
    empty.write_text("p=0\n")
    posets_ = [f"corpus:{name}" for name in corpus.corpus()] + [str(empty)]
    shapes = ["shape:3,3", "shape:4,2,1", "shape:3,3,3", "shifted:4,2", "shifted:5,3,1"]
    inputs = [["--poset", P] for P in posets_] + [["--shape", s] for s in shapes]
    groups = {
        "stats wprime": [["stats", "wprime", *i] for i in inputs],
        "stats signbalance": [["stats", "signbalance", *i] for i in inputs],
        "sieve F": [["sieve", "F", "--shape", s] for s in (
            "shape:1", "shape:2,2", "shape:3,3", "shape:2,2,2,2", "shape:4,4,4",  # rectangles
            "shape:2,1", "shape:3,2,1", "shape:4,3,2,1",  # staircases
            "shape:3,1", "shape:4,2,1", "shape:5,3,3",
            "shifted:1", "shifted:3,1", "shifted:4,2", "shifted:5,3,1", "shifted:6,4,2")],
        "verify": [["verify", "thm4"], ["verify", "thm5"]],
    }
    return {group: [[*argv, "--format", fmt] for argv in cmds for fmt in ("tsv", "json")]
            for group, cmds in groups.items()}


# SHA-256 prefixes, per verb group, of (exit code, stdout, stderr) of each
# command of _statistic_verb_commands run through cli.main
STATISTIC_VERB_DIGESTS = {
    "stats wprime": "9e7d9936a31e03af",
    "stats signbalance": "e14959665956f429",
    "sieve F": "4403e057d9a11ef7",
    "verify": "322e3ec0606530f3",
}


def test_statistic_verbs_are_pinned_by_digest(tmp_path, capsys):
    got = {}
    for group, cmds in _statistic_verb_commands(tmp_path).items():
        h = hashlib.sha256()
        for argv in cmds:
            result = run_cli(argv, capsys)
            assert result[0] == 0, argv
            h.update(repr(result).encode())
        got[group] = h.hexdigest()[:16]
    assert got == STATISTIC_VERB_DIGESTS


def test_statistic_verbs_answer_past_the_extension_cap(capsys, monkeypatch):
    # path sums over J(P) list no word: e(P) = 7646001090 and 1100742656 are
    # far past --cap, and the first two build no ExtensionSpace at all
    monkeypatch.setattr(posets, "_SPACES", {})
    built = []
    build = posets.ExtensionSpace
    monkeypatch.setattr(posets, "ExtensionSpace", lambda *args: built.append(args) or build(*args))
    code, out, _ = run_cli(["stats", "wprime", "--shape", "shape:10,10,10", "--format", "json"], capsys)
    assert code == 0 and sum(json.loads(out)["coeffs"]) == 7646001090
    code, out, _ = run_cli(["stats", "signbalance", "--shape", "shape:10,10,10", "--format", "json"],
                           capsys)
    [row] = json.loads(out)
    assert code == 0 and (row["even"], row["odd"]) == (3822999908, 3823001182)
    assert built == []
    code, out, _ = run_cli(["sieve", "F", "--shape", "shape:6,5,4,3,2,1", "--format", "json"], capsys)
    assert code == 0 and sum(json.loads(out)["coeffs"]) == 1100742656


def _chains_file(path, n, m):
    """n disjoint m-element chains, written as a poset file."""
    covers = [f"{m * c + i}<{m * c + i + 1}" for c in range(n) for i in range(m - 1)]
    path.write_text("\n".join([f"p={n * m}"] + covers) + "\n")
    return str(path)


def test_statistic_walk_exits_3_at_its_caps(tmp_path, capsys, monkeypatch):
    # four 25-element chains: 456976 ideals pass the ideal cap, and W'_P's
    # polynomials pass the bit budget on the 18th of 100 passes, at 23941
    # states; the state cap alone would let them grow to gigabytes first
    f = _chains_file(tmp_path / "c4x25.poset", 4, 25)
    assert run_cli(["stats", "wprime", "--poset", f], capsys) == (
        3, "", "cap exceeded: path sums over J(P) of a 100-element poset "
        "need more than 1048576 states or 2147483648 bits\n")
    monkeypatch.setattr(posets, "DEFAULT_IDEAL_CAP", 2000)  # and 2000 * 2048 bits
    message = ("cap exceeded: path sums over J(P) of a {}-element poset "
               "need more than 2000 states or 4096000 bits\n")
    # antichain(10): 1024 ideals pass the cap, W'_P's 5121 (ideal, last) states
    # do not; the sign census's states are the ideals
    f = tmp_path / "a10.poset"
    f.write_text("p=10\n")
    code, out, _ = run_cli(["count", "--poset", str(f)], capsys)
    assert (code, out) == (0, "e\n3628800\n")
    assert run_cli(["stats", "wprime", "--poset", str(f)], capsys) == (3, "", message.format(10))
    code, out, _ = run_cli(["stats", "signbalance", "--poset", str(f), "--format", "json"], capsys)
    [row] = json.loads(out)
    assert code == 0 and (row["even"], row["odd"]) == (1814400, 1814400)
    # two 20-element chains: 441 ideals and 841 states pass, but W'_P's
    # polynomials take 6389040 bits; the sign census's counts take 2317
    f = _chains_file(tmp_path / "c2x20.poset", 2, 20)
    assert run_cli(["stats", "wprime", "--poset", f], capsys) == (3, "", message.format(40))
    code, out, _ = run_cli(["stats", "signbalance", "--poset", f, "--format", "json"], capsys)
    [row] = json.loads(out)
    assert code == 0 and row["even"] + row["odd"] == 137846528820


# SHA-256 prefix of (exit code, stdout, stderr) of `verify thm3` in tsv and
# in json, run through cli.main: each row's "N antichains" detail included
THM3_DIGEST = "ac8c71e3936da7ff"


def test_verify_thm3_is_pinned_by_digest(capsys):
    h = hashlib.sha256()
    for fmt in ("tsv", "json"):
        h.update(repr(run_cli(["verify", "thm3", "--format", fmt], capsys)).encode())
    assert h.hexdigest()[:16] == THM3_DIGEST
