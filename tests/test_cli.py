import itertools
import json
import subprocess
import sys

import pytest

from fractions import Fraction

from idealforge import NatSet, PairColoring, ScaleParams, SparseBasis, cli
from idealforge.adversary import R_HINDMAN_BUDGET, STRATEGIES, SearchBudget, defeat_r_hindman
from idealforge.cli import build_parser, load_coloring, main, parse_pair_literal, \
    parse_set_literal, run
from idealforge.errors import Incomplete, ParseError, SearchExhausted
from idealforge.report import dumps_stable

from conftest import subprocess_env


# A case-1 rnh bundle over X = {1, 10} that verifies, one f row per point.
RNH_BUNDLE = {"case": 1, "X": [1, 10], "D": [1, 10], "k": 0, "x": [1], "Dn": [[10]],
              "f": [[1, 1, 0], [10, 1, 0], [11, 1, 0]]}
# An hnr chain, a closing replay and a reduction that each verify.
HNR_BUNDLE = {"window": 4, "f": [[0, 1, 1], [0, 2, 4], [0, 3, 3], [1, 2, 13], [1, 3, 9],
                                 [2, 3, 4]],
              "b": [0, 1], "B": [[0, 1, 2, 3], [1, 2, 3]], "D": [1, 3, 9, 27]}
FINAL_BUNDLE = {"window": 4, "f": [[0, 1, 1], [0, 2, 3], [1, 2, 4], [0, 3, 9], [1, 3, 9],
                                   [2, 3, 9]],
                "D": [1, 3, 9], "b": [0, 1, 2, 3], "C": [1, 3]}
REDUCTION_BUNDLE = {"src": {"ideal": "vdw", "ground": "0..4"},
                    "dst": {"ideal": "vdw", "ground": "0..4"},
                    "map": [[x, x] for x in range(5)]}


def invoke(*argv):
    args = build_parser().parse_args(list(argv))
    code, rep = run(args)
    return code, json.loads(dumps_stable(rep))


def test_parse_set_literal():
    assert parse_set_literal("1,3,9") == NatSet([1, 3, 9])
    assert parse_set_literal("0..4") == NatSet([0, 1, 2, 3, 4])
    assert parse_set_literal("pow2(3)") == NatSet([1, 2, 4])
    assert parse_set_literal("1..3, pow2(2) 9") == NatSet([1, 2, 3, 9])
    assert parse_set_literal("") == NatSet()
    assert parse_set_literal("5, 5 5") == NatSet([5])


def test_parse_set_literal_errors():
    with pytest.raises(ParseError) as err:
        parse_set_literal("1, x, 3")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_set_literal("5..2")
    with pytest.raises(ParseError):
        parse_set_literal("pow2(x)")


def test_set_literals_up_to_the_caps_parse():
    assert len(parse_set_literal("0..65535")) == cli.LITERAL_CAP
    assert len(parse_set_literal("0..65534, 0")) == cli.LITERAL_CAP - 1
    assert parse_set_literal("pow2(1024)").max() == 1 << (cli.POW2_CAP - 1)


@pytest.mark.parametrize("text, want", [
    ("5/2", Fraction(5, 2)), ("100", 100), ("1.5", Fraction(3, 2)), (".5", Fraction(1, 2)),
])
def test_tau_forms_that_parse(text, want):
    assert ScaleParams(tau=text).tau == want


def test_parse_pair_literal():
    assert parse_pair_literal("0 0, 0 1; 1 5") == [(0, 0), (0, 1), (1, 5)]
    with pytest.raises(ParseError):
        parse_pair_literal("0 1, nope")
    # A bad chunk is placed where it stands, not where its text first occurs.
    for text, chunk, at in (("1 2, 1", "1", 5), ("3 4,4", "4", 4), ("\t5 6 ;; 7", "7", 8)):
        with pytest.raises(ParseError, match=rf"^bad pair '{chunk}' \(at position {at}\)$") as err:
            parse_pair_literal(text)
        assert err.value.position == at


def test_load_coloring_builtins(tmp_path):
    phi = load_coloring("identity", 10, "nat")
    assert phi(7) == 7
    assert load_coloring("const:7", 5, "pair")((0, 1)) == 7
    assert load_coloring("min-alpha", 16, "nat")(12) == 4
    assert load_coloring("pairing", 5, "pair")((0, 1)) == 2
    with pytest.raises(ParseError):
        load_coloring("no-such-builtin", 5, "nat")


def test_load_coloring_tables(tmp_path):
    nat = tmp_path / "nat.tbl"
    nat.write_text("0 0\n1 1\n2 2\n# comment\n")
    phi = load_coloring(str(nat), 3, "nat")
    assert [phi(x) for x in range(3)] == [0, 1, 2]

    missing = tmp_path / "short.tbl"
    missing.write_text("0 0\n1 1\n")
    with pytest.raises(Incomplete):
        load_coloring(str(missing), 3, "nat")

    pair = tmp_path / "pair.tbl"
    pair.write_text("0 1 5\n0 2 5\n1 2 5\n")
    psi = load_coloring(str(pair), 3, "pair")
    assert psi((2, 1)) == 5

    bad = tmp_path / "bad.tbl"
    bad.write_text("0 zero\n")
    with pytest.raises(ParseError):
        load_coloring(str(bad), 1, "nat")


def test_oracle_subcommand():
    code, rep = invoke("oracle", "--ideal", "vdw", "--ap-len", "3",
                       "--set", "pow2(8)")
    assert code == 0
    assert rep["body"]["positive"] is False

    code, rep = invoke("oracle", "--ideal", "vdw", "--op", "longest-ap",
                       "--set", "0..9")
    assert rep["body"]["longest_ap"] == 10

    code, rep = invoke("oracle", "--ideal", "summable", "--op", "sum",
                       "--set", "0,1,3")
    assert rep["body"]["reciprocal_sum"] == "7/4"

    code, rep = invoke("oracle", "--ideal", "ramsey", "--op", "clique",
                       "--edges", "0 1, 0 2, 1 2", "--k", "3")
    assert rep["body"]["clique"] == [0, 1, 2]

    code, rep = invoke("oracle", "--ideal", "fin2", "--pairs",
                       "0 0, 0 1, 0 2, 1 5", "--fs-size", "2")
    assert rep["body"]["positive"] is True

    code, rep = invoke("oracle", "--ideal", "hindman", "--op", "tall-witness",
                       "--set", "1..20", "--fs-size", "2", "--target", "7")
    assert code == 0 and len(rep["body"]["witness"]) >= 7

    code, rep = invoke("oracle", "--ideal", "vdw", "--op", "find-ap",
                       "--set", "3,5,7", "--k", "3")
    assert rep["body"]["progression"] == {"start": 3, "difference": 2}

    code, rep = invoke("oracle", "--ideal", "fin2", "--op", "heavy-columns",
                       "--pairs", "0 0, 0 1, 1 5", "--k", "2")
    assert rep["body"]["heavy_columns"] == [0]


def test_fs_subcommand():
    code, rep = invoke("fs", "--op", "very-sparse-subset",
                       "--pool", "1..50", "--k", "4")
    assert code == 0 and rep["body"]["basis"] == [1, 3, 9, 27]

    code, rep = invoke("fs", "--op", "fs", "--set", "1,2,4")
    assert rep["body"]["fs"] == [1, 2, 3, 4, 5, 6, 7]

    code, rep = invoke("fs", "--op", "alpha", "--set", "1,3,9", "--x", "13")
    assert rep["body"]["alpha"] == [1, 3, 9]

    code, rep = invoke("fs", "--op", "very-sparse", "--set", "1,2,4")
    assert rep["body"]["verified"] is False
    assert rep["body"]["counterexample"] == [1, 3]

    # a doubling basis is decided at any size, any other only up to the cap
    code, rep = invoke("fs", "--op", "very-sparse", "--set",
                       ",".join(str(3 ** i) for i in range(17)))
    assert code == 0 and rep["body"]["verified"] is True
    assert rep["body"]["counterexample"] is None
    code, rep = invoke("fs", "--op", "very-sparse", "--set", "pow2(25)")
    assert code == 1 and rep["body"]["error"]["code"] == "TooLarge"

    code, rep = invoke("fs", "--op", "conflict", "--set", "1,3,9", "--y", "1")
    assert rep["body"]["conflict_set"] == [1, 4, 10, 13]

    code, rep = invoke("fs", "--op", "shift", "--set", "3,5",
                       "--offset", "4", "--direction", "down")
    assert rep["body"]["shifted"] == [1]


def test_canonize_subcommand(tmp_path):
    code, rep = invoke("canonize", "--kind", "pairs", "--op", "classify",
                       "--phi", "min", "--window", "8", "--ground", "0..7")
    assert rep["body"]["case"] == "min"

    code, rep = invoke("canonize", "--kind", "fs", "--op", "find",
                       "--phi", "min-alpha", "--window", "64",
                       "--ground", "pow2(5)", "--m", "3")
    assert rep["body"]["result"] == {"basis": [1, 2, 4], "case": "min"}


def test_canonize_find_rejects_m_above_the_pool_size():
    code, rep = invoke("canonize", "--kind", "fs", "--op", "find",
                       "--phi", "min-alpha", "--window", "64",
                       "--ground", "1,2,4", "--m", "5")
    assert code == 1
    assert rep["body"]["error"] == {"code": "ValueError",
                                    "message": "m = 5 exceeds the pool size 3"}


def test_canonize_pairs_find_refuses_the_ground_it_does_not_read():
    argv = ("canonize", "--kind", "pairs", "--op", "find", "--phi", "min", "--window", "8")
    code, rep = invoke(*argv)
    assert code == 0 and rep["body"]["result"] is not None
    code, rep = invoke(*argv, "--ground", "0..2")
    assert code == 1
    assert rep["body"]["error"] == {
        "code": "ParseError", "message": "--ground does not apply to --kind pairs --op find"}


def test_adversary_subcommand_and_exit_codes():
    code, rep = invoke("adversary", "--strategy", "w-summable",
                       "--phi", "identity", "--nmax", "3")
    assert code == 0
    steps = rep["body"]["transcript"]["steps"]
    assert steps[2]["chosen"] == [24, 25, 26]
    assert rep["body"]["reverified"]["passed"] is True

    code, rep = invoke("adversary", "--strategy", "w-summable",
                       "--phi", "const:0", "--nmax", "2")
    assert code == 2
    assert rep["body"]["status"] == "exhausted"
    assert rep["body"]["error"]["step"] == 1

    code, rep = invoke("oracle", "--ideal", "vdw", "--set", "oops")
    assert code == 1
    assert rep["body"]["error"]["code"] == "ParseError"


def test_adversary_h_and_r_strategies():
    code, rep = invoke("adversary", "--strategy", "h-summable",
                       "--phi", "min-alpha", "--case", "min",
                       "--basis", "pow2(14)", "--nmax", "6")
    assert code == 0
    assert rep["body"]["transcript"]["certificate"]["sum"]

    code, rep = invoke("adversary", "--strategy", "r-summable",
                       "--phi", "pairing", "--case", "inj",
                       "--ground", "0..80", "--nmax", "6")
    assert code == 0
    assert rep["body"]["reverified"]["passed"] is True


@pytest.mark.parametrize("nmax, code", [(None, 2), (2, 0)])
def test_r_hindman_options_left_unset_take_the_engine_defaults(nmax, code):
    # SearchBudget()'s window of 32,768 would have the engine check f on
    # every one of its 536,854,528 pairs.
    extra = () if nmax is None else ("--nmax", str(nmax))
    got = invoke("adversary", "--strategy", "r-hindman", "--phi", "const:1",
                 "--basis", "1,2,4", *extra)
    budget = () if nmax is None else (
        SearchBudget(**R_HINDMAN_BUDGET.fields() | {"max_steps": nmax}),)
    try:
        t = defeat_r_hindman(PairColoring.constant(32, 1), SparseBasis([1, 2, 4]), *budget)
        want = 0, {"transcript": json.loads(dumps_stable(t))}
    except SearchExhausted as exc:
        want = 2, {"error": {"code": type(exc).__name__, "step": exc.step, "message": str(exc)}}
    assert got[0] == want[0] == code
    assert {key: got[1]["body"][key] for key in want[1]} == want[1]


def test_search_subcommand():
    code, rep = invoke("search", "--src-ideal", "vdw", "--src-ground", "0..4",
                       "--dst-ideal", "vdw", "--dst-ground", "0..4",
                       "--ap-len", "3")
    assert code == 0
    assert rep["body"]["outcome"]["exhausted"] is False

    code, rep = invoke("search", "--src-ideal", "ramsey", "--src-ground", "3",
                       "--dst-ideal", "ramsey", "--dst-ground", "3",
                       "--clique-size", "3")
    assert code == 0
    assert rep["body"]["outcome"]["exhausted"] is False


def test_verify_subcommand_bundles(tmp_path):
    hnr = {
        "window": 4,
        "f": [[0, 1, 1], [0, 2, 3], [0, 3, 9], [1, 2, 27], [1, 3, 81], [2, 3, 243]],
        "b": [0, 1, 2, 3],
        "B": [[0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3], [0, 3]],
        "D": [1, 3, 9, 27, 81, 243],
        "fs_size": 2,
    }
    path = tmp_path / "hnr.json"
    path.write_text(json.dumps(hnr))
    code, rep = invoke("verify", "--what", "hnr", "--bundle", str(path))
    assert code == 0 and rep["body"]["report"]["passed"] is True

    rnh = {
        "case": 1,
        "X": [1, 10, 100, 1000, 10000],
        "D": [1, 10, 100, 1000, 10000],
        "k": 0,
        "x": [1, 10],
        "Dn": [[10, 100], [100]],
        "f": [[v, 1, 0] for v in
              [1, 10, 11, 100, 101, 110, 111, 1000, 1001, 1010, 1011, 1100,
               1101, 1110, 1111, 10000, 10001, 10010, 10011, 10100, 10101,
               10110, 10111, 11000, 11001, 11010, 11011, 11100, 11101, 11110,
               11111]],
    }
    path = tmp_path / "rnh.json"
    path.write_text(json.dumps(rnh))
    code, rep = invoke("verify", "--what", "rnh", "--bundle", str(path))
    assert code == 0 and rep["body"]["report"]["passed"] is True

    path.write_text(json.dumps(dict(rnh, case=3)))
    code, rep = invoke("verify", "--what", "rnh", "--bundle", str(path))
    assert code == 1
    assert rep["body"]["error"] == {"code": "MalformedBundle",
                                    "message": "case must be 1 or 2, got 3"}

    reduction = {
        "src": {"ideal": "vdw", "ground": "0..4"},
        "dst": {"ideal": "vdw", "ground": "0..4"},
        "map": [[x, x] for x in range(5)],
    }
    path = tmp_path / "red.json"
    path.write_text(json.dumps(reduction))
    code, rep = invoke("verify", "--what", "reduction", "--bundle", str(path),
                       "--ap-len", "3")
    assert code == 0 and rep["body"]["report"]["passed"] is True

    final = {
        "window": 4,
        "f": [[0, 1, 1], [0, 2, 3], [1, 2, 4], [0, 3, 9], [1, 3, 9], [2, 3, 9]],
        "D": [1, 3, 9],
        "b": [0, 1, 2, 3],
        "C": [1, 3],
    }
    path = tmp_path / "final.json"
    path.write_text(json.dumps(final))
    code, rep = invoke("verify", "--what", "final", "--bundle", str(path))
    assert code == 0 and rep["body"]["report"]["passed"] is True
    assert rep["body"]["report"]["meta"]["sizes"] == {"X": 1, "Y": 4, "Z": 1}


def test_zero_nmax_is_rejected_not_defaulted(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["adversary", "--strategy", "w-summable", "--phi", "identity",
              "--nmax", "0"])
    assert exit_info.value.code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["header"]["options"]["nmax"] == 0
    assert rep["body"]["status"] == "error"
    assert rep["body"]["error"]["code"] == "ValueError"


def test_zero_ap_len_is_rejected_not_defaulted():
    code, rep = invoke("oracle", "--ideal", "vdw", "--op", "positive",
                       "--set", "0..9", "--ap-len", "0")
    assert code == 1
    assert rep["body"]["error"] == {"code": "ValueError",
                                    "message": "ap_len must be >= 3"}


@pytest.mark.parametrize("argv", [
    ("oracle", "--ideal", "summable", "--op", "positive", "--set", "1,2",
     "--tau", "0"),
    ("oracle", "--ideal", "ramsey", "--op", "positive", "--edges", "0 1",
     "--clique-size", "0"),
    ("oracle", "--ideal", "hindman", "--op", "positive", "--set", "1,2,3",
     "--fs-size", "0"),
    ("adversary", "--strategy", "w-summable", "--phi", "identity",
     "--budget-max-element", "0"),
    ("adversary", "--strategy", "r-hindman", "--basis", "1,3,9", "--phi", "const:1",
     "--candidate-cap", "0"),
    ("adversary", "--strategy", "w-summable", "--phi", "identity",
     "--window", "0"),
    ("adversary", "--strategy", "r-hindman", "--basis", "1,3,9",
     "--phi", "const:1", "--fs-size", "0", "--nmax", "3",
     "--budget-max-element", "4"),
])
def test_other_zero_options_are_rejected(argv):
    code, rep = invoke(*argv)
    assert code == 1
    assert rep["body"]["status"] == "error"


@pytest.mark.parametrize("argv, error", [
    (("oracle", "--ideal", "vdw", "--op", "find-ap", "--set", "1,2,3"),
     ("ParseError", "this operation needs --k")),
    (("oracle", "--ideal", "vdw", "--op", "positive"),
     ("ParseError", "this operation needs --set")),
    (("oracle", "--ideal", "ramsey", "--op", "clique"),
     ("ParseError", "this operation needs --edges")),
    (("fs", "--op", "alpha", "--set", "1,2,4"), ("ParseError", "this operation needs --x")),
    (("fs", "--op", "fs"), ("ParseError", "this operation needs --set")),
    (("fs", "--op", "very-sparse-subset", "--k", "2"),
     ("ParseError", "this operation needs --pool")),
    (("canonize", "--kind", "pairs", "--op", "classify", "--phi", "min", "--window", "5"),
     ("ParseError", "this operation needs --ground")),
    (("adversary", "--strategy", "r-summable", "--phi", "min", "--case", "min"),
     ("ParseError", "this operation needs --ground")),
    (("adversary", "--strategy", "h-summable", "--phi", "identity", "--basis", "1,2,4"),
     ("ParseError", "this operation needs --case")),
    # An empty ground is reported by the engine, with or without --window.
    (("adversary", "--strategy", "r-summable", "--phi", "min", "--case", "min", "--ground", ""),
     ("CaseMismatch", "ground set has fewer than 3 points")),
    (("adversary", "--strategy", "r-summable", "--phi", "min", "--case", "min", "--ground", "",
      "--window", "8"),
     ("CaseMismatch", "ground set has fewer than 3 points")),
    # So is a one-point ground at 0, whose own window would hold no pair.
    (("adversary", "--strategy", "r-summable", "--phi", "min", "--case", "min", "--ground", "0"),
     ("CaseMismatch", "ground set has fewer than 3 points")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "1/0"),
     ("ValueError", "tau '1/0' has a zero denominator")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "abc"),
     ("ValueError", "tau 'abc' is not a rational p/q")),
    # A tau string is ASCII digits: an integer, p/q or a decimal.
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "٣"),
     ("ValueError", "tau '٣' is not a rational p/q")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "1_0"),
     ("ValueError", "tau '1_0' is not a rational p/q")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", " 3"),
     ("ValueError", "tau ' 3' is not a rational p/q")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "3/٢"),
     ("ValueError", "tau '3/٢' is not a rational p/q")),
    (("oracle", "--ideal", "summable", "--set", "1,2", "--tau", "1e3"),
     ("ValueError", "tau '1e3' is not a rational p/q")),
    # A set literal is sized from its tokens before any of them expands.
    (("fs", "--op", "shift", "--set", "0..65536", "--offset", "1"),
     ("TooLarge", "'0..65536' takes the literal past 65536 points")),
    (("fs", "--op", "shift", "--set", "0..40000 0..30000", "--offset", "1"),
     ("TooLarge", "'0..30000' takes the literal past 65536 points")),
    (("fs", "--op", "shift", "--set", "1,pow2(1025)", "--offset", "1"),
     ("TooLarge", "'pow2(1025)' exceeds the pow2 cap 1024")),
    (("oracle", "--ideal", "vdw", "--op", "clique", "--set", "1,2,3"),
     ("CarrierMismatch", "clique search takes an EdgeSet, got NatSet")),
    (("oracle", "--ideal", "ramsey", "--op", "longest-ap", "--edges", "0 1"),
     ("CarrierMismatch", "progression search takes a NatSet, got EdgeSet")),
    (("oracle", "--ideal", "fin2", "--op", "find-ap", "--pairs", "0 1", "--k", "3"),
     ("CarrierMismatch", "progression search takes a NatSet, got frozenset")),
    (("oracle", "--ideal", "ramsey", "--op", "sum", "--edges", "0 1"),
     ("CarrierMismatch", "reciprocal sum takes a NatSet, got EdgeSet")),
    (("oracle", "--ideal", "fin2", "--op", "sum", "--pairs", "0 1"),
     ("CarrierMismatch", "reciprocal sum takes a NatSet, got frozenset")),
    (("oracle", "--ideal", "vdw", "--op", "heavy-columns", "--set", "1,2"),
     ("CarrierMismatch", "heavy columns take (n, k) pairs, got NatSet")),
    (("oracle", "--ideal", "fin2", "--op", "heavy-columns", "--k", "1"),
     ("ParseError", "this operation needs --pairs")),
    (("oracle", "--ideal", "fin2"), ("ParseError", "this operation needs --pairs")),
    (("oracle", "--ideal", "ramsey", "--op", "heavy-columns", "--edges", "0 1, 0 2", "--k", "2"),
     ("CarrierMismatch", "heavy columns take (n, k) pairs, got EdgeSet")),
    (("search", "--src-ideal", "fin2", "--src-ground", "1,2", "--dst-ideal", "vdw",
      "--dst-ground", "0..4", "--ap-len", "3"),
     ("CarrierMismatch", "fin2 truncations have no canonical carrier enumeration; "
                         "check explicit maps with verify_reduction")),
    (("search", "--src-ideal", "vdw", "--src-ground", "0..4", "--dst-ideal", "fin2",
      "--dst-ground", "1,2", "--ap-len", "3"),
     ("CarrierMismatch", "fin2 truncations have no canonical carrier enumeration; "
                         "check explicit maps with verify_reduction")),
    # A dict or a list stands for a verification bundle and a str with a newline
    # for a coloring table file, each written to a file first.
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "fin2", "ground": "1,2"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 1], [1, 1], [2, 2], [3, 1], [4, 2]]}),
     ("MalformedBundle", "map sends 0 to 1, which is not a pair of naturals")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "ramsey", "ground": "4"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 1], [1, 1], [2, 2], [3, 1], [4, 2]]}),
     ("MalformedBundle", "map sends 0 to 1, which is not an element of the src carrier")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "vdw", "ground": "0..2"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 0], [1, 1], [2, 2], [3, 1]]}),
     ("MalformedBundle", "map has no image for dst element 4")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "vdw", "ground": "0..2"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 7], [1, 1], [2, 2], [3, 1], [4, 2]]}),
     ("MalformedBundle", "map sends 0 to 7, which is not an element of the src carrier")),
    # Each point of a bundle's table or a coloring table file is given once.
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "vdw", "ground": "0..2"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 0], [1, 1], [2, 2], [3, 1], [4, 2], [0, 2]]}),
     ("MalformedBundle", "map gives dst element 0 twice")),
    (("verify", "--what", "hnr", "--bundle",
      {"window": 2, "f": [[0, 1, 0], [1, 0, 9]], "b": [0, 1], "B": [[0, 1], [0, 1]],
       "D": [1, 3]}),
     ("MalformedBundle", "f gives pair (0, 1) twice")),
    (("verify", "--what", "final", "--bundle",
      {"window": 4, "f": [[0, 1, 1], [0, 2, 3], [1, 2, 4], [0, 3, 9], [1, 3, 9], [2, 3, 9],
                          [3, 0, 9]],
       "D": [1, 3, 9], "b": [0, 1, 2, 3], "C": [1, 3]}),
     ("MalformedBundle", "f gives pair (0, 3) twice")),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, f=RNH_BUNDLE["f"] + [[10, 2, 1]])),
     ("MalformedBundle", "f gives point 10 twice")),
    (("adversary", "--strategy", "w-summable", "--window", "2", "--nmax", "1",
      "--phi", "0 1\n1 1\n0 2\n"),
     ("ParseError", "line 3: nat table gives 0 twice (at position 3)")),
    (("adversary", "--strategy", "r-summable", "--case", "const", "--ground", "0..3",
      "--window", "4", "--phi", "0 1 5\n0 2 5\n0 3 5\n1 2 5\n1 3 5\n2 3 5\n1 0 5\n"),
     ("ParseError", "line 7: pair table gives (0, 1) twice (at position 7)")),
    # A bundle is a JSON object, each f row is exactly x, z0, z1 (rnh) or
    # i, j, value (hnr, final), and each map row a key and a value.
    (("verify", "--what", "hnr", "--bundle", [1, 2, 3]),
     ("MalformedBundle", "bundle must be a JSON object, got list")),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, f=[[1, 1]] + RNH_BUNDLE["f"][1:])),
     ("MalformedBundle", "f: row 0 must have 3 items, got [1, 1]")),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, f=[[1, 1, 0, 5]] + RNH_BUNDLE["f"][1:])),
     ("MalformedBundle", "f: row 0 must have 3 items, got [1, 1, 0, 5]")),
    (("verify", "--what", "hnr", "--bundle",
      dict(HNR_BUNDLE, f=HNR_BUNDLE["f"][:2] + [[0, 3]] + HNR_BUNDLE["f"][3:])),
     ("MalformedBundle", "f: row 2 must have 3 items, got [0, 3]")),
    (("verify", "--what", "final", "--bundle",
      dict(FINAL_BUNDLE, f=FINAL_BUNDLE["f"] + [[2, 3, 9, 9]])),
     ("MalformedBundle", "f: row 6 must have 3 items, got [2, 3, 9, 9]")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, map=[[0, 0, 1]] + REDUCTION_BUNDLE["map"][1:])),
     ("MalformedBundle", "map: row 0 must have 2 items, got [0, 0, 1]")),
    # Each kind reads its window and tables through one typed field check.
    (("verify", "--what", "hnr", "--bundle",
      {"window": 2, "f": [5], "b": [0, 1], "B": [[0, 1], [0, 1]], "D": [1, 3]}),
     ("MalformedBundle", "f: row 0 must be a list of ints, got 5")),
    (("verify", "--what", "hnr", "--bundle",
      {"window": "2", "f": [[0, 1, 0]], "b": [0, 1], "B": [[0, 1], [0, 1]], "D": [1, 3]}),
     ("MalformedBundle", 'window: must be an int, got "2"')),
    (("verify", "--what", "final", "--bundle",
      {"window": 4, "f": {"0": 1}, "D": [1, 3, 9], "b": [0, 1, 2, 3], "C": [1, 3]}),
     ("MalformedBundle", 'f: must be a list of rows, got {"0": 1}')),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, f=[[1, "1", 0]] + RNH_BUNDLE["f"][1:])),
     ("MalformedBundle", 'f: row 0 must be a list of ints, got [1, "1", 0]')),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "vdw", "ground": "0..2"}, "dst": {"ideal": "vdw", "ground": "0..4"},
       "map": [[0, 0], 5]}),
     ("MalformedBundle", "map: row 1 must be a list, got 5")),
    # Every other field goes through the same check: a wrong container, or a
    # non-int where the checker reads ints, names the field.  Sets go to
    # NatSet, which still reports an element that is not a natural.
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, src=5)),
     ("MalformedBundle", "src: must be an object, got 5")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, dst=[["vdw", "0..4"]])),
     ("MalformedBundle", 'dst: must be an object, got [["vdw", "0..4"]]')),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, dst={"ideal": "vdw", "ground": [0, 1, 2, 3, 4]})),
     ("MalformedBundle", "ground: must be a string, got [0, 1, 2, 3, 4]")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, B=[5, 6])),
     ("MalformedBundle", "B: row 0 must be a flat list, got 5")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, b=5)),
     ("MalformedBundle", "b: must be a list of ints, got 5")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, b=[0, "1"])),
     ("MalformedBundle", 'b: must be a list of ints, got [0, "1"]')),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, D=5)),
     ("MalformedBundle", "D: must be a flat list, got 5")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, D=[[1], 3])),
     ("MalformedBundle", "D: must be a flat list, got [[1], 3]")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, fs_size="2")),
     ("MalformedBundle", 'fs_size: must be an int, got "2"')),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, D=[1, -3])),
     ("ValueError", "natural number expected, got -3")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, B=[[0, 1], ["x"]])),
     ("ValueError", "natural number expected, got 'x'")),
    (("verify", "--what", "final", "--bundle", dict(FINAL_BUNDLE, b="0123")),
     ("MalformedBundle", 'b: must be a flat list, got "0123"')),
    (("verify", "--what", "final", "--bundle", dict(FINAL_BUNDLE, C=3)),
     ("MalformedBundle", "C: must be a flat list, got 3")),
    (("verify", "--what", "final", "--bundle", dict(FINAL_BUNDLE, C=[1, -3])),
     ("ValueError", "natural number expected, got -3")),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, X={"1": 10})),
     ("MalformedBundle", 'X: must be a flat list, got {"1": 10}')),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, D=None)),
     ("MalformedBundle", "D: must be a flat list, got null")),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, Dn=[10])),
     ("MalformedBundle", "Dn: row 0 must be a flat list, got 10")),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, x=1)),
     ("MalformedBundle", "x: must be a list of ints, got 1")),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, k="0")),
     ("MalformedBundle", 'k: must be an int, got "0"')),
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, case="1")),
     ("MalformedBundle", "case must be 1 or 2, got '1'")),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, case=2, n=[1], j=[0], k=-1, F=[[]])),
     ("MalformedBundle", "k: must be a list of ints, got -1")),
    (("verify", "--what", "rnh", "--bundle",
      dict(RNH_BUNDLE, case=2, n=[1], j=[0], k=[-1], F=[["0"]])),
     ("MalformedBundle", 'F: row 0 must be a list of ints, got ["0"]')),
    # A JSON boolean is not an int, though Python's True == 1.
    (("verify", "--what", "rnh", "--bundle", dict(RNH_BUNDLE, case=True)),
     ("MalformedBundle", "case must be 1 or 2, got True")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, b=[0, True])),
     ("MalformedBundle", "b: must be a list of ints, got [0, true]")),
    (("verify", "--what", "hnr", "--bundle", dict(HNR_BUNDLE, window=True)),
     ("MalformedBundle", "window: must be an int, got true")),
    # Nor is it a map key or value, each an int or a pair of ints.
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, map=[[0, 0], [True, 1]] + REDUCTION_BUNDLE["map"][2:])),
     ("MalformedBundle",
      "map: row 1 items must each be an int or a pair of ints, got [true, 1]")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, map=[[0, 0], [1, False]] + REDUCTION_BUNDLE["map"][2:])),
     ("MalformedBundle",
      "map: row 1 items must each be an int or a pair of ints, got [1, false]")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      {"src": {"ideal": "vdw", "ground": "0..4"}, "dst": {"ideal": "ramsey", "ground": "3"},
       "map": [[[0, True], 1], [[0, 2], 1], [[1, 2], 1]]}),
     ("MalformedBundle",
      "map: row 0 items must each be an int or a pair of ints, got [[0, true], 1]")),
    # A missing field names itself, as a wrong-typed one does.
    (("verify", "--what", "hnr", "--bundle",
      {k: v for k, v in HNR_BUNDLE.items() if k != "f"}),
     ("MalformedBundle", "f: missing")),
    (("verify", "--what", "rnh", "--bundle",
      {k: v for k, v in RNH_BUNDLE.items() if k != "case"}),
     ("MalformedBundle", "case: missing")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, src={"ground": "0..4"})),
     ("MalformedBundle", "ideal: missing")),
    # A Ramsey vertex count is a natural, on either side of a search or map.
    (("search", "--src-ideal", "vdw", "--src-ground", "0..3", "--dst-ideal", "ramsey",
      "--dst-ground", "-1"),
     ("ValueError", "vertex count must be >= 0")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, dst={"ideal": "ramsey", "ground": "-1"}, map=[])),
     ("ValueError", "vertex count must be >= 0")),
    # Literals, tables and constants take the digits 0-9 only: str.isdigit and
    # \d also pass '²', which int refuses, and '٣', which int reads as 3.
    (("fs", "--op", "fs", "--set", "1,²"), ("ParseError", "bad token '²' (at position 2)")),
    (("fs", "--op", "fs", "--set", "1,٣"), ("ParseError", "bad token '٣' (at position 2)")),
    (("fs", "--op", "fs", "--set", "1..٣"),
     ("ParseError", "bad token '1..٣' (at position 0)")),
    (("fs", "--op", "fs", "--set", "pow2(٣)"),
     ("ParseError", "bad token 'pow2(٣)' (at position 0)")),
    (("oracle", "--ideal", "ramsey", "--edges", "0 ²", "--k", "2"),
     ("ParseError", "bad pair '0 ²' (at position 0)")),
    (("adversary", "--strategy", "w-summable", "--window", "1", "--nmax", "1",
      "--phi", "0 ²\n"),
     ("ParseError", "line 1: bad entry '0 ²' (at position 1)")),
    (("adversary", "--strategy", "w-summable", "--window", "1", "--nmax", "1",
      "--phi", "const:²"),
     ("ParseError", "bad constant 'const:²'")),
    (("adversary", "--strategy", "w-summable", "--window", "1", "--nmax", "1",
      "--phi", "const:٣"),
     ("ParseError", "bad constant 'const:٣'")),
    # So does a Ramsey vertex count: int() alone also reads '1_0' as 10 and ' 3' as 3.
    (("search", "--src-ideal", "vdw", "--src-ground", "0..3", "--dst-ideal", "ramsey",
      "--dst-ground", "٣"),
     ("ParseError", "bad vertex count '٣'")),
    (("search", "--src-ideal", "ramsey", "--src-ground", "1_0", "--dst-ideal", "ramsey",
      "--dst-ground", "3"),
     ("ParseError", "bad vertex count '1_0'")),
    (("search", "--src-ideal", "vdw", "--src-ground", "0..3", "--dst-ideal", "ramsey",
      "--dst-ground", " 3"),
     ("ParseError", "bad vertex count ' 3'")),
    (("verify", "--what", "reduction", "--ap-len", "3", "--bundle",
      dict(REDUCTION_BUNDLE, dst={"ideal": "ramsey", "ground": "٣"}, map=[])),
     ("ParseError", "bad vertex count '٣'")),
    # A needed option left out is reported before an option the mode does not read.
    (("adversary", "--strategy", "h-summable", "--phi", "identity", "--basis", "1,2,4",
      "--ground", "0..3"),
     ("ParseError", "this operation needs --case")),
    (("fs", "--op", "alpha", "--set", "1,2,4", "--k", "2"),
     ("ParseError", "this operation needs --x")),
])
def test_missing_or_mismatched_option_exits_1(argv, error, tmp_path):
    path = tmp_path / "input"

    def written(arg):
        if isinstance(arg, (dict, list)):
            path.write_text(json.dumps(arg), encoding="utf-8")
        elif "\n" in arg:
            path.write_text(arg, encoding="utf-8")
        else:
            return arg
        return str(path)

    code, rep = invoke(*map(written, argv))
    assert code == 1
    assert rep["body"]["error"] == {"code": error[0], "message": error[1]}


@pytest.mark.parametrize("argv", [
    ("adversary", "--strategy", "w-summable", "--phi", "identity", "--nmax", "٣"),
    ("adversary", "--strategy", "w-summable", "--phi", "identity", "--window", "1_00"),
    ("oracle", "--ideal", "vdw", "--op", "find-ap", "--set", "1,2,3", "--k", " 3"),
    ("fs", "--op", "alpha", "--set", "1,3,9", "--x", "+4"),
    ("canonize", "--kind", "fs", "--phi", "identity", "--ground", "1,2,4", "--window", "²"),
    ("search", "--src-ideal", "vdw", "--src-ground", "0..3", "--dst-ideal", "vdw",
     "--dst-ground", "0..3", "--ap-len", "3\n"),
])
def test_int_options_take_ascii_digits_only(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(list(argv))
    assert exit_info.value.code == 2
    assert f"invalid int value: {argv[-1]!r}" in capsys.readouterr().err


def test_negative_int_options_still_parse():
    args = build_parser().parse_args(["fs", "--op", "shift", "--set", "3,5", "--offset", "-2"])
    assert args.offset == -2


# A call per strategy, as option -> value, and for each option the strategy
# reads beyond --phi, --window and --nmax, a value that changes the call's body.
STRATEGY_CALLS = {
    "w-summable": ({"--phi": "identity", "--nmax": "3"}, {"--budget-max-element": "20"}),
    "h-summable": ({"--phi": "identity", "--case": "inj", "--basis": "pow2(12)", "--nmax": "3"},
                   {"--basis": "pow2(11)", "--case": "min"}),
    "r-summable": ({"--phi": "pairing", "--case": "inj", "--ground": "0..30", "--nmax": "3"},
                   {"--ground": "0..40", "--case": "min"}),
    "r-hindman": ({"--phi": "const:1", "--basis": "1,2,4", "--nmax": "3"},
                  {"--basis": "2,4", "--budget-max-element": "16", "--candidate-cap": "2",
                   "--fs-size": "1"}),
}


def strategy_argv(strategy, options):
    return ["adversary", "--strategy", strategy, *itertools.chain(*options.items())]


@pytest.mark.parametrize("strategy", sorted(STRATEGY_CALLS))
def test_every_option_a_strategy_reads_changes_its_body(strategy):
    base, changed = STRATEGY_CALLS[strategy]
    budget = [option for option, field in cli._BUDGET_OPTIONS.items()
              if field in STRATEGIES[strategy].budget and option != "nmax"]
    reads = cli._STRATEGY_INPUTS[strategy][1] + tuple(budget)
    assert sorted(changed) == sorted(f"--{option.replace('_', '-')}" for option in reads)
    code, before = invoke(*strategy_argv(strategy, base))
    assert code == 0
    for option, value in changed.items():
        assert invoke(*strategy_argv(strategy, base | {option: value}))[1]["body"] \
            != before["body"], option


# Per subcommand: the option naming its mode, the options its modes may read
# (each with a value), and per mode a call that runs and the options it reads.
MODE_GROUPS = {
    "adversary": ("--strategy", {
        "--case": "min", "--basis": "1,2,4", "--ground": "0..3", "--budget-max-element": "64",
        "--candidate-cap": "4", "--fs-size": "2",
    }, {
        strategy: (strategy_argv(strategy, base)[3:], set(changed))
        for strategy, (base, changed) in STRATEGY_CALLS.items()
    }),
    "verify": ("--what", {
        "--window": "8", "--ap-len": "3", "--clique-size": "3", "--fs-size": "2", "--tau": "1",
    }, {
        "hnr": (["--bundle", HNR_BUNDLE], set()),
        "rnh": (["--bundle", RNH_BUNDLE], set()),
        "final": (["--bundle", FINAL_BUNDLE], set()),
        "reduction": (["--bundle", REDUCTION_BUNDLE, "--ap-len", "3"],
                      {"--window", "--ap-len", "--clique-size", "--fs-size", "--tau"}),
    }),
    "fs": ("--op", {"--set": "1,2,3", "--pool": "1..50", "--k": "2", "--x": "3", "--y": "1",
                    "--offset": "5", "--direction": "down"}, {
        "fs": (["--set", "1,2,3"], {"--set"}),
        "sparse": (["--set", "1,2,3"], {"--set"}),
        "alpha": (["--set", "1,2", "--x", "3"], {"--set", "--x"}),
        "very-sparse": (["--set", "1,3,9"], {"--set"}),
        "very-sparse-subset": (["--pool", "1..50", "--k", "2"], {"--pool", "--k"}),
        "fs-subset": (["--set", "1,2,3", "--k", "2"], {"--set", "--k"}),
        "conflict": (["--set", "1,2", "--y", "1"], {"--set", "--y"}),
        "shift": (["--set", "1,2,3", "--offset", "1"], {"--set", "--offset", "--direction"}),
    }),
    "oracle": ("--ideal", {"--set": "1,2,3", "--edges": "0 1", "--n": "5", "--pairs": "0 1"}, {
        **{ideal: (["--set", "1,2,3"], {"--set"})
           for ideal in ("vdw", "hindman", "summable", "fin")},
        "ramsey": (["--edges", "0 1"], {"--edges", "--n"}),
        "fin2": (["--pairs", "0 1"], {"--pairs"}),
    }),
    "canonize": ("--op", {"--m": "4"}, {
        op: (["--kind", "fs", "--phi", "identity", "--window", "64", "--ground", "pow2(5)"],
             {"--m"} if op == "find" else set())
        for op in ("classify", "find")
    }),
}
MODE_OPTIONS = [
    (subcommand, mode, option, option in reads)
    for subcommand, (flag, values, modes) in MODE_GROUPS.items()
    for mode, (_, reads) in modes.items() for option in values
]


@pytest.mark.parametrize("subcommand", sorted(MODE_GROUPS))
def test_the_mode_table_covers_every_mode(subcommand):
    flag, _, modes = MODE_GROUPS[subcommand]
    assert sorted(modes) == sorted(cli._COMMANDS[subcommand].options[flag].choices)


@pytest.mark.parametrize("subcommand, mode, option, reads", MODE_OPTIONS,
                         ids=[f"{s}-{m}{o}" for s, m, o, _ in MODE_OPTIONS])
def test_each_mode_accepts_only_the_options_it_reads(subcommand, mode, option, reads, tmp_path):
    flag, values, modes = MODE_GROUPS[subcommand]
    argv = [subcommand, flag, mode]
    for arg in modes[mode][0]:
        if isinstance(arg, dict):
            path = tmp_path / "bundle.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    if option not in argv:
        argv += [option, values[option]]
    code, rep = invoke(*argv)
    if reads:
        assert code == 0, rep["body"]
    else:
        assert code == 1
        assert rep["body"]["error"] == {
            "code": "ParseError", "message": f"{option} does not apply to {flag} {mode}"}


@pytest.mark.parametrize("argv, defaults", [
    (["fs", "--op", "fs", "--set", "1,2"], ["--offset", "0", "--direction", "up"]),
    (["canonize", "--kind", "pairs", "--op", "classify", "--phi", "min", "--window", "8",
      "--ground", "0..5"], ["--m", "3"]),
])
def test_an_unread_option_given_its_default_changes_nothing(argv, defaults):
    code, rep = invoke(*argv, *defaults)
    assert code == 0, rep["body"]
    assert (code, rep) == invoke(*argv)


def test_report_determinism_in_process():
    first = dumps_stable(invoke("adversary", "--strategy", "w-summable",
                                "--phi", "identity", "--nmax", "4")[1])
    second = dumps_stable(invoke("adversary", "--strategy", "w-summable",
                                 "--phi", "identity", "--nmax", "4")[1])
    assert first == second


def test_report_determinism_across_thread_settings(tmp_path):
    cmd = [sys.executable, "-m", "idealforge.cli", "adversary",
           "--strategy", "w-summable", "--phi", "identity", "--nmax", "3"]
    outputs = []
    for _ in range(2):
        res = subprocess.run(cmd, capture_output=True, env=subprocess_env(),
                             cwd=str(tmp_path))
        assert res.returncode == 0
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


def test_certificate_recomputes_from_report():
    from fractions import Fraction

    from idealforge import NatColoring, reciprocal_sum

    code, rep = invoke("adversary", "--strategy", "w-summable",
                       "--phi", "identity", "--nmax", "5")
    t = rep["body"]["transcript"]
    witness = NatSet(t["witness"]["set"])
    phi = NatColoring.identity(40000)
    recomputed = reciprocal_sum(NatSet(phi(x) for x in witness))
    assert Fraction(t["certificate"]["sum"]) == recomputed
