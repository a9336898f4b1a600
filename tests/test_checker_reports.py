"""Condition-checker reports and construction transcripts pinned byte for byte.

In every checker input but the closing replay's, at least one item fails at
two places, so each pinned detail is that of the item's first failure.  The
hnr chain and the transcript also put a later coloring query outside the
window, so a scan that went on past its first failure would raise instead
of reporting.  The rnh bundles go through ``idealforge verify --what rnh``,
which reads their case from the bundle, and the closing replay goes through
``idealforge verify --what final``.  Each engine's transcript is pinned
together with its re-verification, as the ``adversary`` report embeds both.
"""

import json
from pathlib import Path

import pytest

from idealforge import BlockBasis, CanonicalCase, NatColoring, NatSet, PairColoring, \
    SearchBudget, SparseBasis, check_hnr_conditions, defeat_h_summable, defeat_r_hindman, \
    defeat_r_summable, defeat_w_summable, verify_transcript
from idealforge.cli import build_parser, run
from idealforge.report import dumps_stable
from idealforge.sparse import fs

PINNED = Path(__file__).parent / "pinned_reports"
TEN = [1, 10, 100, 1000, 10000]


def hnr_report() -> str:
    # (a) fails at b_1 and at b_3 <= b_2, (b) at B_2 and at B_3, and (c) and
    # (d) at several pairs and rows of step 2; B_3 holds 5, outside f's window.
    f = PairColoring.from_table(5, {
        (0, 1): 1, (0, 2): 4, (0, 3): 3, (0, 4): 10, (1, 2): 13, (1, 3): 9,
        (1, 4): 1, (2, 3): 4, (2, 4): 12, (3, 4): 28,
    })
    b = [0, 1, 3, 2]
    B = [NatSet(range(5)), NatSet([0, 2, 3, 4]), NatSet(range(5)), NatSet([2, 5])]
    return dumps_stable(check_hnr_conditions(b, B, f, SparseBasis([1, 3, 9, 27]), fs_size=1))


def verify_report(tmp_path: Path, what: str, bundle: dict) -> str:
    path = tmp_path / f"{what}.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code, rep = run(build_parser().parse_args(["verify", "--what", what,
                                               "--bundle", str(path)]))
    assert code == 0, rep["body"]
    return dumps_stable(rep["body"]["report"])


def gamma_rows(*rows):
    """f rows, one per point: the given rows, and (1, 0) at every other
    point of FS(TEN), in the order of FS(TEN) and then of the rows."""
    table = {x: [x, 1, 0] for x in fs(NatSet(TEN))}
    table.update((row[0], row) for row in rows)
    return list(table.values())


def rnh_case1_report(tmp_path: Path) -> str:
    # x_1 = 1 misses FS(D_0) and repeats x_0, both (a); column 1 meets FS(D_0)
    # at 100 and 110 and FS(D_1) at 100, all (f).
    return verify_report(tmp_path, "rnh", {
        "case": 1, "X": TEN, "D": TEN, "k": 0, "x": [1, 1], "Dn": [[10, 100], [100]],
        "f": gamma_rows([100, 5, 1], [110, 5, 1]),
    })


def rnh_case2_report(tmp_path: Path) -> str:
    # FS(D_1) = {100000} escapes both FS(D_0) and FS(X), both (b1).
    return verify_report(tmp_path, "rnh", {
        "case": 2, "X": TEN, "n": [1, 6], "j": [0, 0], "k": [-1, -1], "F": [[], []],
        "x": [11, 100], "Dn": [[100, 1000], [100000]],
        "f": gamma_rows([11, 5, 1], [111, 6, 1], [1011, 3, 1], [1111, 4, 1],
                        [100, 7, 6], [1100, 8, 6]),
    })


def transcript_report() -> str:
    # The checks record the pairs {2,9}, {3,9}, {5,9} and {9,10}; the fresh
    # coloring breaks the first two and ends before 10.
    t = defeat_r_summable(PairColoring.minimum(16), NatSet(range(16)), CanonicalCase.MIN,
                          SearchBudget(max_steps=4))
    fresh = PairColoring(10, fn=lambda i, j: 0 if (i, j) in ((2, 9), (3, 9)) else i)
    return dumps_stable(verify_transcript(t, fresh))


def final_report(tmp_path: Path) -> str:
    # The pivot pair {0, 1} gives c = 1; the pairs of the upper points 2, 3, 4
    # map to 12, 30 and 4, and 4 - 1 = 3 is a finite sum of C minus c, so
    # z-intersection fails.  The points arrive unsorted.
    return verify_report(tmp_path, "final", {
        "window": 5,
        "f": [[0, 1, 1], [0, 2, 3], [1, 2, 4], [0, 3, 9], [1, 3, 10], [2, 3, 12],
              [0, 4, 27], [1, 4, 28], [2, 4, 30], [3, 4, 4]],
        "D": [1, 3, 9, 27], "b": [4, 0, 1, 2, 3], "C": [1, 3],
    })


def engine_report(t) -> str:
    return dumps_stable({"transcript": t, "reverified": verify_transcript(t)})


def w_summable_report() -> str:
    return engine_report(defeat_w_summable(NatColoring(512, fn=lambda x: x * x),
                                           SearchBudget(max_steps=4)))


def h_summable_report() -> str:
    # INJ records each pick's pool index and its sums with FS of the earlier picks.
    return engine_report(defeat_h_summable(
        NatColoring.identity(1 << 12), BlockBasis(1 << j for j in range(12)),
        CanonicalCase.INJ, SearchBudget(max_steps=4)))


def r_summable_report() -> str:
    return engine_report(defeat_r_summable(
        PairColoring.pairing(40), NatSet(range(40)), CanonicalCase.INJ,
        SearchBudget(max_steps=4)))


def r_hindman_report() -> str:
    table = {(0, 1): 1, (0, 2): 3, (0, 3): 9, (1, 2): 27, (1, 3): 81, (2, 3): 243}
    f = PairColoring(4, fn=lambda i, j: table[(i, j)])
    return engine_report(defeat_r_hindman(
        f, SparseBasis([1, 3, 9, 27, 81, 243]),
        SearchBudget(max_element=4, max_steps=4, candidate_cap=4)))


@pytest.mark.parametrize("name, build", [
    ("hnr", lambda tmp_path: hnr_report()),
    ("rnh_case1", rnh_case1_report),
    ("rnh_case2", rnh_case2_report),
    ("transcript", lambda tmp_path: transcript_report()),
    ("final", final_report),
    ("w_summable", lambda tmp_path: w_summable_report()),
    ("h_summable", lambda tmp_path: h_summable_report()),
    ("r_summable", lambda tmp_path: r_summable_report()),
    ("r_hindman", lambda tmp_path: r_hindman_report()),
])
def test_checker_report_is_pinned(name, build, tmp_path):
    assert build(tmp_path) == (PINNED / f"{name}.json").read_text(encoding="utf-8")
