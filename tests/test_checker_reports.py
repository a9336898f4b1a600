"""Condition-checker reports pinned byte for byte.

In every input at least one item fails at two places, so each pinned detail
is that of the item's first failure.  The hnr chain and the transcript also
put a later coloring query outside the window, so a scan that went on past
its first failure would raise instead of reporting.  The rnh bundles go
through ``idealforge verify --what rnh``, which reads their case from the
bundle.
"""

import json
from pathlib import Path

import pytest

from idealforge import CanonicalCase, NatSet, PairColoring, SearchBudget, SparseBasis, \
    check_hnr_conditions, defeat_r_summable, verify_transcript
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


def rnh_report(tmp_path: Path, bundle: dict) -> str:
    path = tmp_path / "rnh.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code, rep = run(build_parser().parse_args(["verify", "--what", "rnh",
                                               "--bundle", str(path)]))
    assert code == 0, rep["body"]
    return dumps_stable(rep["body"]["report"])


def flat_gamma():
    return [[x, 1, 0] for x in fs(NatSet(TEN))]


def rnh_case1_report(tmp_path: Path) -> str:
    # x_1 = 1 misses FS(D_0) and repeats x_0, both (a); column 1 meets FS(D_0)
    # at 100 and 110 and FS(D_1) at 100, all (f).
    return rnh_report(tmp_path, {
        "case": 1, "X": TEN, "D": TEN, "k": 0, "x": [1, 1], "Dn": [[10, 100], [100]],
        "f": flat_gamma() + [[100, 5, 1], [110, 5, 1]],
    })


def rnh_case2_report(tmp_path: Path) -> str:
    # FS(D_1) = {100000} escapes both FS(D_0) and FS(X), both (b1).
    return rnh_report(tmp_path, {
        "case": 2, "X": TEN, "n": [1, 6], "j": [0, 0], "k": [-1, -1], "F": [[], []],
        "x": [11, 100], "Dn": [[100, 1000], [100000]],
        "f": flat_gamma() + [[11, 5, 1], [111, 6, 1], [1011, 3, 1], [1111, 4, 1],
                             [100, 7, 6], [1100, 8, 6]],
    })


def transcript_report() -> str:
    # The checks record the pairs {2,9}, {3,9}, {5,9} and {9,10}; the fresh
    # coloring breaks the first two and ends before 10.
    t = defeat_r_summable(PairColoring.minimum(16), NatSet(range(16)), CanonicalCase.MIN,
                          SearchBudget(max_steps=4))
    fresh = PairColoring(10, fn=lambda i, j: 0 if (i, j) in ((2, 9), (3, 9)) else i)
    return dumps_stable(verify_transcript(t, fresh))


@pytest.mark.parametrize("name, build", [
    ("hnr", lambda tmp_path: hnr_report()),
    ("rnh_case1", rnh_case1_report),
    ("rnh_case2", rnh_case2_report),
    ("transcript", lambda tmp_path: transcript_report()),
])
def test_checker_report_is_pinned(name, build, tmp_path):
    assert build(tmp_path) == (PINNED / f"{name}.json").read_text(encoding="utf-8")
