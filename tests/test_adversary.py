import json
import pickle
from fractions import Fraction

import pytest

from idealforge import (
    BlockBasis,
    CanonicalCase,
    GammaMap,
    NatColoring,
    NatSet,
    PairColoring,
    RnhCase1Bundle,
    RnhCase2Bundle,
    SearchBudget,
    SparseBasis,
    check_hnr_conditions,
    check_rnh_conditions,
    defeat_h_summable,
    defeat_r_hindman,
    defeat_r_summable,
    defeat_w_summable,
    fin2_to_h_map,
    fin2_to_r_map,
    replay_final_contradiction,
    reciprocal_sum,
    verify_transcript,
)
from idealforge import adversary
from idealforge.adversary import STRATEGIES, Transcript, TranscriptStep
from idealforge.cli import build_parser, run
from idealforge.errors import CaseMismatch, DegeneratePair, MalformedBundle, \
    NoSuchC, SearchExhausted, ZeroInput
from idealforge.ideals import _refilled
from idealforge.report import RELATIONS, CheckItem, StepChecks, dumps_stable, rational_str

from conftest import RULE_ORACLES


def test_fin2_to_h_map():
    assert fin2_to_h_map(12) == (2, 1)
    assert fin2_to_h_map(7) == (0, 3)
    assert fin2_to_h_map(16) == (4, 0)
    with pytest.raises(ZeroInput):
        fin2_to_h_map(0)
    # round trip and injectivity on a window
    seen = set()
    for x in range(1, 2000):
        k, n = fin2_to_h_map(x)
        assert (1 << k) * (2 * n + 1) == x
        assert (k, n) not in seen
        seen.add((k, n))


def test_fin2_to_r_map():
    assert fin2_to_r_map((0, 1)) == (0, 0)
    assert fin2_to_r_map((3, 10)) == (3, 6)
    assert fin2_to_r_map((5, 6)) == (5, 0)
    assert fin2_to_r_map((10, 3)) == (3, 6)  # order-insensitive
    with pytest.raises(DegeneratePair):
        fin2_to_r_map((4, 4))
    # injective per row
    for k in range(5):
        images = [fin2_to_r_map((k, i)) for i in range(k + 1, 30)]
        assert all(row == k for row, _ in images)
        assert len({idx for _, idx in images}) == len(images)


def test_defeat_w_identity_example():
    phi = NatColoring.identity(40000)
    t = defeat_w_summable(phi, SearchBudget(max_element=40000, max_steps=3))
    assert [s.chosen for s in t.steps] == [(2,), (8, 9), (24, 25, 26)]
    assert t.certified_sum == reciprocal_sum(t.image)
    assert t.certified_sum <= t.majorant
    assert verify_transcript(t).passed


def test_defeat_w_constant_exhausts():
    with pytest.raises(SearchExhausted) as err:
        defeat_w_summable(NatColoring.constant(100, 0),
                          SearchBudget(max_element=100, max_steps=2))
    assert err.value.step == 1


def test_defeat_w_square_coloring():
    phi = NatColoring(20000, fn=lambda x: x * x)
    t = defeat_w_summable(phi, SearchBudget(max_element=20000, max_steps=4))
    for step in t.steps:
        xs = step.chosen
        assert len(xs) == step.index
        diffs = {b - a for a, b in zip(xs, xs[1:])}
        assert len(diffs) <= 1
        assert all(phi(x) >= step.index * (1 << step.index) for x in xs)
    assert t.certified_sum <= t.majorant


H_CASES = [
    ("const", lambda w: NatColoring.constant(w, 7), CanonicalCase.CONST),
    ("min", NatColoring.min_alpha, CanonicalCase.MIN),
    ("max", NatColoring.max_alpha, CanonicalCase.MAX),
    ("minmax", NatColoring.minmax_alpha, CanonicalCase.MINMAX),
    ("inj", NatColoring.identity, CanonicalCase.INJ),
]


@pytest.mark.parametrize("name,maker,case", H_CASES)
def test_defeat_h_all_cases(name, maker, case):
    pool = BlockBasis([1 << j for j in range(24)])
    phi = maker(1 << 25)
    t = defeat_h_summable(phi, pool, case,
                          SearchBudget(max_element=32768, max_steps=10))
    assert t.certified_sum <= t.majorant
    check = verify_transcript(t)
    assert check.passed, check.failed_names()
    for step in t.steps:
        holds = RELATIONS[step.checks.relation]
        assert all(holds(v, step.checks.bound) for v in step.checks.values)


def test_defeat_h_case_mismatch():
    pool = BlockBasis([1 << j for j in range(8)])
    with pytest.raises(CaseMismatch):
        defeat_h_summable(NatColoring.identity(1 << 9), pool, CanonicalCase.CONST,
                          SearchBudget(max_steps=3))


def test_defeat_h_exhaustion_on_small_pool():
    pool = BlockBasis([1, 2, 4])
    with pytest.raises(SearchExhausted):
        defeat_h_summable(NatColoring.identity(64), pool, CanonicalCase.INJ,
                          SearchBudget(max_steps=6))


def test_defeat_h_inj_replays_past_a_low_value_at_the_top_of_the_window():
    """A step judges only its own block's points, so a low value at the
    window's last point, outside every sum the run queries, stops nothing."""
    window = 1 << 13
    phi = NatColoring(window, fn=lambda x: 0 if x == window - 1 else x)
    t = defeat_h_summable(phi, BlockBasis([1 << j for j in range(12)]), CanonicalCase.INJ,
                          SearchBudget(max_steps=6))
    assert t.witness["basis"].elements == (2, 8, 32, 128, 512, 2048)
    assert [step.note for step in t.steps] == [f"pool index {i}" for i in (1, 3, 5, 7, 9, 11)]
    assert verify_transcript(t).passed


def test_defeat_h_inj_closing_classification_guards_injectivity_across_steps():
    """Each step's sums exceed its own threshold, but phi(40), a sum of the
    sixth pick, repeats phi(3), a sum of the first two: injective on the
    prefix, not on the selected FS(D)."""
    phi = NatColoring(1 << 7, fn=lambda x: 3 << 10 if x == 40 else x << 10)
    with pytest.raises(CaseMismatch) as info:
        defeat_h_summable(phi, BlockBasis([1 << j for j in range(7)]), CanonicalCase.INJ,
                          SearchBudget(max_steps=6))
    assert str(info.value) == "selected basis classifies as none, not inj"


R_CASES = [
    ("const", lambda n: PairColoring.constant(n, 3), CanonicalCase.CONST),
    ("min", PairColoring.minimum, CanonicalCase.MIN),
    ("max", PairColoring.maximum, CanonicalCase.MAX),
    ("inj", PairColoring.pairing, CanonicalCase.INJ),
]


@pytest.mark.parametrize("name,maker,case", R_CASES)
def test_defeat_r_all_cases(name, maker, case):
    T = NatSet(range(600))
    phi = maker(600)
    t = defeat_r_summable(phi, T, case, SearchBudget(max_steps=10))
    assert t.certified_sum <= t.majorant
    assert verify_transcript(t).passed
    assert len(t.witness["h"]) == 10


def test_defeat_r_min_refuses_a_row_value_that_differs_between_partners():
    # The search picks 2, 3, 5, 9 and 17 by their row values at their
    # successors; row 2 reads 0 at its re-recorded partner, the last pick 17.
    phi = PairColoring(40, fn=lambda i, j: i if j < 12 or j - i < 3 else 0)
    with pytest.raises(CaseMismatch,
                       match=r"^row value of 2 differs between partners; case unstable$"):
        defeat_r_summable(phi, NatSet(range(40)), CanonicalCase.MIN, SearchBudget(max_steps=5))


def test_defeat_r_minmax_rejected():
    with pytest.raises(CaseMismatch):
        defeat_r_summable(PairColoring.minimum(10), NatSet(range(10)),
                          CanonicalCase.MINMAX, SearchBudget(max_steps=3))


def test_defeat_r_exhaustion():
    # row values are bounded by the ground size, so thresholds soon win
    with pytest.raises(SearchExhausted):
        defeat_r_summable(PairColoring.minimum(12), NatSet(range(12)),
                          CanonicalCase.MIN, SearchBudget(max_steps=10))


def bucket_map():
    table = {(0, 1): 1, (0, 2): 3, (0, 3): 9, (1, 2): 27, (1, 3): 81, (2, 3): 243}
    return PairColoring(4, fn=lambda i, j: table[(i, j)])


def test_defeat_r_hindman_success_and_checker_agreement():
    D = SparseBasis([1, 3, 9, 27, 81, 243])
    f = bucket_map()
    t = defeat_r_hindman(f, D, SearchBudget(max_element=4, max_steps=4,
                                            candidate_cap=4))
    assert t.witness["b"].elements == (0, 1, 2, 3)
    reservoirs = t.witness["reservoirs"]
    assert [r.elements for r in reservoirs] == \
        [(0, 1, 2, 3), (0, 1, 2, 3), (0, 2, 3), (0, 3)]
    rep = check_hnr_conditions(list(t.witness["b"]), reservoirs, f, D)
    assert rep.passed, rep.failed_names()
    assert verify_transcript(t).passed


def test_defeat_r_hindman_depth_one_trivial():
    f = PairColoring(8, fn=lambda i, j: 4)
    D = SparseBasis([1, 3, 9])
    t = defeat_r_hindman(f, D, SearchBudget(max_element=8, max_steps=1,
                                            candidate_cap=4))
    assert t.witness["b"].elements == (0,)
    assert t.witness["reservoirs"][0] == NatSet(range(8))


def test_defeat_r_hindman_constant_exhausts():
    # a constant value conflicts with itself, so reservoirs shrink to nothing
    f = PairColoring(8, fn=lambda i, j: 4)
    D = SparseBasis([1, 3, 9])
    with pytest.raises(SearchExhausted):
        defeat_r_hindman(f, D, SearchBudget(max_element=8, max_steps=4,
                                            candidate_cap=4))


def test_defeat_r_hindman_rejects_values_outside_sums():
    D = SparseBasis([1, 3, 9])
    f = PairColoring(6, fn=lambda i, j: 5)  # 5 is not a subset sum
    with pytest.raises(ValueError):
        defeat_r_hindman(f, D, SearchBudget(max_element=6, max_steps=2,
                                            candidate_cap=3))


def test_zero_is_no_finite_sum_for_r_hindman_even_over_the_basis_zero():
    # SparseBasis([0]) decomposes 0, yet its FS(D) is empty, as fs() says
    D = SparseBasis([0])
    f = PairColoring(4, fn=lambda i, j: 0)
    with pytest.raises(ValueError, match=r"^f\(\{0, 1\}\) = 0 lies outside the finite sums"):
        defeat_r_hindman(f, D, SearchBudget(max_element=4, max_steps=3, candidate_cap=4))
    report = check_hnr_conditions([0, 1, 2], [NatSet(range(4))] * 3, f, D)
    assert report.passed


def test_check_hnr_manual_breaks():
    D = SparseBasis([1, 3, 9, 27, 81, 243])
    f = bucket_map()
    good_b = [0, 1, 2, 3]
    good_B = [NatSet([0, 1, 2, 3]), NatSet([0, 1, 2, 3]),
              NatSet([0, 2, 3]), NatSet([0, 3])]
    assert check_hnr_conditions(good_b, good_B, f, D).passed
    out_of_order = check_hnr_conditions([0, 2, 1, 3], good_B, f, D)
    assert "(a)" in out_of_order.failed_names()
    not_nested = check_hnr_conditions(
        good_b, [NatSet([0, 1, 2, 3]), NatSet([0, 1, 2, 3]),
                 NatSet([1, 2, 3]), NatSet([0, 3])], f, D)
    assert "(b)" in not_nested.failed_names()
    with pytest.raises(MalformedBundle):
        check_hnr_conditions([0, 1], good_B, f, D)


def test_check_hnr_reports_a_repeated_pick(tmp_path):
    # b_1 repeats b_0, so step 2 has no pair image; (a) reports it
    bundle = {"window": 2, "f": [[0, 1, 1]], "b": [0, 0, 1],
              "B": [[0, 1], [0, 1], [0, 1]], "D": [1, 3]}
    path = tmp_path / "hnr.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code, rep = run(build_parser().parse_args(["verify", "--what", "hnr",
                                               "--bundle", str(path)]))
    rep = json.loads(dumps_stable(rep))
    assert code == 0, rep["body"]
    items = {item["name"]: item for item in rep["body"]["report"]["items"]}
    assert items["(a)"] == {"name": "(a)", "passed": False,
                            "detail": "b_1 = 0 <= b_0 = 0"}
    assert [name for name, item in items.items() if not item["passed"]] == ["(a)"]


def test_replay_final_contradiction():
    D = SparseBasis([1, 3, 9])
    table = {(0, 1): 1, (0, 2): 3, (1, 2): 4, (0, 3): 9, (1, 3): 9, (2, 3): 9}
    f = PairColoring(4, fn=lambda i, j: table[(i, j)])
    b = NatSet([0, 1, 2, 3])
    rep = replay_final_contradiction(f, D, b, NatSet([1, 3]))
    assert rep.passed
    sizes = rep.meta["sizes"]
    assert sizes["X"] + sizes["Y"] + sizes["Z"] == 6
    with pytest.raises(NoSuchC):
        replay_final_contradiction(f, D, b, NatSet([1]))
    with pytest.raises(NoSuchC):
        replay_final_contradiction(f, D, b, NatSet([1, 9]))


class _TamperedBasis(SparseBasis):
    """A basis whose decomposition of 4 was changed to {9} after validation."""

    __slots__ = ()

    def mask(self, x):
        return 0b100 if x == 4 else super().mask(x)


def test_replay_final_contradiction_checks_alpha_additivity_on_disjoint_masks():
    table = {(0, 1): 1, (0, 2): 3, (1, 2): 4, (0, 3): 9, (1, 3): 9, (2, 3): 9}
    f = PairColoring(4, fn=lambda i, j: table[(i, j)])
    b, C = NatSet([0, 1, 2, 3]), NatSet([1, 3])
    # Over {1, 2, 4, 8}, alpha(3) = {1, 2} meets alpha(1): additivity does not apply.
    rep = replay_final_contradiction(f, SparseBasis([1, 2, 4, 8]), b, C)
    assert rep.items[-1] == CheckItem("alpha-additivity", True, "no in-basis sums to inspect")
    rep = replay_final_contradiction(f, _TamperedBasis([1, 3, 9]), b, C)
    assert rep.failed_names() == ["alpha-additivity"]
    assert rep.items[-1].detail == "alpha(3+1) != alpha(3) | alpha(1)"


def test_replay_final_contradiction_needs_a_pivot_pair():
    # fs({0, 1}) = {1} sits in the image, but no pair maps to c = 0
    D = SparseBasis([1, 3, 9])
    table = {(0, 1): 1, (0, 2): 3, (1, 2): 4}
    f = PairColoring(3, fn=lambda i, j: table[(i, j)])
    with pytest.raises(NoSuchC) as err:
        replay_final_contradiction(f, D, NatSet([0, 1, 2]), NatSet([0, 1]))
    assert str(err.value) == "no pair of the grown points maps to c = 0"


def test_gamma_map_validation():
    with pytest.raises(ValueError):
        GammaMap({3: (1, 1)})
    g = GammaMap({3: (2, 1), 7: (9, 1), 8: (5, 2)})
    assert g.inv_second(1) == NatSet([3, 7])
    assert g.table.get(4) is None


def powers_of_ten():
    return SparseBasis([1, 10, 100, 1000, 10000])


def case2_valid_fixture():
    Xb = powers_of_ten()
    table = {x: (1, 0) for x in Xb.fs_set()}
    table.update({11: (5, 1), 111: (2, 1), 1011: (3, 1), 1111: (4, 1),
                  100: (7, 6), 1100: (8, 6)})
    bundle = RnhCase2Bundle(
        ns=[1, 6], js=[0, 0], ks=[-1, -1], Fs=[frozenset(), frozenset()],
        xs=[11, 100],
        Ds=[SparseBasis([100, 1000]), SparseBasis([1000])],
    )
    return Xb, GammaMap(table), bundle


def test_rnh_case1_valid_and_breaks():
    Xb = powers_of_ten()
    base = {x: (1, 0) for x in Xb.fs_set()}
    bundle = RnhCase1Bundle(k=0, D=Xb, xs=[1, 10],
                            Ds=[SparseBasis([10, 100]), SparseBasis([100])])
    assert check_rnh_conditions(bundle, GammaMap(base), Xb).passed

    hits_f = dict(base)
    hits_f[100] = (5, 1)  # 100 sits in FS(D_0) and FS(D_1)
    rep = check_rnh_conditions(bundle, GammaMap(hits_f), Xb)
    assert rep.failed_names() == ["(f)"]

    hits_e = dict(base)
    hits_e[111] = (5, 1)  # 111 only reaches the bases after a shift
    rep = check_rnh_conditions(bundle, GammaMap(hits_e), Xb)
    assert rep.failed_names() == ["(e)"]

    # (a): x_0 = 10 and x_1 = 110 share the summand 10 of D_0, and 120 leaves FS(D)
    rep = check_rnh_conditions(RnhCase1Bundle(0, Xb, [10, 110], bundle.Ds), GammaMap(base), Xb)
    assert rep.failed_names() == ["(a)", "(c)"]
    assert rep.items[1].detail == "x_1 meets the conflict set of x_0 over D_0"

    # (b): D_1 = {100, 200, 400} is sparse, not very sparse, and leaves FS(D_0)
    broken = RnhCase1Bundle(0, Xb, [1, 10], [bundle.Ds[0], SparseBasis([100, 200, 400])])
    rep = check_rnh_conditions(broken, GammaMap(base), Xb)
    assert rep.failed_names() == ["(b)", "(d)"]
    assert rep.items[2].detail == "D_1 not very sparse: (100, 300)"


def test_rnh_case1_builds_the_finite_sums_of_each_step_once(monkeypatch):
    Xb = powers_of_ten()
    bundle = RnhCase1Bundle(k=0, D=Xb, xs=[1, 10],
                            Ds=[SparseBasis([10, 100]), SparseBasis([100])])
    f = GammaMap({x: (1, 0) for x in Xb.fs_set()})
    built, fs = [], adversary.fs
    monkeypatch.setattr(adversary, "fs", lambda A: built.append(A.elements) or fs(A))
    assert check_rnh_conditions(bundle, f, Xb).passed
    # FS(x_0..x_n) serves item (c) and every column of item (e) at step n.
    assert built == [(1,), (1, 10)]


def test_rnh_case2_valid():
    Xb, f, bundle = case2_valid_fixture()
    rep = check_rnh_conditions(bundle, f, Xb)
    assert rep.passed, rep.failed_names()


def case2_branch1_failures(table, **fields):
    """The failed items of the valid two-step bundle whose step 1 takes branch
    1 with k_1 = 0, once ``fields`` replace its lists and ``table`` adds or
    changes entries of its map."""
    Xb = powers_of_ten()
    f = {x: (1, 0) for x in Xb.fs_set()}
    f.update({11: (5, 1), 111: (6, 1), 1011: (3, 1), 1111: (6, 1)})
    f.update(table)
    bundle = dict(ns=[1, 6], js=[0, 1], ks=[-1, 0], Fs=[frozenset(), frozenset([0])],
                  xs=[11, 111], Ds=[SparseBasis([100, 1000]), SparseBasis([1000])])
    bundle.update(fields)
    return check_rnh_conditions(RnhCase2Bundle(**bundle), GammaMap(f), Xb).failed_names()


def test_rnh_case2_branch1_valid():
    assert case2_branch1_failures({}) == []


def test_rnh_case2_depth_three_with_branch_middle():
    # exercises the branch-1 middle step machinery: reachable-point sums,
    # exclusion windows, multi-index tail sums, and the partial-map image
    # convention (sums of banned points may leave the ground sums entirely)
    Xb = SparseBasis([1, 10, 100, 1000, 10000, 100000])
    D0 = SparseBasis([100, 1000, 10000, 100000])
    table = {x: (1, 0) for x in Xb.fs_set()}
    for s in D0.fs_set():
        table[11 + s] = (2, 1)
    table[11] = (5, 1)
    for pt in (111, 1111, 10111, 11111):
        table[pt] = (6, 1)
    table[1000] = (8, 7)
    table[11000] = (9, 7)
    bundle = RnhCase2Bundle(
        ns=[1, 6, 7], js=[0, 1, 0], ks=[-1, 0, -1],
        Fs=[frozenset(), frozenset([0]), frozenset()],
        xs=[11, 111, 1000],
        Ds=[D0, SparseBasis([1000, 10000]), SparseBasis([10000])],
    )
    rep = check_rnh_conditions(bundle, GammaMap(table), Xb)
    assert rep.passed, rep.failed_names()
    # the final point must actually sit in column 7, not ride a default
    assert GammaMap(table).table[1000] == (8, 7)


def test_rnh_case2_d3b_asks_fs_of_the_previous_basis():
    # x_1 = x_0 + 0, and the basis {0} decomposes 0 while FS({0}) is empty,
    # so x_1 reaches x_0 by no sum of D_0 (and maps to (5, 1), not (6, 1))
    bundle = RnhCase2Bundle(ns=[1, 6], js=[0, 1], ks=[-1, 0], Fs=[frozenset(), frozenset([0])],
                            xs=[11, 11], Ds=[SparseBasis([0]), SparseBasis([0])])
    rep = check_rnh_conditions(bundle, GammaMap({11: (5, 1)}), powers_of_ten())
    assert rep.failed_names() == ["(d3a)", "(d3b)"]


def test_rnh_case2_single_violations():
    Xb, f, bundle = case2_valid_fixture()

    # (b1): D_1 sums escape D_0 sums; keep every landing condition satisfied
    t = dict(f.table)
    t[10100] = (9, 6)
    broken = RnhCase2Bundle(
        ns=[1, 6], js=[0, 0], ks=[-1, -1], Fs=[frozenset(), frozenset()],
        xs=[11, 100],
        Ds=[SparseBasis([100, 1000]), SparseBasis([10000])],
    )
    assert check_rnh_conditions(broken, GammaMap(t), Xb).failed_names() == ["(b1)"]

    # (e3): the forbidden point value (n_1, n_0) appears at x_0 + x_1
    t = dict(f.table)
    t[111] = (6, 1)
    assert check_rnh_conditions(bundle, GammaMap(t), Xb).failed_names() == ["(e3)"]

    # (d3a): a branch-1 step whose point maps to the wrong column pair
    table = {x: (1, 0) for x in Xb.fs_set()}
    table.update({11: (5, 1), 111: (6, 1), 1011: (3, 1), 1111: (6, 1)})
    broken = RnhCase2Bundle(
        ns=[1, 6], js=[0, 1], ks=[-1, 0], Fs=[frozenset(), frozenset([0])],
        xs=[11, 1011],
        Ds=[SparseBasis([100, 1000]), SparseBasis([100])],
    )
    rep = check_rnh_conditions(broken, GammaMap(table), Xb)
    assert rep.failed_names() == ["(d3a)"]

    # (b2): D_1 = {1000, 2000, 4000} is sparse, not very sparse, and leaves FS(D_0)
    broken = RnhCase2Bundle(bundle.ns, bundle.js, bundle.ks, bundle.Fs, bundle.xs,
                            [bundle.Ds[0], SparseBasis([1000, 2000, 4000])])
    assert check_rnh_conditions(broken, f, Xb).failed_names() == ["(b1)", "(b2)", "(c4)"]

    # (c2): a branch-0 step with a nonempty F
    broken = RnhCase2Bundle(bundle.ns, bundle.js, bundle.ks, [frozenset(), frozenset([0])],
                            bundle.xs, bundle.Ds)
    assert check_rnh_conditions(broken, f, Xb).failed_names() == ["(c2)"]


@pytest.mark.parametrize("table, fields, failed", [
    # (d1): F_0 bans index 0, so k_1 = 0 is not eligible; F_0 also breaks branch 0
    ({}, {"Fs": [frozenset([0]), frozenset([0])]}, ["(c2)", "(d1)"]),
    # (d2): F_1 holds 1 beside {k_1, ..., 0} = {0}
    ({}, {"Fs": [frozenset(), frozenset([0, 1])]}, ["(d2)"]),
    # (d3b): x_1 = 11 + 10000 maps where it must, but 10000 is not in FS(D_0)
    ({10011: (6, 1), 11011: (6, 1)}, {"xs": [11, 10011]}, ["(d3b)"]),
    # (d4): x_1 + 1000 leaves the target (6, 1)
    ({1111: (7, 1)}, {}, ["(d4)"]),
], ids=["d1", "d2", "d3b", "d4"])
def test_rnh_case2_branch1_single_violations(table, fields, failed):
    assert case2_branch1_failures(table, **fields) == failed


def test_rnh_malformed_bundles():
    Xb, f, _ = case2_valid_fixture()
    with pytest.raises(MalformedBundle, match="got dict"):
        check_rnh_conditions({"case": 2}, f, Xb)
    with pytest.raises(MalformedBundle):
        check_rnh_conditions(RnhCase2Bundle(
            ns=[1], js=[0, 0], ks=[-1, -1], Fs=[frozenset(), frozenset()],
            xs=[11, 100], Ds=[SparseBasis([100])] * 2), f, Xb)
    with pytest.raises(MalformedBundle, match="^branch flags must be 0 or 1$"):
        check_rnh_conditions(RnhCase2Bundle(
            ns=[1, 6], js=[0, 2], ks=[-1, -1], Fs=[frozenset(), frozenset()],
            xs=[11, 100], Ds=[SparseBasis([100, 1000]), SparseBasis([1000])]), f, Xb)
    Ds = [SparseBasis([10, 100]), SparseBasis([100])]
    with pytest.raises(MalformedBundle, match="^1 points vs 2 bases$"):
        check_rnh_conditions(RnhCase1Bundle(0, Xb, [1], Ds), f, Xb)
    with pytest.raises(MalformedBundle, match="^k must be >= 0$"):
        check_rnh_conditions(RnhCase1Bundle(-1, Xb, [1, 10], Ds), f, Xb)


def test_transcript_serialization_round_trip():
    phi = NatColoring.identity(40000)
    t = defeat_w_summable(phi, SearchBudget(max_element=40000, max_steps=3))
    doc = json.loads(dumps_stable(t))
    assert doc["certificate"]["sum"] == "5791/8775"
    assert doc["witness"]["set"] == [2, 8, 9, 24, 25, 26]
    assert doc["steps"][2]["chosen"] == [24, 25, 26]


def test_defeat_h_min_with_fast_growing_relabeling():
    # the low-block value pushed through an injective fast-growing map is
    # still a pure min pattern; thresholds and certificate must survive it
    phi = NatColoring(1 << 26, fn=lambda x: (x & -x) ** 2 + 7)
    pool = BlockBasis([1 << j for j in range(20)])
    t = defeat_h_summable(phi, pool, CanonicalCase.MIN, SearchBudget(max_steps=10))
    for step in t.steps:
        assert all(v > (1 << step.index) for v in step.checks.values)
    assert t.certified_sum <= t.majorant
    assert verify_transcript(t).passed


def test_rnh_checker_catches_structural_mutations():
    # any mutation of the indices, points, or bases of a valid bundle must
    # fail at least one item; only f-values at uninspected points are free
    import random

    rng = random.Random(321)
    Xb, f, _ = case2_valid_fixture()
    fsX = list(Xb.fs_set())
    pool = [SparseBasis([10]), SparseBasis([100]), SparseBasis([10000]),
            SparseBasis([100, 1000]), SparseBasis([1000, 10000])]
    caught = 0
    for _ in range(120):
        ns, xs = [1, 6], [11, 100]
        Ds = [SparseBasis([100, 1000]), SparseBasis([1000])]
        kind = rng.choice(["n", "x", "D"])
        i = rng.randint(0, 1)
        if kind == "n":
            ns[i] = rng.randint(0, 8)
        elif kind == "x":
            xs[i] = rng.choice(fsX)
        else:
            Ds[i] = rng.choice(pool)
        if ns == [1, 6] and xs == [11, 100] and \
                [d.elements for d in Ds] == [(100, 1000), (1000,)]:
            continue
        bundle = RnhCase2Bundle(ns=ns, js=[0, 0], ks=[-1, -1],
                                Fs=[frozenset(), frozenset()], xs=xs, Ds=Ds)
        rep = check_rnh_conditions(bundle, f, Xb)
        assert not rep.passed, (kind, ns, xs, [d.elements for d in Ds])
        caught += 1
    assert caught > 80


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_every_step_rule_matches_the_rule_oracle(strategy):
    # Each (threshold(n), term(n)) rule against the formulas the engines stated
    # before the table held them, with exact rationals well past the n_max 10
    # of the pinned reports.
    rules, oracles = STRATEGIES[strategy].rules, RULE_ORACLES[strategy]
    assert list(rules) == list(oracles)
    for case, (threshold, term) in rules.items():
        first, want_threshold, want_majorant = oracles[case]
        for n_max in range(1, 41):
            steps = range(first, first + n_max)
            assert [threshold(n) for n in steps] == [want_threshold(n) for n in steps]
            majorant = sum(map(term, steps), Fraction(0))
            assert type(majorant) is Fraction and majorant == want_majorant(n_max)


# Per strategy, its engine on an input it completes when the budget fields its
# row lists take NONDEFAULT's values; the other fields keep SearchBudget()'s.
ENGINE_RUNS = {
    "w-summable": lambda budget: defeat_w_summable(NatColoring.identity(1 << 10), budget),
    "h-summable": lambda budget: defeat_h_summable(
        NatColoring.identity(1 << 10), BlockBasis([1 << j for j in range(8)]), CanonicalCase.INJ,
        budget),
    "r-summable": lambda budget: defeat_r_summable(
        PairColoring.pairing(20), NatSet(range(20)), CanonicalCase.INJ, budget),
    "r-hindman": lambda budget: defeat_r_hindman(
        bucket_map(), SparseBasis([1, 3, 9, 27, 81, 243]), budget),
}
NONDEFAULT = {"max_element": 512, "max_steps": 3, "candidate_cap": 3}


@pytest.mark.parametrize("strategy, field", [
    (strategy, field) for strategy in STRATEGIES for field in SearchBudget.__slots__])
def test_every_engine_refuses_exactly_the_budget_fields_its_row_leaves_out(strategy, field):
    listed = STRATEGIES[strategy].budget
    budget = SearchBudget(**{name: NONDEFAULT[name] for name in (*listed, field)})
    if field in listed:
        assert ENGINE_RUNS[strategy](budget).strategy == strategy
    else:
        with pytest.raises(ValueError, match=rf"^budget\.{field} does not apply to {strategy}$"):
            ENGINE_RUNS[strategy](budget)


@pytest.mark.parametrize("strategy", ["h-summable", "r-summable"])
def test_the_first_refused_budget_field_is_the_first_in_slot_order(strategy):
    budget = SearchBudget(candidate_cap=3, max_element=512)
    with pytest.raises(ValueError, match=rf"^budget\.max_element does not apply to {strategy}$"):
        ENGINE_RUNS[strategy](budget)


def _w_steps_1_to_3():
    """The w transcript on the identity for n_max 3: steps 1, 2 and 3 check
    phi >= 2 at 2, phi >= 8 at 8 and 9, and phi >= 24 at 24, 25 and 26."""
    t = defeat_w_summable(NatColoring.identity(1 << 10), SearchBudget(max_steps=3))
    assert [step.checks.args for step in t.steps] == [((2,),), ((8,), (9,)),
                                                      ((24,), (25,), (26,))]
    return t


def _with_checks(step, checks):
    """The step rebuilt with other checks: a step refuses assignment."""
    return TranscriptStep(step.index, step.chosen, checks, step.note)


def _counted(fn):
    calls = []

    def counted(*point):
        calls.append(point)
        return fn(*point)
    return counted, calls


@pytest.mark.parametrize("strategy", ["h", "r"])
def test_a_constant_run_stops_querying_at_its_first_mismatch(strategy):
    if strategy == "h":  # 40 is a sum of the blocks past the classified prefix
        fn, calls = _counted(lambda x: 9 if x == 40 else 7)
        with pytest.raises(CaseMismatch, match=r"^constant case broken at 40: phi = 9 != 7$"):
            defeat_h_summable(NatColoring(1 << 8, fn=fn), BlockBasis([1 << j for j in range(8)]),
                              CanonicalCase.CONST, SearchBudget(max_steps=8))
        assert calls[-2:] == [(39,), (40,)]
    else:  # 13 lies past the 12 classified points
        fn, calls = _counted(lambda i, j: 9 if (i, j) == (3, 13) else 3)
        with pytest.raises(CaseMismatch, match=r"^constant case broken at \(3, 13\)$"):
            defeat_r_summable(PairColoring(20, fn=fn), NatSet(range(20)), CanonicalCase.CONST,
                              SearchBudget(max_steps=14))
        assert calls[-2:] == [(3, 12), (3, 13)]


def test_verify_reports_a_changed_value_inside_a_column_record():
    t = _w_steps_1_to_3()
    third = t.steps[2].checks
    t.steps[2] = _with_checks(t.steps[2], StepChecks("nat", ">=", 24, third.args, (24, 26, 26)))
    fn, calls = _counted(lambda x: x)
    report = verify_transcript(t, NatColoring(1 << 10, fn=fn))
    assert report.failed_names() == ["checks"]
    assert report.items[0].detail == "step 3: phi(25) = 26 >= 24 (fresh 25)"
    # The scan stops at 25; the image is queried afresh after it.
    assert calls == [(2,), (8,), (9,), (24,), (25,)] + [(x,) for x in t.witness["set"]]


def test_verify_refuses_an_unknown_strategy_before_any_query():
    w = _w_steps_1_to_3()
    t = Transcript("z-summable", w.params, w.steps, w.witness, w.image, w.majorant, w.coloring)
    fn, calls = _counted(lambda x: x)
    with pytest.raises(ValueError, match="^unknown strategy 'z-summable'$"):
        verify_transcript(t, NatColoring(1 << 10, fn=fn))
    assert calls == []


def test_a_transcript_refuses_assignment_so_its_certificate_stays_its_images():
    t = _w_steps_1_to_3()
    image, certified = t.image, t.certified_sum
    with pytest.raises(AttributeError, match="^cannot assign to field 'image'$"):
        t.image = NatSet([1])
    with pytest.raises(AttributeError, match="^cannot assign to field 'strategy'$"):
        t.strategy = "h-summable"
    assert t.strategy == "w-summable" and t.image == image
    assert t.certified_sum == certified == reciprocal_sum(image)
    assert verify_transcript(t, NatColoring.identity(1 << 10)).passed


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("rebuild", ["pickle", "_refilled"])
def test_a_rebuilt_transcript_with_a_moved_certificate_fails_its_certificate(rebuild, delta):
    # min_alpha's evaluator is a module function, so the transcript pickles.
    t = defeat_h_summable(NatColoring.min_alpha(1 << 12), BlockBasis([1 << j for j in range(10)]),
                          CanonicalCase.MIN, SearchBudget(max_steps=4))
    fields = t.fields()
    c = fields["certified_sum"]
    fields["certified_sum"] = Fraction(c.numerator + delta, c.denominator)
    moved = _refilled(Transcript, tuple(fields.values()))
    if rebuild == "pickle":
        moved = pickle.loads(pickle.dumps(moved))
    assert moved.certified_sum == fields["certified_sum"] != c
    report = verify_transcript(moved)
    assert report.failed_names() == ["certificate"]
    assert report.items[2].detail == rational_str(moved.certified_sum)
    assert verify_transcript(pickle.loads(pickle.dumps(t))).passed


class _Checks(StepChecks):
    __slots__ = ()


@pytest.mark.parametrize("checks", [(), ((1,), (2,)), None,
                                    _Checks("nat", ">=", 2, ((2,),), (2,))],
                         ids=["empty tuple", "row tuple", "none", "subclass"])
def test_a_step_refuses_checks_that_are_not_one_column_record(checks):
    with pytest.raises(ValueError, match="^step checks must be a StepChecks, not "):
        TranscriptStep(1, (2,), checks)


def test_verify_names_a_changed_pair_check_by_its_pair():
    t = defeat_r_summable(PairColoring.pairing(40), NatSet(range(40)), CanonicalCase.INJ,
                          SearchBudget(max_steps=3))
    last = t.steps[2].checks
    assert last == StepChecks("pair", ">", 8, ((0, 3), (2, 3)), (9, 18))
    t.steps[2] = _with_checks(t.steps[2], StepChecks("pair", ">", 8, last.args, (9, 19)))
    report = verify_transcript(t)
    assert report.failed_names() == ["checks"]
    assert report.items[0].detail == "step 2: phi({2, 3}) = 19 > 8 (fresh 18)"


def test_verify_stops_at_the_first_bad_check_before_a_point_outside_the_window():
    t = _w_steps_1_to_3()
    third = t.steps[2].checks
    t.steps[2] = _with_checks(t.steps[2], StepChecks("nat", ">=", 24, third.args + ((5000,),),
                                                     third.values + (5000,)))
    # 5000 lies outside the fresh coloring's window, past the failing 24.
    report = verify_transcript(t, NatColoring(64, fn=lambda x: 0 if x == 24 else x))
    assert report.failed_names() == ["checks", "image", "certificate"]
    assert report.items[0].detail == "step 3: phi(24) = 24 >= 24 (fresh 0)"
