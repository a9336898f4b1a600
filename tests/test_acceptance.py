"""Acceptance suite: one test per criterion.

Each test enforces its runtime bound and prints a single pass line (visible
with ``pytest -s`` or in captured output).  Expected values come from
independent oracles: subset-sum counters, bitmask pair sums, dynamic
programming, and full enumeration.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from idealforge import (
    BlockBasis,
    CanonicalCase,
    EdgeSet,
    FiniteIdealSpec,
    GammaMap,
    IdealId,
    NatColoring,
    NatSet,
    PairColoring,
    RnhCase1Bundle,
    RnhCase2Bundle,
    ScaleParams,
    SearchBudget,
    SparseBasis,
    check_hnr_conditions,
    check_rnh_conditions,
    classify_fs_on,
    classify_pairs_on,
    defeat_h_summable,
    defeat_r_hindman,
    defeat_r_summable,
    defeat_w_summable,
    find_canonical_subset,
    find_clique,
    find_fs_subset,
    fs,
    is_very_sparse,
    reciprocal_sum,
    search_reduction,
    verify_reduction,
    verify_transcript,
    very_sparse_subset,
)
from idealforge.canonical import cantor_pair, high_bit, low_bit
from idealforge.cli import build_parser, run
from idealforge.report import RELATIONS, dumps_stable

from conftest import naive_find_canonical, naive_search_reduction, \
    random_block_basis, random_pool, subprocess_env, subset_sum_counts


def _finish(number: int, name: str, started: float, bound: float):
    elapsed = time.perf_counter() - started
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s (bound {bound}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_sparse_machinery():
    started = time.perf_counter()
    rng = random.Random(1001)
    bases = []
    for _ in range(200):
        basis = very_sparse_subset(random_pool(rng), rng.randint(1, 8))
        assert is_very_sparse(NatSet(basis.elements)).verified
        bases.append(basis)
    # larger validated bases, including one off the super-increasing path
    bases.append(SparseBasis([3 ** i for i in range(12)]))
    bases.append(SparseBasis([3, 5, 6, 24, 50, 100, 200, 400, 800, 1600]))
    for basis in bases:
        assert len(basis) <= 12
        counts = subset_sum_counts(basis.elements)
        assert set(counts.values()) == {1}, "subset sums must be unique"
        for x in basis.fs_set():
            assert counts[x] == 1
            assert sum(basis.alpha(x)) == x
    _finish(1, "sparse-machinery", started, 10.0)


def test_acceptance_2_conflict_sets_basis_free():
    started = time.perf_counter()
    rng = random.Random(1002)
    for _ in range(50):
        D = very_sparse_subset(random_pool(rng), rng.randint(1, 8))
        points = D.fs_set()
        per_digit = {}
        for d in D.elements:
            filtered = NatSet(x for x in points if d in D.alpha(x))
            per_digit[d] = filtered
            assert find_fs_subset(filtered, 2) is None
        from idealforge import conflict_set

        for y in points:
            expected = NatSet(itertools.chain.from_iterable(
                per_digit[d].elements for d in D.alpha(y)
            ))
            assert conflict_set(D, y) == expected
    _finish(2, "two-element-basis-free conflict sets", started, 5.0)


def test_acceptance_3_column_witnesses():
    started = time.perf_counter()
    LIM = 1 << 16
    for k in range(11):
        step = 1 << (k + 1)
        members = range(1 << k, LIM, step)
        mask = 0
        for x in members:
            mask |= 1 << x
        sums = 0
        for x in members:
            sums |= mask << x  # bit (x + y) set for every member y
        beyond = 0
        for x in range(1 << k, 1 << 17, step):
            beyond |= 1 << x
        assert sums & beyond == 0, f"x + y landed back in level {k}"

    rng = random.Random(1003)
    for _ in range(100):
        B = rng.sample(range(1, 1 << 14), 3)
        sums = [sum(c) for r in range(1, 4) for c in itertools.combinations(B, r)]
        assert max(sums) < LIM
        levels = Counter((x & -x).bit_length() - 1 for x in set(sums))
        assert max(levels.values()) >= 2

    from idealforge import fin2_to_r_map

    all_pairs = list(itertools.combinations(range(32), 2))
    for k in range(11):
        preimage = [p for p in all_pairs if fin2_to_r_map(p)[0] == k]
        star = EdgeSet(32, preimage)
        assert len(star) == 31 - k
        assert find_clique(star, 3) is None
    _finish(3, "column-map witnesses", started, 5.0)


def test_acceptance_4_progression_replay():
    started = time.perf_counter()
    budget = SearchBudget(max_element=32768, max_steps=10)
    phi = NatColoring.identity(32768)
    t = defeat_w_summable(phi, budget)
    assert len(t.steps) == 10
    fresh = NatColoring.identity(32768)
    for step in t.steps:
        n = step.index
        xs = step.chosen
        assert len(xs) == n
        assert len({b - a for a, b in zip(xs, xs[1:])}) <= 1
        assert min(fresh(x) for x in xs) >= n * (1 << n)
    majorant = Fraction(0)
    for n in range(1, 11):
        majorant += Fraction(n, n * (1 << n) + 1)
    assert t.majorant == majorant
    assert t.certified_sum == reciprocal_sum(t.image)
    assert t.certified_sum <= majorant
    assert verify_transcript(t, fresh).passed
    _finish(4, "progression replay with exact certificate", started, 2.0)


def test_acceptance_5_canonical_case_replays():
    started = time.perf_counter()
    budget = SearchBudget(max_element=32768, max_steps=10)

    pool = BlockBasis([1 << j for j in range(24)])
    h_cases = [
        (lambda w: NatColoring.constant(w, 7), CanonicalCase.CONST),
        (NatColoring.min_alpha, CanonicalCase.MIN),
        (NatColoring.max_alpha, CanonicalCase.MAX),
        (NatColoring.minmax_alpha, CanonicalCase.MINMAX),
        (NatColoring.identity, CanonicalCase.INJ),
    ]
    for maker, case in h_cases:
        lap = time.perf_counter()
        phi = maker(1 << 25)
        t = defeat_h_summable(phi, pool, case, budget)
        for step in t.steps:
            checks = step.checks
            for args, value in zip(checks.args, checks.values):
                assert phi(args[0]) == value and RELATIONS[checks.relation](value, checks.bound)
        assert t.certified_sum <= t.majorant
        assert verify_transcript(t, maker(1 << 25)).passed
        assert time.perf_counter() - lap < 10.0

    T = NatSet(range(600))
    r_cases = [
        (lambda n: PairColoring.constant(n, 3), CanonicalCase.CONST),
        (PairColoring.minimum, CanonicalCase.MIN),
        (PairColoring.maximum, CanonicalCase.MAX),
        (PairColoring.pairing, CanonicalCase.INJ),
    ]
    for maker, case in r_cases:
        lap = time.perf_counter()
        phi = maker(600)
        t = defeat_r_summable(phi, T, case, budget)
        for step in t.steps:
            checks = step.checks
            for args, value in zip(checks.args, checks.values):
                assert phi(args) == value and RELATIONS[checks.relation](value, checks.bound)
        assert t.certified_sum <= t.majorant
        assert verify_transcript(t, maker(600)).passed
        assert time.perf_counter() - lap < 10.0
    _finish(5, "canonical-case replays", started, 90.0)


def test_acceptance_6_classifier_recovery_and_oracle_agreement():
    started = time.perf_counter()
    rng = random.Random(1006)

    pair_patterns = {
        CanonicalCase.CONST: lambda p: 0,
        CanonicalCase.MIN: lambda p: p[0],
        CanonicalCase.MAX: lambda p: p[1],
        CanonicalCase.INJ: lambda p: cantor_pair(p[0], p[1]),
    }
    for i in range(250):
        case = list(pair_patterns)[i % 4]
        pattern = pair_patterns[case]
        n = rng.randint(5, 9)
        keys = sorted({pattern(p) for p in itertools.combinations(range(n), 2)})
        rho = dict(zip(keys, rng.sample(range(10 ** 6), len(keys))))
        phi = PairColoring.from_table(n, {
            p: rho[pattern(p)] for p in itertools.combinations(range(n), 2)
        })
        assert classify_pairs_on(phi, NatSet(range(n))) is case

    fs_patterns = {
        CanonicalCase.CONST: lambda x: 0,
        CanonicalCase.MIN: low_bit,
        CanonicalCase.MAX: high_bit,
        CanonicalCase.MINMAX: lambda x: cantor_pair(low_bit(x), high_bit(x)),
        CanonicalCase.INJ: lambda x: x,
    }
    for i in range(250):
        case = list(fs_patterns)[i % 5]
        pattern = fs_patterns[case]
        C = random_block_basis(rng, rng.randint(3, 5))
        points = fs(C)
        keys = sorted({pattern(x) for x in points})
        rho = dict(zip(keys, rng.sample(range(10 ** 6), len(keys))))
        phi = NatColoring(points.max() + 1, fn=lambda x, r=rho, pat=pattern:
                          r.get(pat(x), 0))
        assert classify_fs_on(phi, C) is case

    for _ in range(60):
        n = rng.randint(4, 8)
        table = {p: rng.randint(0, 3) for p in itertools.combinations(range(n), 2)}
        phi = PairColoring.from_table(n, table)
        for m in (3, 4):
            if m > n:
                continue
            assert find_canonical_subset(phi, m) == naive_find_canonical(phi, m)
    _finish(6, "classifier recovery and oracle agreement", started, 30.0)


def _case2_fixture():
    Xb = SparseBasis([1, 10, 100, 1000, 10000])
    table = {x: (1, 0) for x in Xb.fs_set()}
    table.update({11: (5, 1), 111: (2, 1), 1011: (3, 1), 1111: (4, 1),
                  100: (7, 6), 1100: (8, 6)})
    bundle = RnhCase2Bundle(
        ns=[1, 6], js=[0, 0], ks=[-1, -1], Fs=[frozenset(), frozenset()],
        xs=[11, 100],
        Ds=[SparseBasis([100, 1000]), SparseBasis([1000])],
    )
    return Xb, table, bundle


def test_acceptance_7_constructor_checker_agreement():
    started = time.perf_counter()

    # every successful grown chain re-verifies
    D = SparseBasis([1, 3, 9, 27, 81, 243])
    table = {(0, 1): 1, (0, 2): 3, (0, 3): 9, (1, 2): 27, (1, 3): 81, (2, 3): 243}
    f = PairColoring(4, fn=lambda i, j: table[(i, j)])
    t = defeat_r_hindman(f, D, SearchBudget(max_element=4, max_steps=4,
                                            candidate_cap=4))
    rep = check_hnr_conditions(list(t.witness["b"]), t.witness["reservoirs"], f, D)
    assert rep.passed, rep.failed_names()

    g = PairColoring(6, fn=lambda i, j: 9 if (i + j) % 2 else 3)
    D2 = SparseBasis([1, 3, 9, 27])
    try:
        t2 = defeat_r_hindman(g, D2, SearchBudget(max_element=6, max_steps=3,
                                                  candidate_cap=3))
        rep2 = check_hnr_conditions(list(t2.witness["b"]),
                                    t2.witness["reservoirs"], g, D2)
        assert rep2.passed, rep2.failed_names()
    except Exception as exc:
        from idealforge.errors import SearchExhausted

        assert isinstance(exc, SearchExhausted)

    # one fully valid bundle per construction case
    Xb, base, bundle = _case2_fixture()
    assert check_rnh_conditions(bundle, GammaMap(base), Xb).passed
    case1 = RnhCase1Bundle(k=0, D=Xb, xs=[1, 10],
                           Ds=[SparseBasis([10, 100]), SparseBasis([100])])
    flat = {x: (1, 0) for x in Xb.fs_set()}
    assert check_rnh_conditions(case1, GammaMap(flat), Xb).passed

    # five single-violation bundles, each failing exactly its target item
    violations = []

    t1 = dict(flat)
    t1[100] = (5, 1)
    violations.append(("(f)", check_rnh_conditions(case1, GammaMap(t1), Xb)))

    t2_ = dict(flat)
    t2_[111] = (5, 1)
    violations.append(("(e)", check_rnh_conditions(case1, GammaMap(t2_), Xb)))

    t3 = dict(base)
    t3[10100] = (9, 6)
    b3 = RnhCase2Bundle(
        ns=[1, 6], js=[0, 0], ks=[-1, -1], Fs=[frozenset(), frozenset()],
        xs=[11, 100], Ds=[SparseBasis([100, 1000]), SparseBasis([10000])])
    violations.append(("(b1)", check_rnh_conditions(b3, GammaMap(t3), Xb)))

    t4 = dict(base)
    t4[111] = (6, 1)
    violations.append(("(e3)", check_rnh_conditions(bundle, GammaMap(t4), Xb)))

    t5 = {x: (1, 0) for x in Xb.fs_set()}
    t5.update({11: (5, 1), 111: (6, 1), 1011: (3, 1), 1111: (6, 1)})
    b5 = RnhCase2Bundle(
        ns=[1, 6], js=[0, 1], ks=[-1, 0], Fs=[frozenset(), frozenset([0])],
        xs=[11, 1011], Ds=[SparseBasis([100, 1000]), SparseBasis([100])])
    violations.append(("(d3a)", check_rnh_conditions(b5, GammaMap(t5), Xb)))

    for target, report in violations:
        assert report.failed_names() == [target], \
            f"{target}: failed {report.failed_names()}"
    _finish(7, "constructor/checker agreement", started, 10.0)


def test_acceptance_8_search_soundness_and_completeness():
    started = time.perf_counter()
    p3 = ScaleParams(ap_len=3, clique_size=3, fs_size=2, tau=Fraction(2), window=64)

    instances = [
        (FiniteIdealSpec(IdealId.SUMMABLE, ScaleParams(tau=Fraction(1, 2), window=16),
                         NatSet([0, 1, 2])),
         FiniteIdealSpec(IdealId.VDW, p3, NatSet(range(6)))),       # 3^6
        (FiniteIdealSpec(IdealId.SUMMABLE, ScaleParams(tau=Fraction(1), window=16),
                         NatSet([0, 1])),
         FiniteIdealSpec(IdealId.VDW, p3, NatSet(range(6)))),       # 2^6
        (FiniteIdealSpec(IdealId.VDW, p3, NatSet(range(3))),
         FiniteIdealSpec(IdealId.VDW, p3, NatSet(range(5)))),       # 3^5
        (FiniteIdealSpec(IdealId.RAMSEY, p3, 3),
         FiniteIdealSpec(IdealId.RAMSEY, p3, 3)),                   # 3^3
    ]
    for src, dst in instances:
        size = len(src.carrier()) ** len(dst.carrier())
        assert size <= 3 ** 6
        out = search_reduction(src, dst)
        naive = naive_search_reduction(src, dst)
        assert out.found == naive
        assert out.exhausted == (naive is None)
        if out.found is not None:
            assert verify_reduction(out.found, src, dst).passed

    impossible = FiniteIdealSpec(IdealId.SUMMABLE,
                                 ScaleParams(tau=Fraction(100), window=16),
                                 NatSet([0, 1, 2]))
    out = search_reduction(impossible, FiniteIdealSpec(IdealId.VDW, p3,
                                                       NatSet(range(6))))
    assert out.exhausted

    vdw5 = FiniteIdealSpec(IdealId.VDW, p3, NatSet(range(5)))
    out = search_reduction(vdw5, vdw5)
    assert out.found is not None
    assert verify_reduction(out.found, vdw5, vdw5).passed
    _finish(8, "search soundness and completeness", started, 60.0)


def test_acceptance_9_cli_determinism():
    started = time.perf_counter()
    argv = ["adversary", "--strategy", "w-summable", "--phi", "identity",
            "--nmax", "5"]

    def render():
        args = build_parser().parse_args(argv)
        code, report = run(args)
        assert code == 0
        return dumps_stable(report)

    assert render() == render()

    cmd = [sys.executable, "-m", "idealforge.cli"] + argv
    outputs = []
    for _ in range(3):
        res = subprocess.run(cmd, capture_output=True, env=subprocess_env())
        assert res.returncode == 0
        outputs.append(res.stdout)
    assert len(set(outputs)) == 1
    body = json.loads(outputs[0])["body"]
    assert json.loads(render())["body"] == body
    _finish(9, "deterministic reports", started, 30.0)
