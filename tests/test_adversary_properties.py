"""Property tests for the window-reading constructions against the conftest
per-step-rescan references, plus their coloring-query counts.

``defeat_w_summable`` reads the prefix of the window that its scans reach,
block by block, and evaluates each point of it once; the INJ case of
``defeat_h_summable`` queries only the points of the pool blocks it tries,
from the block after its last pick on.  The references query the window,
or rescan the pool from its first block, afresh at every step.  Both sides must give byte-identical
transcripts, or the same error type and message, on colorings from the
builtin families and random tables, either one perhaps with a negative
value planted at some point.  For w, a planted value is an error only when
it lies inside the prefix that ``conftest.w_scan_reach`` predicts; past it,
w gives the reference's outcome on the coloring with the value read as 0.
For h-INJ it is an error only when the run queries it.

``defeat_r_summable`` scans on from its last pick; its reference rescans the
ground from the first point at every step.  Both sides must agree in the
same way on pair colorings with no negative value, and the engine never
queries the coloring more often than the reference.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge import (
    BlockBasis,
    CanonicalCase,
    NatColoring,
    NatSet,
    PairColoring,
    SearchBudget,
    SparseBasis,
    defeat_h_summable,
    defeat_r_hindman,
    defeat_r_summable,
    defeat_w_summable,
    fs,
    verify_transcript,
)
from idealforge.adversary import GammaMap, RnhCase2Bundle, check_hnr_conditions, \
    check_rnh_conditions
from idealforge.adversary import READ_BLOCK
from idealforge.canonical import cantor_pair, high_bit, low_bit
from idealforge.errors import IdealforgeError, SearchExhausted
from idealforge.report import StepChecks, dumps_stable

from conftest import enumerated_decompositions, naive_conflict_set, naive_rnh_case2_items, \
    plain_subset_sums, rescan_defeat_h_inj, rescan_defeat_r_summable, rescan_defeat_w_summable, \
    subset_sum_counts, w_scan_reach

SETTINGS = settings(max_examples=120, deadline=None)

FAMILIES = {
    "identity": lambda rng: lambda x: x,
    "square": lambda rng: lambda x: x * x,
    "shifted": lambda rng: (lambda s: lambda x: (x + 1) << s)(rng.randint(0, 20)),
    "const": lambda rng: (lambda v: lambda x: v)(rng.choice([0, 1, 7, 10 ** 6])),
    "min-alpha": lambda rng: low_bit,
    "max-alpha": lambda rng: high_bit,
    "minmax-alpha": lambda rng: lambda x: cantor_pair(low_bit(x), high_bit(x)),
}
families = st.sampled_from(sorted(FAMILIES) + ["table"])
# Mostly injective on the pool's sums, so that most runs pass the prefix check.
inj_families = st.sampled_from(["identity", "square", "shifted", "shifted", "table",
                                "table", "const"])
plants = st.one_of(st.none(), st.none(), st.integers(min_value=0))


def _coloring(rng, family, window, plant, distinct=()):
    """A coloring of [0, window) from a builtin family or a random table
    (distinct values on the points ``distinct``), with a negative value at
    ``plant % window`` unless plant is None."""
    if family == "table":
        top = 1 << rng.randint(1, 24)
        table = {x: rng.randrange(top) for x in range(window)}
        table.update(zip(distinct, rng.sample(range(top, top + 64), len(distinct))))
        if plant is not None:
            table[plant % window] = -1
        return NatColoring.from_table(window, table)
    fn = FAMILIES[family](rng)
    if plant is None:
        return NatColoring(window, fn=fn)
    bad = plant % window
    return NatColoring(window, fn=lambda x: -1 if x == bad else fn(x))


def _outcome(call):
    try:
        result = call()
    except (IdealforgeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", dumps_stable(result)


def _counting(fn):
    """fn plus the list of points it was called on."""
    calls = []

    def counted(*point):
        calls.append(point)
        return fn(*point)

    return counted, calls


def _values(phi):
    """phi on its whole window, a value that is not a natural as -1."""
    def at(x):
        try:
            return phi(x)
        except ValueError:
            return -1
    return [at(x) for x in range(phi.window)]


def _w_prefix(values, budget):
    """The prefix of the window that defeat_w_summable reads: through the
    block that holds the farthest point its scans ask about."""
    bound = min(len(values), budget.max_element)
    return min(bound, READ_BLOCK * (w_scan_reach(values, budget) // READ_BLOCK + 1))


def _check_w_against_the_rescan(phi, budget):
    """w on phi either raises the error of the least negative point, when it
    lies inside the predicted prefix, or gives the rescan reference's outcome
    on phi with its negative values read as 0, evaluating exactly the
    prefix, each point once and in order."""
    values = _values(phi)
    prefix = _w_prefix(values, budget)
    bad = next((x for x, v in enumerate(values) if v < 0), None)
    got = _outcome(lambda: defeat_w_summable(phi, budget))
    if bad is not None and bad < prefix:
        assert got == ("ValueError", f"coloring value -1 at {bad} is not a natural")
        return
    clamped = [max(v, 0) for v in values]
    assert got == _outcome(lambda: rescan_defeat_w_summable(
        NatColoring(phi.window, fn=clamped.__getitem__), budget))
    counted, calls = _counting(values.__getitem__)
    assert _outcome(lambda: defeat_w_summable(NatColoring(phi.window, fn=counted), budget)) \
        == got
    assert calls == [(x,) for x in range(prefix)]


@SETTINGS
@given(families, plants, st.integers(1, 1000), st.integers(1, 1200),
       st.integers(1, 10), st.randoms(use_true_random=False))
def test_defeat_w_matches_the_per_step_rescan(family, plant, window, max_element,
                                              nmax, rng):
    phi = _coloring(rng, family, window, plant)
    _check_w_against_the_rescan(phi, SearchBudget(max_element=max_element, max_steps=nmax))


@SETTINGS
@given(st.integers(2, 3000), st.integers(2, 40), st.integers(1, 10), st.booleans(),
       st.randoms(use_true_random=False))
def test_defeat_w_matches_the_per_step_rescan_on_sparse_survivors(window, gap, nmax,
                                                                   planted, rng):
    """Colorings high only on a random set with no two consecutive points,
    so every progression of 2 or more terms has difference > 1, and the
    survivors thin out as the thresholds pass their values."""
    high, x = [], rng.randrange(gap)
    while x < window:
        high.append(x)
        x += rng.randint(2, gap)
    table = {x: rng.randint(0, 1) for x in range(window)}
    table.update((x, rng.randint(2, 12000)) for x in high)
    if planted:
        table[rng.randrange(window)] = -1
    phi = NatColoring.from_table(window, table)
    _check_w_against_the_rescan(
        phi, SearchBudget(max_element=rng.randint(1, window), max_steps=nmax))


@SETTINGS
@given(inj_families, plants, st.booleans(), st.integers(3, 12), st.integers(1, 3000),
       st.integers(1, 10), st.randoms(use_true_random=False))
def test_defeat_h_inj_matches_the_per_step_rescan(family, plant, consecutive, size,
                                                  extra, nmax, rng):
    bits = range(size) if consecutive else sorted(rng.sample(range(12), size))
    C = BlockBasis([1 << j for j in bits])
    prefix = C.elements[:5]
    window = sum(prefix) + extra
    phi = _coloring(rng, family, window, plant, distinct=sorted(subset_sum_counts(prefix)))
    budget = SearchBudget(max_steps=nmax)
    _check_h_inj_against_the_rescan(phi, C, budget)


def _check_h_inj_against_the_rescan(phi, C, budget):
    """h-INJ on phi either raises the error of its negative point, when its
    run on phi with negative values read as 0 queries that point, or gives
    the rescan reference's outcome on that run's coloring."""
    values = _values(phi)
    clamped = [max(v, 0) for v in values]
    counted, calls = _counting(clamped.__getitem__)
    ok = NatColoring(phi.window, fn=counted)
    expected = _outcome(lambda: defeat_h_summable(ok, C, CanonicalCase.INJ, budget))
    bad = next((x for x, v in enumerate(values) if v < 0), None)
    got = _outcome(lambda: defeat_h_summable(phi, C, CanonicalCase.INJ, budget))
    if bad is not None and (bad,) in calls:
        assert got == ("ValueError", f"coloring value -1 at {bad} is not a natural")
        return
    assert got == expected == _outcome(lambda: rescan_defeat_h_inj(ok, C, budget))


def _random_rows(rng, n):
    """n random values, distinct unless the draw says otherwise."""
    top = 1 << rng.randint(1, 20)
    if rng.random() < 0.2:
        return [rng.randrange(top) for _ in range(n)]
    return rng.sample(range(top + n), n)


# Pair colorings of [0, n) as (the case they fit, a maker from (rng, n) to an
# evaluator of i < j): the builtin families and random tables keyed like them.
PAIR_FAMILIES = {
    "min": (CanonicalCase.MIN, lambda rng, n: lambda i, j: i),
    "max": (CanonicalCase.MAX, lambda rng, n: lambda i, j: j),
    "pairing": (CanonicalCase.INJ, lambda rng, n: cantor_pair),
    "const": (CanonicalCase.CONST,
              lambda rng, n: (lambda v: lambda i, j: v)(rng.choice([0, 1, 7, 10 ** 6]))),
    "row-table": (CanonicalCase.MIN,
                  lambda rng, n: (lambda rows: lambda i, j: rows[i])(_random_rows(rng, n))),
    "column-table": (CanonicalCase.MAX,
                     lambda rng, n: (lambda rows: lambda i, j: rows[j])(_random_rows(rng, n))),
    "table": (CanonicalCase.INJ, lambda rng, n: (lambda table: lambda i, j: table[i, j])(
        dict(zip(itertools.combinations(range(n), 2), _random_rows(rng, n * (n - 1) // 2))))),
}


@SETTINGS
@given(st.sampled_from(sorted(PAIR_FAMILIES)), st.none() | st.sampled_from(CanonicalCase),
       st.integers(3, 60), st.integers(0, 20), st.integers(0, 4), st.integers(1, 10),
       st.randoms(use_true_random=False))
def test_defeat_r_matches_the_per_step_rescan(family, declared, size, spare, noise, nmax,
                                              rng):
    """declared None stands for the case the family fits; noise is the number
    of pairs whose value is redrawn, which may break that case past the
    prefix the engine classifies."""
    n = size + spare
    ground = NatSet(rng.sample(range(n), size))
    fits, make = PAIR_FAMILIES[family]
    fn = make(rng, n)
    redrawn = {tuple(sorted(rng.sample(range(n), 2))): rng.randrange(1 << 12)
               for _ in range(noise)}
    case = declared or fits
    budget = SearchBudget(max_steps=nmax)
    counted, calls = _counting(lambda i, j: redrawn[i, j] if (i, j) in redrawn else fn(i, j))
    phi = PairColoring(n, fn=counted)
    got = _outcome(lambda: defeat_r_summable(phi, ground, case, budget))
    engine_calls = len(calls)
    assert got == _outcome(lambda: rescan_defeat_r_summable(phi, ground, case, budget))
    assert engine_calls <= len(calls) - engine_calls


@pytest.mark.parametrize("fn,case", [
    (lambda i, j: i, CanonicalCase.MIN),
    (lambda i, j: j, CanonicalCase.MAX),
    (cantor_pair, CanonicalCase.INJ),
])
def test_defeat_r_queries_fewer_points_than_the_rescan(fn, case):
    budget = SearchBudget(max_steps=9)
    counted, calls = _counting(fn)
    t = defeat_r_summable(PairColoring(400, fn=counted), NatSet(range(400)), case, budget)
    engine_calls = len(calls)
    assert rescan_defeat_r_summable(PairColoring(400, fn=counted), NatSet(range(400)), case,
                                    budget) == json.loads(dumps_stable(t))
    assert engine_calls < len(calls) - engine_calls


@pytest.mark.parametrize("fn,window,nmax", [
    (lambda x: x, 40000, 3),
    (lambda x: x, 3000, 8),
    (lambda x: (x + 1) << 12, 5000, 10),
    (lambda x: x * x, 20000, 4),
])
def test_defeat_w_reads_the_window_once(fn, window, nmax):
    """w evaluates the prefix its scans reach, each point once, in order."""
    counted, calls = _counting(fn)
    budget = SearchBudget(max_element=32768, max_steps=nmax)
    defeat_w_summable(NatColoring(window, fn=counted), budget)
    values = [fn(x) for x in range(window)]
    assert calls == [(x,) for x in range(_w_prefix(values, budget))]


@pytest.mark.parametrize("n", range(1, 12))
def test_identity_w_scan_reach_is_the_least_replaying_window(n):
    """On the identity, step n's first good point is n 2^n and its witness
    the n points from there, so the run asks about [0, n 2^n + n)."""
    budget = SearchBudget(max_element=32768, max_steps=n)
    assert w_scan_reach(list(range(32768)), budget) + 1 == n * 2 ** n + n


def test_defeat_w_exhausts_on_a_set_with_no_3_term_progression():
    """High exactly on the naturals with base-3 digits 0 and 1: steps 1 and 2
    pass, and step 3 scans every pair of the set's 1,024 points in the
    window before it gives up."""
    def no_3_ap(x):
        while x:
            if x % 3 == 2:
                return False
            x //= 3
        return True

    phi = NatColoring(32768, fn=lambda x: 1 << 20 if no_3_ap(x) else 0)
    with pytest.raises(SearchExhausted) as info:
        defeat_w_summable(phi, SearchBudget(max_element=32768, max_steps=6))
    assert info.value.step == 3
    assert str(info.value) == ("construction exhausted at step 3: no 3-term "
                               "progression with phi >= 24 in [0, 32768)")


def _h_inj_queries(C, t):
    """The points h-INJ queries behind its transcript t, in order: FS of the
    first 5 blocks for the prefix classification, then at step n each pool
    block b from the one after the last pick through the pick, with b + e
    for every e in FS of the n earlier picks."""
    cs, basis = C.elements, t.witness["basis"].elements
    points = sorted(subset_sum_counts(cs[:5]))
    last = -1
    for n, c in enumerate(basis):
        earlier = sorted(subset_sum_counts(basis[:n]))
        for b in cs[last + 1:cs.index(c) + 1]:
            points += [b, *(b + e for e in earlier)]
        last = cs.index(c)
    return [(x,) for x in points]


@pytest.mark.parametrize("fn,nmax,evaluated", [
    (lambda x: (x + 1) << 16, 8, 286),  # every first block passes
    (lambda x: x, 6, 157),  # step n passes over one block, of 2^n points
    (lambda x: x * 40503 % 65536, 6, 158),  # step 5 passes over two
])
def test_defeat_h_inj_queries_only_the_blocks_it_tries(fn, nmax, evaluated):
    """The run evaluates the prefix classification and the points of every
    block it tries, each once and in order, and no other point of its
    window; the rescan reference gives the same transcript."""
    C = BlockBasis([1 << j for j in range(12)])
    budget = SearchBudget(max_steps=nmax)
    counted, calls = _counting(fn)
    t = defeat_h_summable(NatColoring(1 << 13, fn=counted), C, CanonicalCase.INJ, budget)
    assert len(t.steps) == nmax
    assert calls == _h_inj_queries(C, t)
    assert len(calls) == evaluated
    assert rescan_defeat_h_inj(NatColoring(1 << 13, fn=fn), C, budget) == \
        json.loads(dumps_stable(t))


# Construct-side query counts of the summable engines.  Each engine queries
# the prefix it classifies up front and the checks of every candidate it
# tries; h-MIN, h-MAX, h-MINMAX and r-summable outside CONST add one pass over
# the selected set, which the closing classification and the image share,
# and h-INJ and h-CONST read both off their checks.
COUNT_POOL = BlockBasis([1 << j for j in range(16)])
COUNT_WINDOW = 1 << 20
PREFIX_SUMS = 2 ** 5 - 1  # FS of the first 5 blocks


def _h_search_queries(case, t):
    """The queries of the candidate search behind an h-summable transcript:
    the checks of each pool element tried, which is every one from the last
    pick on to the next; INJ checks 2^n points at step n."""
    cs, basis = COUNT_POOL.elements, t.witness["basis"].elements
    total, last = 0, -1
    for n, c in enumerate(basis):
        tried = len(cs[last + 1:cs.index(c) + 1])
        if case is CanonicalCase.INJ:
            total += tried * 2 ** n
        else:
            total += tried * (1 + n if case is CanonicalCase.MINMAX else 1)
        last = cs.index(c)
    return total


H_COUNT_RUNS = [
    (CanonicalCase.CONST, lambda x: 5, 6),
    (CanonicalCase.MIN, low_bit, 7),
    (CanonicalCase.MAX, high_bit, 7),
    (CanonicalCase.MINMAX, lambda x: cantor_pair(low_bit(x), high_bit(x)), 5),
    (CanonicalCase.INJ, lambda x: x, 6),
    (CanonicalCase.INJ, lambda x: x ^ 0x5555, 6),
    (CanonicalCase.INJ, lambda x: x * 40503 % 65536, 6),
    (CanonicalCase.INJ, lambda x: (x + 1) << 16, 8),
]


@pytest.mark.parametrize("case,fn,nmax", H_COUNT_RUNS)
def test_defeat_h_queries_each_selected_sum_once(case, fn, nmax):
    budget = SearchBudget(max_steps=nmax)
    counted, calls = _counting(fn)
    t = defeat_h_summable(NatColoring(COUNT_WINDOW, fn=counted), COUNT_POOL, case, budget)
    basis = t.witness["basis"].elements
    assert len(basis) == nmax
    selected = 2 ** len(basis) - 1
    if case is CanonicalCase.CONST:
        expected = PREFIX_SUMS + selected  # the checks; the first gives the constant
    elif case is CanonicalCase.INJ:
        expected = PREFIX_SUMS + _h_search_queries(case, t)
    else:
        expected = PREFIX_SUMS + _h_search_queries(case, t) + selected
    assert len(calls) == expected


def _r_search_queries(ts, case, t):
    """The queries of the candidate search behind an r-summable transcript:
    MIN and MAX read one row value per point tried and re-record one check
    per pick; INJ checks each point tried against every earlier pick."""
    H = t.witness["h"].elements
    total, last = 0, 0 if case is CanonicalCase.MAX else -1
    for n, h in enumerate(H):
        i = ts.index(h)
        total += (i - last) * (n if case is CanonicalCase.INJ else 1)
        last = i
    return total + (0 if case is CanonicalCase.INJ else len(H))


R_COUNT_RUNS = [
    (CanonicalCase.CONST, lambda i, j: 7, 6),
    (CanonicalCase.MIN, lambda i, j: i, 8),
    (CanonicalCase.MAX, lambda i, j: j, 8),
    (CanonicalCase.INJ, cantor_pair, 7),
    (CanonicalCase.INJ, lambda i, j: cantor_pair(j, i) ^ 0x3c, 6),
]
COUNT_GROUND = NatSet(range(1, 400, 3))


@pytest.mark.parametrize("case,fn,nmax", R_COUNT_RUNS)
def test_defeat_r_queries_each_selected_pair_once(case, fn, nmax):
    counted, calls = _counting(fn)
    t = defeat_r_summable(PairColoring(400, fn=counted), COUNT_GROUND, case,
                          SearchBudget(max_steps=nmax))
    H = t.witness["h"].elements
    assert len(H) == nmax
    prefix = 12 * 11 // 2  # the pairs of the first 12 points
    selected = len(H) * (len(H) - 1) // 2
    if case is CanonicalCase.CONST:
        expected = prefix + selected  # the checks; the first gives the constant
    else:
        expected = prefix + _r_search_queries(COUNT_GROUND.elements, case, t) + selected
    assert len(calls) == expected


@pytest.mark.parametrize("kind,case,fn,nmax",
                         [("nat", *run) for run in H_COUNT_RUNS]
                         + [("pair", *run) for run in R_COUNT_RUNS])
def test_verify_transcript_queries_every_check_and_image_point_afresh(kind, case, fn, nmax):
    budget = SearchBudget(max_steps=nmax)
    if kind == "nat":
        t = defeat_h_summable(NatColoring(COUNT_WINDOW, fn=fn), COUNT_POOL, case, budget)
        image_points = [(x,) for x in fs(t.witness["basis"])]
        counted, calls = _counting(fn)
        phi = NatColoring(COUNT_WINDOW, fn=counted)
    else:
        t = defeat_r_summable(PairColoring(400, fn=fn), COUNT_GROUND, case, budget)
        image_points = list(itertools.combinations(t.witness["h"], 2))
        counted, calls = _counting(fn)
        phi = PairColoring(400, fn=counted)
    assert verify_transcript(t, phi).passed
    assert calls == [args for step in t.steps for args in step.checks.args] + image_points


# Each engine and case, run on a builtin coloring whose values go through an
# increasing map g (which keeps the case) for nmax steps.  r-hindman's values
# must be finite sums of its basis, so its coloring is fixed.
_H_MAKERS = {CanonicalCase.CONST: lambda x: 7, CanonicalCase.MIN: low_bit,
             CanonicalCase.MAX: high_bit,
             CanonicalCase.MINMAX: lambda x: cantor_pair(low_bit(x), high_bit(x)),
             CanonicalCase.INJ: lambda x: x}
_R_MAKERS = {CanonicalCase.CONST: lambda i, j: 3, CanonicalCase.MIN: lambda i, j: i,
             CanonicalCase.MAX: lambda i, j: j, CanonicalCase.INJ: cantor_pair}
_HNR_TABLE = {(0, 1): 1, (0, 2): 3, (0, 3): 9, (1, 2): 27, (1, 3): 81, (2, 3): 243}
STEP_RUNS = {
    "w": lambda g, nmax: defeat_w_summable(NatColoring(1 << 14, fn=g),
                                           SearchBudget(max_steps=nmax)),
    **{f"h-{case.value}": (lambda fn, case: lambda g, nmax: defeat_h_summable(
        NatColoring(1 << 25, fn=lambda x: g(fn(x))), BlockBasis([1 << j for j in range(24)]),
        case, SearchBudget(max_steps=nmax)))(fn, case) for case, fn in _H_MAKERS.items()},
    **{f"r-{case.value}": (lambda fn, case: lambda g, nmax: defeat_r_summable(
        PairColoring(300, fn=lambda i, j: g(fn(i, j))), NatSet(range(300)), case,
        SearchBudget(max_steps=nmax)))(fn, case) for case, fn in _R_MAKERS.items()},
    "r-hindman": lambda g, nmax: defeat_r_hindman(
        PairColoring(4, fn=lambda i, j: _HNR_TABLE[i, j]), SparseBasis([3 ** i for i in range(6)]),
        SearchBudget(max_element=4, max_steps=min(nmax + 1, 4), candidate_cap=4)),
}


@SETTINGS
@given(st.sampled_from(sorted(STEP_RUNS)), st.integers(0, 3), st.integers(0, 5),
       st.integers(1, 6))
def test_every_step_holds_one_check_record_of_its_relation_and_threshold(name, shift, offset,
                                                                         nmax):
    t = STEP_RUNS[name](lambda v: (v << shift) + offset, nmax)
    assert t.steps
    for step in t.steps:
        assert type(step.checks) is StepChecks
        assert step.checks.relation == step.relation
        assert step.checks.bound == step.threshold
    assert verify_transcript(t).passed


def _random_basis(rng) -> list:
    """A super-increasing basis (descent until the table is built) or any
    other sparse one (table from the start)."""
    if rng.random() < 0.5:
        out, total = [], 0
        for _ in range(rng.randint(1, 5)):
            out.append(total + 1 + rng.randint(0, 6))
            total += out[-1]
        return out
    while True:
        out = rng.sample(range(1, 60), rng.randint(1, 5))
        if enumerated_decompositions(out) is not None:
            return sorted(out)


def _naive_item_c(b, B, f, elements):
    """Item (c) by ``conftest.naive_conflict_set``: the first reservoir pair,
    step by step, whose image lies in the conflict set of an earlier pair
    image of the picks."""
    for n in range(len(b)):
        ys = {f(p) for p in itertools.combinations(b[:n], 2)}
        conflicts = set().union(*[naive_conflict_set(elements, y) for y in ys])
        for p in itertools.combinations(B[n].elements, 2):
            if f(p) in conflicts:
                return False, f"f({set(p)}) = {f(p)} hits a conflict set at step {n}"
    return True, ""


@SETTINGS
@given(st.integers(0, 10**6))
def test_check_hnr_item_c_matches_the_enumerated_conflict_sets(seed):
    # Pair images of the picks are finite sums (an earlier image must
    # decompose); a reservoir pair may take any natural, 0 and values
    # outside FS(D) among them.
    rng = random.Random(seed)
    elements = _random_basis(rng)
    sums = sorted(fs(NatSet(elements)))
    n = rng.randint(2, 7)
    b = sorted(rng.sample(range(n), rng.randint(1, n)))
    table = {p: rng.choice(sums) if rng.random() < 0.6 or set(p) <= set(b)
             else rng.randint(0, sums[-1] + 3)
             for p in itertools.combinations(range(n), 2)}
    f = PairColoring.from_table(n, table)
    B = [NatSet(rng.sample(range(n), rng.randint(0, n))) for _ in b]
    expected = _naive_item_c(b, B, f, elements)
    D = SparseBasis(elements)
    for built in (False, True):
        if built:
            D.fs_set()
        item = check_hnr_conditions(b, B, f, D).items[2]
        assert item.name == "(c)" and (item.passed, item.detail) == expected


def _random_case2(rng):
    """A small case-2 bundle as plain lists: ns, js, ks, Fs, xs and the
    elements of X, D_0, ..., D_(depth-1).  Each D_i is mostly a sparse basis
    of sums of the one before, each x_i mostly a sum of the basis before it,
    and a branch-1 step mostly takes its F, and an x reaching x_k by a middle
    sum and a sum of the basis before it, so that items pass and fail alike."""
    bases = [_random_basis(rng)]
    depth = rng.randint(2, 4)
    for _ in range(depth):
        pool = sorted(fs(NatSet(bases[-1])))
        pick = sorted(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        sparse = rng.random() < 0.8 and enumerated_decompositions(pick) is not None
        bases.append(pick if sparse else _random_basis(rng))
    ns, js, ks, Fs, xs = [], [], [], [], []
    for i in range(depth):
        Fi = frozenset(rng.sample(range(depth + 1), rng.randint(1, 2)) if rng.random() < 0.3
                       else ())
        xi = rng.choice(sorted(fs(NatSet(bases[i])))) if rng.random() < 0.7 \
            else rng.randint(0, 300)
        j = rng.randint(0, 1) if i else 0
        k = rng.randint(-1, depth) if j else -1
        if j and 0 <= k < i and rng.random() < 0.7:
            Fi = frozenset(range(k, i))
            middle = [xs[r] for r in range(k + 1, i) if rng.random() < 0.5]
            xi = xs[k] + rng.choice(sorted(plain_subset_sums(middle))) + \
                rng.choice(sorted(fs(NatSet(bases[i]))))
        ns.append(rng.randint(0, 3))
        js.append(j)
        ks.append(k)
        Fs.append(Fi)
        xs.append(xi)
    return ns, js, ks, Fs, xs, bases


@SETTINGS
@given(st.integers(0, 10**6))
def test_check_rnh_case2_items_match_a_brute_force_rederivation(seed):
    # f maps a random part of [0, top] into small column pairs, so the
    # (e) targets (n_i, n_t) are met as often as missed.
    rng = random.Random(seed)
    ns, js, ks, Fs, xs, bases = _random_case2(rng)
    top = sum(xs) + max(fs(NatSet(bases[0])))
    density = rng.random()
    table = {}
    for x in range(top + 1):
        if rng.random() < density:
            z1 = rng.randint(0, 2)
            table[x] = (rng.randint(z1 + 1, 3), z1)
    expected = naive_rnh_case2_items(ns, js, ks, Fs, xs, bases, table)
    bundle = RnhCase2Bundle(ns, js, ks, Fs, xs, [SparseBasis(e) for e in bases[1:]])
    report = check_rnh_conditions(bundle, GammaMap(table), SparseBasis(bases[0]))
    got = {item.name: (item.passed, item.detail) for item in report.items
           if item.name in expected}
    assert got == expected
