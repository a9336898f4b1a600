"""Property tests for the finite-sums core against the conftest oracles.

Bases come in three shapes: arbitrary sparse sets (mostly table-backed),
greedy very sparse bases drawn from log-uniform pools (super-increasing,
so greedy descent until the sum table is needed), and arbitrary sets that
may collide.
"""

import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from idealforge import (
    NatSet,
    SparseBasis,
    conflict_set,
    find_fs_subset,
    fs,
    is_sparse,
    is_very_sparse,
    very_sparse_subset,
)
from idealforge import sparse
from idealforge.errors import NotInFS, NotSparse
from idealforge.sparse import fs_bases

from conftest import (
    assert_canonical_natset,
    enumerated_decompositions,
    every_fs_subset,
    first_collision,
    naive_conflict_set,
    naive_fs_subset,
    naive_very_sparse_counterexample,
    random_pool,
)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

raw_bases = st.lists(st.integers(1, 400), min_size=1, max_size=7, unique=True)
sparse_bases = raw_bases.filter(lambda xs: enumerated_decompositions(xs) is not None)
greedy_bases = st.builds(
    lambda seed, k: very_sparse_subset(random_pool(random.Random(seed)), k).elements,
    st.integers(0, 10**6), st.integers(1, 7),
)
bases = st.one_of(sparse_bases, greedy_bases)


@SETTINGS
@given(bases)
def test_alpha_and_fs_set_match_enumerated_sums(elements):
    D = SparseBasis(elements)
    decomp = enumerated_decompositions(elements)
    assert D.fs_set().elements == tuple(sorted(decomp))
    assert fs(NatSet(elements)) == D.fs_set()
    assert_canonical_natset(D.fs_set())
    for x, parts in decomp.items():
        alpha = D.alpha(x)
        assert alpha.elements == tuple(sorted(parts))
        assert_canonical_natset(alpha)
        assert x in D
        assert (x + 1 in D) == (x + 1 in decomp)
    missing = max(decomp) + 1
    with pytest.raises(NotInFS) as err:
        D.alpha(missing)
    assert str(err.value) == f"{missing} has no decomposition over {sorted(elements)}"


@SETTINGS
@given(bases)
def test_conflict_sets_match_enumeration(elements):
    D = SparseBasis(elements)
    for y in D.fs_set():
        got = conflict_set(D, y)
        assert list(got.elements) == naive_conflict_set(elements, y)
        assert_canonical_natset(got)


def is_super_increasing(elements) -> bool:
    total = 0
    for x in sorted(elements):
        if x <= total:
            return False
        total += x
    return True


def super_increasing(gaps) -> list:
    """Each element one more than the sum before it, plus its gap."""
    out, total = [], 0
    for gap in gaps:
        out.append(total + 1 + gap)
        total += out[-1]
    return out


# Super-increasing bases take one of the two cuts of sums_meeting (FS(D)
# ascends in mask order); every other sparse basis takes the per-sum mask
# test.  Past ten elements the shift cap sends to the blocks some masks a
# smaller basis would cut by residues; the twelve-element example has both.
super_increasing_bases = st.lists(st.integers(0, 40), min_size=1, max_size=10).map(
    super_increasing)
ordinary_sparse_bases = sparse_bases.filter(lambda xs: not is_super_increasing(xs))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(super_increasing_bases, ordinary_sparse_bases))
@example([3, 5, 6])
@example([1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
@example([7])
@example(super_increasing([3, 0, 5, 1, 0, 2, 9, 0, 4, 1, 7, 0]))
def test_sums_meeting_matches_enumeration_on_every_mask(elements):
    D = SparseBasis(elements)
    xs = D.elements
    decomp = enumerated_decompositions(elements)
    mask_of = {x: sum(1 << xs.index(p) for p in parts) for x, parts in decomp.items()}
    points = sorted(mask_of)
    masks = [mask_of[x] for x in points]
    assert D.fs_set().elements == tuple(points)
    assert isinstance(D._masks, range) == is_super_increasing(elements)
    # masks with bits past k, and negative ones, meet by their bits below k;
    # past ten elements only the masks below 2^k, and neither the
    # canonical check nor the per-point oracle
    small = len(xs) <= 10
    span = 2 << len(xs)
    for m in range(-span if small else 0, span if small else span // 2):
        got = D.sums_meeting(m)
        assert got.elements == tuple([x for x, mx in zip(points, masks) if mx & m])
        if small and 0 <= m < span // 2:
            assert_canonical_natset(got)
    for y in points if small else ():
        assert list(conflict_set(D, y).elements) == naive_conflict_set(elements, y)


def test_sums_meeting_on_a_twenty_element_basis_takes_no_quadratic_cut():
    # these masks have 2^18 and 2^9 avoiding residues: a strided cut would
    # shift the 2^20-sum list once per residue
    D = SparseBasis(super_increasing([g % 3 for g in range(20)]))
    points = D.fs_set().elements
    for m in (1 << 19 | 1, 1 << 10 | 1):
        started = time.perf_counter()
        got = D.sums_meeting(m).elements
        cut = time.perf_counter() - started
        started = time.perf_counter()
        assert got == tuple([x for s, x in enumerate(points, 1) if s & m])
        assert cut < 10 * (time.perf_counter() - started)


@pytest.mark.parametrize("elements", [
    very_sparse_subset(random_pool(random.Random(11)), 8).elements,  # both cuts
    (3, 5, 6, 20, 40),  # the table path
])
def test_sums_meeting_leaves_the_basis_unchanged(elements):
    D = SparseBasis(elements)
    points = D.fs_set().elements
    before = (points, list(D._masks), dict(D._index))
    results = [D.sums_meeting(m) for m in range(-1, 1 << len(elements))]
    assert D.fs_set().elements is points
    assert (D.fs_set().elements, list(D._masks), dict(D._index)) == before
    for got in results:
        assert_canonical_natset(got)
        assert got.elements is not points


def test_sums_meeting_on_empty_sums():
    for D in (SparseBasis([0]), SparseBasis([])):
        assert D.fs_set() == NatSet()
        assert D.sums_meeting(0) == NatSet() and D.sums_meeting(1) == NatSet()
    assert conflict_set(SparseBasis([0]), 0) == NatSet()
    with pytest.raises(NotInFS):
        conflict_set(SparseBasis([]), 0)


def grown(steps) -> list:
    """Each element twice the sum before it plus its step: steps > 0 give a
    doubling basis, a step of 0 after the first a boundary element."""
    out, total = [], 0
    for step in steps:
        out.append(2 * total + step)
        total += out[-1]
    return out


doubling_bases = st.lists(st.integers(1, 40), min_size=1, max_size=7).map(grown)
# an element equal to twice the sum before it: very sparse for (1, 3, 9, 26),
# not for (1, 2, 6), whose 1 + 7 = 2 + 6
boundary_bases = st.builds(lambda first, rest: grown([first] + rest), st.integers(1, 40),
                           st.lists(st.just(0) | st.integers(1, 40), min_size=1, max_size=6))


@SETTINGS
@given(st.one_of(bases, doubling_bases, boundary_bases))
@example([1, 3, 9, 26])
@example([1, 2, 6])
def test_is_very_sparse_finds_the_first_pairwise_counterexample(elements):
    expected = naive_very_sparse_counterexample(elements)
    for D in (NatSet(elements), SparseBasis(elements)):
        flag = is_very_sparse(D)
        assert flag.counterexample == expected
        assert flag.verified == (expected is None)


@SETTINGS
@given(st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True))
def test_collisions_name_the_first_colliding_combos(elements):
    hit = first_collision(elements)
    if hit is None:
        assert SparseBasis(elements).elements == tuple(sorted(elements))
        return
    s, first, second = hit
    with pytest.raises(NotSparse) as err:
        SparseBasis(elements)
    assert str(err.value) == f"{s} = sum{first} = sum{second}; decompositions collide"


ground_sets = st.one_of(
    st.lists(st.integers(0, 40), max_size=14, unique=True),
    # finite sums of a small basis plus noise, so that hits are common
    st.builds(lambda basis, noise: sorted(set(fs(NatSet(basis)).elements) | set(noise)),
              st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
              st.lists(st.integers(0, 80), max_size=6, unique=True)),
)


@SETTINGS
@given(ground_sets, st.integers(1, 4))
def test_find_fs_subset_is_the_least_enumerated_basis(A, k):
    got = find_fs_subset(NatSet(A), k)
    expected = naive_fs_subset(A, k)
    if expected is None:
        assert got is None
    else:
        assert got.elements == expected
        assert_canonical_natset(got)


@SETTINGS
@given(ground_sets, st.integers(1, 4))
def test_fs_bases_yields_every_enumerated_basis_in_order(A, k):
    assert list(fs_bases(NatSet(A), k)) == list(every_fs_subset(A, k))


def test_fs_bases_checks_its_arguments_at_the_call():
    with pytest.raises(ValueError, match="k must be >= 1"):
        fs_bases(NatSet([1, 2, 3]), 0)
    with pytest.raises(ValueError, match="natural number expected"):
        fs_bases([1, -2], 1)


def _sets_about_the_bound(k: int, rng: random.Random) -> list:
    """Sets of 2^k - 2, 2^k - 1 and 2^k members: FS(1, 2, ..., 2^(k-1)),
    which holds its basis, with one member dropped or one added, and random
    sets of each size."""
    full = list(range(1, 1 << k))
    out = [full[:-1], full, full + [1 << k]]
    for size in ((1 << k) - 2, (1 << k) - 1, 1 << k):
        out += [rng.sample(range(3 << k), size) for _ in range(6)]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_find_fs_subset_matches_the_oracle_about_the_size_bound(k):
    rng = random.Random(k)
    for A in _sets_about_the_bound(k, rng):
        expected = naive_fs_subset(sorted(A), k)
        got = find_fs_subset(NatSet(A), k)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got.elements == expected
    assert find_fs_subset(NatSet(range(1, 1 << k)), k) == NatSet([1 << i for i in range(k)])


def test_find_fs_subset_searches_no_set_below_the_size_bound(monkeypatch):
    calls = []

    def spy(A, k):
        calls.append((len(A), k))
        return fs_bases(A, k)

    monkeypatch.setattr(sparse, "fs_bases", spy)
    assert find_fs_subset(NatSet(range(5)), 10**6) is None
    for k in range(1, 6):
        assert find_fs_subset(NatSet(range(1, (1 << k) - 1)), k) is None
        assert find_fs_subset(list(range((1 << k) - 2)), k) is None  # a list is checked too
    assert find_fs_subset(NatSet(), 1) is None
    assert calls == []
    # at the bound the search runs
    assert find_fs_subset(NatSet(range(1, 8)), 3) == NatSet([1, 2, 4])
    assert calls == [(7, 3)]


def test_find_fs_subset_checks_k_and_its_set_before_the_size_bound():
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        find_fs_subset(NatSet(), 0)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        find_fs_subset([-1], 0)  # k first, as fs_bases checks it
    with pytest.raises(ValueError, match="^natural number expected, got -1$"):
        find_fs_subset([-1], 3)  # below the bound, yet refused
    with pytest.raises(ValueError, match="^natural number expected, got True$"):
        find_fs_subset([True], 10**6)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(super_increasing_bases, ordinary_sparse_bases))
@example([0])
@example([1, 2, 4, 8, 16, 32, 64, 128])
def test_alpha_and_mask_match_enumeration_before_and_after_the_table(elements):
    """A super-increasing basis decomposes by descent until its table is
    built; any other basis reads the table from the start.  alpha reads the
    set bits of the same mask either way."""
    decomp = enumerated_decompositions(elements)
    xs = tuple(sorted(elements))
    missing = max(decomp) + 1
    message = f"{missing} has no decomposition over {list(xs)}"
    D = SparseBasis(elements)
    for built in (False, True):
        if built:
            D.fs_set()
        for x, parts in decomp.items():
            assert D.alpha(x).elements == tuple(sorted(parts))
            assert D.mask(x) == sum(1 << xs.index(d) for d in parts)
        for call in (D.alpha, D.mask):
            with pytest.raises(NotInFS) as err:
                call(missing)
            assert str(err.value) == message


# Each element exceeds the sum of those before it, with more elements than
# the enumeration cap: both sides accept these without enumerating.
long_super_increasing_bases = st.lists(
    st.integers(0, (1 << 20) - 1), min_size=25, max_size=40).map(super_increasing)


@SETTINGS
@given(st.lists(st.integers(0, 40), max_size=7, unique=True) | long_super_increasing_bases)
@example([0])
@example([1 << i for i in range(30)])
def test_is_sparse_iff_the_basis_constructs(D):
    try:
        SparseBasis(D)
    except NotSparse:
        constructs = False
    else:
        constructs = True
    assert is_sparse(D) == constructs


@SETTINGS
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_very_sparse_subset_follows_the_growth_rule(seed, k):
    pool = random_pool(random.Random(seed))
    chosen, total = [], 0
    for x in pool:
        if x > 2 * total and len(chosen) < k:
            chosen.append(x)
            total += x
    D = very_sparse_subset(pool, k)
    assert D.elements == tuple(chosen)
    assert naive_very_sparse_counterexample(chosen) is None
    assert_canonical_natset(D.fs_set())


def test_zero_basis_keeps_zero_out_of_its_sums():
    D = SparseBasis([0])
    assert D.alpha(0) == NatSet([0]) and 0 in D
    assert D.fs_set() == NatSet() and conflict_set(D, 0) == NatSet()
    assert is_very_sparse(NatSet([0])).verified
    with pytest.raises(NotSparse) as err:
        SparseBasis([0, 5])
    assert str(err.value) == "5 = sum(5,) = sum(0, 5); decompositions collide"
    assert find_fs_subset(NatSet([0, 1, 2, 3]), 1) == NatSet([0])
    assert find_fs_subset(NatSet([0, 1, 2, 3]), 2) == NatSet([1, 2])
