import bisect
import itertools

import pytest

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
from idealforge.errors import NotInFS, NotSparse, PoolExhausted, TooLarge

from conftest import every_fs_subset, random_pool, subset_sum_counts


def test_fs_examples():
    assert fs(NatSet([5])) == NatSet([5])
    assert fs(NatSet([1, 2, 4])) == NatSet(range(1, 8))
    assert fs(NatSet([1, 2, 3])) == NatSet(range(1, 7))
    assert fs(NatSet()) == NatSet()


def test_fs_monotone(rng):
    for _ in range(30):
        big = rng.sample(range(1, 200), 8)
        small = rng.sample(big, 5)
        assert fs(NatSet(small)).issubset(fs(NatSet(big)))


def test_fs_cap():
    with pytest.raises(TooLarge):
        fs(NatSet(range(1, 27)))


def test_is_sparse_examples():
    assert is_sparse(NatSet([1, 2, 4]))
    assert not is_sparse(NatSet([1, 2, 3]))
    assert is_sparse(NatSet([1, 3, 9]))
    assert not is_sparse(NatSet([0, 5]))  # {5} and {0, 5} share the sum 5
    assert is_sparse(NatSet(1 << i for i in range(30)))  # super-increasing, past FS_CAP
    with pytest.raises(TooLarge):
        is_sparse(NatSet(range(1, 26)))


def test_sparse_basis_alpha_examples():
    D = SparseBasis([1, 3, 9])
    assert D.alpha(13) == NatSet([1, 3, 9])
    for d in D.elements:
        assert D.alpha(d) == NatSet([d])
    with pytest.raises(NotInFS):
        D.alpha(5)
    with pytest.raises(NotSparse):
        SparseBasis([1, 2, 3])


def test_sparse_basis_table_and_greedy_paths_agree():
    # {3,5,6} is sparse but not super-increasing, forcing the table path
    table_based = SparseBasis([3, 5, 6])
    assert subset_sum_counts([3, 5, 6]).most_common(1)[0][1] == 1
    assert table_based.alpha(14) == NatSet([3, 5, 6])
    greedy_based = SparseBasis([1, 3, 9, 27])
    for x in fs(NatSet(greedy_based.elements)):
        assert sum(greedy_based.alpha(x)) == x


def test_alpha_roundtrip_with_uniqueness_oracle(rng):
    for _ in range(25):
        basis = very_sparse_subset(random_pool(rng), rng.randint(1, 6))
        counts = subset_sum_counts(basis.elements)
        assert set(counts.values()) == {1}
        for x in basis.fs_set():
            assert counts[x] == 1
            assert sum(basis.alpha(x)) == x


def test_is_very_sparse_examples():
    flag = is_very_sparse(NatSet([1, 2, 4]))
    assert not flag.verified and flag.counterexample == (1, 3)
    assert is_very_sparse(NatSet([1, 3, 9])).verified
    assert is_very_sparse(NatSet([7])).verified
    with pytest.raises(NotSparse):
        is_very_sparse(NatSet([1, 2, 3]))
    with pytest.raises(TooLarge):
        is_very_sparse(NatSet(range(1, 19)))
    # a doubling basis is decided by the doubling rule at any size; others
    # above the cap still raise
    assert is_very_sparse(NatSet(3 ** i for i in range(30))).verified
    with pytest.raises(TooLarge):
        is_very_sparse(NatSet(1 << i for i in range(25)))


def counted_scans(monkeypatch) -> list:
    """The bases that is_very_sparse's pairwise scan runs on, in order."""
    scanned = []
    scan = sparse._pairwise_scan

    def counted(basis):
        scanned.append(basis.elements)
        return scan(basis)

    monkeypatch.setattr(sparse, "_pairwise_scan", counted)
    return scanned


def test_one_pairwise_scan_per_basis(monkeypatch):
    scanned = counted_scans(monkeypatch)
    D = SparseBasis((1, 3, 9, 26))  # 26 = 2 * 13: very sparse, not doubling
    assert is_very_sparse(D).verified
    assert scanned == [(1, 3, 9, 26)]
    # each call scans once, on the basis given or on a fresh one
    assert is_very_sparse(D).verified and is_very_sparse(NatSet(D.elements)).verified
    assert scanned == [(1, 3, 9, 26)] * 3


def test_doubling_bases_are_never_scanned(monkeypatch):
    scanned = counted_scans(monkeypatch)
    D = very_sparse_subset(NatSet(range(1, 5000)), 8)
    assert D.elements == (1, 3, 9, 27, 81, 243, 729, 2187)
    assert is_very_sparse(D).verified and is_very_sparse(NatSet(D.elements)).verified
    assert very_sparse_subset(NatSet(3 ** i for i in range(40)), 20).elements[-1] == 3 ** 19
    assert scanned == []


def test_a_stored_false_verdict_keeps_its_counterexample(monkeypatch):
    scanned = counted_scans(monkeypatch)
    D = SparseBasis([1, 2, 4])
    given, fresh = is_very_sparse(D), is_very_sparse(NatSet([1, 2, 4]))
    assert given == fresh
    assert not given.verified and given.counterexample == fresh.counterexample == (1, 3)
    assert scanned == [(1, 2, 4)] * 2


def test_very_sparse_subset_examples():
    assert very_sparse_subset(NatSet(range(1, 51)), 4).elements == (1, 3, 9, 27)
    pool = NatSet([4, 9, 40])
    assert very_sparse_subset(pool, 1).elements == (4,)
    with pytest.raises(PoolExhausted):
        very_sparse_subset(NatSet([2, 4, 6, 8]), 3)


def test_very_sparse_subset_verified_on_random_pools(rng):
    for _ in range(120):
        pool = random_pool(rng)
        k = rng.randint(1, 8)
        basis = very_sparse_subset(pool, k)
        assert len(basis) == k
        assert is_very_sparse(NatSet(basis.elements)).verified


def test_find_fs_subset_examples():
    assert find_fs_subset(NatSet(range(1, 8)), 3) == NatSet([1, 2, 4])
    assert find_fs_subset(NatSet([1, 2]), 2) is None  # 3 escapes
    A = NatSet([4, 9, 30])
    assert find_fs_subset(A, 1) == NatSet([4])
    assert find_fs_subset(NatSet(), 1) is None


def test_fs_bases_stops_at_the_first_candidate_short_of_partners(monkeypatch, rng):
    """At the top level (total 0) candidate c's partners are the candidates
    in (c, max(A) - c], and c's visit is its bisect call; no candidate after
    the first one with fewer than k - 1 partners is visited."""
    calls = []

    def spy(xs, x):
        calls.append((xs, x))
        return bisect.bisect_right(xs, x)

    monkeypatch.setattr(sparse, "bisect_right", spy)
    grounds = [NatSet(range(1, 21))]
    grounds += [NatSet(rng.sample(range(1, 80), rng.randint(2, 30))) for _ in range(30)]
    for A, k in itertools.product(grounds, (2, 3)):
        calls.clear()
        assert list(sparse.fs_bases(A, k)) == list(every_fs_subset(A.elements, k))
        top = A.max()
        visited = [top - x for xs, x in calls if xs is calls[0][0]]
        assert visited == list(A.elements[: len(visited)])
        partners = [sum(c < d <= top - c for d in A.elements) for c in visited]
        assert all(p >= k - 1 for p in partners[:-1])
        if len(visited) < len(A) - k + 1:  # stopped early: the last visit was short
            assert partners[-1] < k - 1


def test_find_fs_subset_postcondition(rng):
    for _ in range(40):
        A = NatSet(rng.sample(range(1, 60), 25))
        hit = find_fs_subset(A, 3)
        if hit is None:
            continue
        assert hit.issubset(A)
        assert is_sparse(hit)
        assert fs(hit).issubset(A)


def test_conflict_set_examples():
    D = SparseBasis([1, 3, 9])
    assert conflict_set(D, 1) == NatSet([1, 4, 10, 13])
    assert conflict_set(D, 9) == NatSet([9, 10, 12, 13])
    assert conflict_set(D, 13) == D.fs_set()  # full decomposition meets all
    with pytest.raises(NotInFS):
        conflict_set(D, 5)


def test_conflict_sets_have_no_two_element_basis(rng):
    # overlapping decompositions force sums out, so no u, v, u+v triple
    for _ in range(25):
        D = very_sparse_subset(random_pool(rng), rng.randint(2, 7))
        for y in D.fs_set():
            for d in D.alpha(y):
                filtered = NatSet(x for x in D.fs_set() if d in D.alpha(x))
                assert find_fs_subset(filtered, 2) is None


def test_alpha_additivity(rng):
    for _ in range(15):
        D = very_sparse_subset(random_pool(rng), 6)
        points = D.fs_set()
        for a, c in itertools.combinations(points.elements, 2):
            if (a + c) not in points:
                continue
            aa, ac = set(D.alpha(a)), set(D.alpha(c))
            assert not (aa & ac)  # otherwise very-sparseness is broken
            assert set(D.alpha(a + c)) == aa | ac


