import itertools
import random
import re
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealforge import (
    EdgeSet,
    IdealId,
    NatSet,
    ScaleParams,
    find_ap,
    find_clique,
    heavy_columns,
    is_positive,
    longest_ap,
    reciprocal_sum,
    tall_witness,
)
from idealforge import ideals
from idealforge.errors import CannotAvoid, CarrierMismatch
from idealforge.ideals import RECIPROCAL_LEAF, progressions, reciprocal_terms

from conftest import dense_clique, dp_longest_ap, every_ap, harmonic, least_ap, \
    naive_clique, sequential_reciprocal_sum


def test_natset_canonical_form():
    A = NatSet([5, 1, 3, 3, 1])
    assert A.elements == (1, 3, 5)
    assert 3 in A and 2 not in A
    assert list(A) == [1, 3, 5]
    with pytest.raises(ValueError):
        NatSet([-1])


class _Digit(IntEnum):
    SEVEN = 7
    MINUS = -1


@pytest.mark.parametrize("bad", [True, False, 1.0, "a", -1, _Digit.MINUS, None, (1,)])
def test_natset_refuses_each_non_natural_by_name(bad):
    with pytest.raises(ValueError) as err:
        NatSet([3, bad])
    assert str(err.value) == f"natural number expected, got {bad!r}"


def test_natset_takes_int_subclasses_but_bool_and_names_the_first_offender():
    A = NatSet([_Digit.SEVEN, 3])
    assert A.elements == (3, 7) and type(A.elements[1]) is _Digit
    items = [4, "a", -1, True, 2.5, 0, -7]
    first = next(x for x in frozenset(items)
                 if not isinstance(x, int) or isinstance(x, bool) or x < 0)
    with pytest.raises(ValueError, match=f"^natural number expected, got {re.escape(repr(first))}$"):
        NatSet(items)


small_sets = st.lists(st.integers(0, 30), max_size=8)


@settings(max_examples=200, deadline=None)
@given(small_sets, small_sets, st.lists(st.integers(-2, 32), max_size=6))
def test_trusted_natsets_agree_with_frozenset(xs, ys, probes):
    # A library-built set makes its member set on first use; every order of
    # first uses, on either side of issubset, gives frozenset's answers.
    def lazy(items):
        return NatSet._trusted(tuple(sorted(set(items))))

    X, Y = frozenset(xs), frozenset(ys)
    for A, B in ((lazy(xs), lazy(ys)), (lazy(xs), NatSet(ys)), (NatSet(xs), lazy(ys))):
        assert A.issubset(B) == (X <= Y) and B.issubset(A) == (Y <= X)
    for A in (lazy(xs), NatSet(xs)):
        assert [p in A for p in probes] == [p in X for p in probes]
        assert A.issubset(NatSet(ys)) == (X <= Y)
    assert lazy(xs) == NatSet(xs) and hash(lazy(xs)) == hash(NatSet(xs))
    assert (lazy(xs) == lazy(ys)) == (X == Y)
    assert lazy(xs)._members is None  # nothing is built before the first use


def test_natset_shifts():
    assert (NatSet([3, 5]) - 4) == NatSet([1])
    assert (NatSet([0, 1]) + 2) == NatSet([2, 3])
    assert (NatSet() + 7) == NatSet()
    assert (NatSet() - 7) == NatSet()


def test_edgeset_normalization_and_gamma():
    G = EdgeSet(4, [(2, 1), (0, 3)])
    assert (1, 2) in G and (2, 1) in G
    assert G.gamma() == {(2, 1), (3, 0)}
    with pytest.raises(ValueError):
        EdgeSet(3, [(1, 1)])
    with pytest.raises(ValueError):
        EdgeSet(2, [(0, 5)])
    # Equal, with one hash, by vertex count and normalized edges.
    same = EdgeSet(4, [(3, 0), (1, 2), (2, 1)])
    assert G == same and hash(G) == hash(same) and len({G, same}) == 1
    assert G != EdgeSet(5, [(1, 2), (0, 3)]) and G != EdgeSet(4, [(1, 2)])
    assert G != G.edges
    assert repr(G) == "EdgeSet(n=4, edges=[(0, 3), (1, 2)])"


def test_longest_ap_examples():
    assert longest_ap(NatSet()) == 0
    assert longest_ap(NatSet([7])) == 1
    assert longest_ap(NatSet([0, 2, 4, 6])) == 4
    assert longest_ap(NatSet([1, 2, 3, 5, 8])) == 3


def test_longest_ap_against_dp_oracle(rng):
    for _ in range(60):
        A = NatSet(rng.sample(range(60), rng.randint(0, 20)))
        assert longest_ap(A) == dp_longest_ap(A.elements)


def test_longest_ap_powers_of_two():
    # two powers of two never see a third aligned one
    pows = NatSet(1 << i for i in range(16))
    assert longest_ap(pows) == 2
    assert dp_longest_ap(pows.elements) == 2


def test_longest_ap_monotone(rng):
    for _ in range(40):
        big = rng.sample(range(80), 24)
        small = rng.sample(big, 10)
        assert longest_ap(NatSet(small)) <= longest_ap(NatSet(big))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 47), max_size=20))
def test_longest_ap_scans_on_from_the_first_shorter_progression(members):
    """The scan for k+1 terms is handed only the members from the start of
    the least k-term progression on, and tests no point below it."""
    scans = []

    def spy(xs, member, k, top):
        xs, tested = list(xs), []
        scans.append((k, xs, tested))
        return progressions(xs, lambda x: tested.append(x) or member(x), k, top)

    A = NatSet(members)
    with mock.patch.object(ideals, "progressions", spy):
        assert longest_ap(A) == dp_longest_ap(members)
    top = max(members, default=-1)
    for k, xs, tested in scans:
        if xs:
            start = least_ap(members, k - 1, top)[0]
            assert min(xs + tested) >= start


def test_oracles_monotone_under_inclusion(rng):
    for _ in range(30):
        n = 8
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        sub = [e for e in edges if rng.random() < 0.6]
        G, H = EdgeSet(n, edges), EdgeSet(n, sub)
        for k in (2, 3):
            if find_clique(H, k) is not None:
                assert find_clique(G, k) is not None

        big = NatSet(rng.sample(range(60), 20))
        small = NatSet(rng.sample(big.elements, 8))
        assert reciprocal_sum(small) <= reciprocal_sum(big)

        pairs = {(rng.randint(0, 4), rng.randint(0, 9)) for _ in range(25)}
        fewer = {p for p in pairs if rng.random() < 0.5}
        for t in (1, 2, 3):
            assert heavy_columns(fewer, t).issubset(heavy_columns(pairs, t))


def test_find_ap_examples():
    assert find_ap(NatSet([3, 5, 7]), 3) == (3, 2)
    assert find_ap(NatSet([4]), 1) == (4, 1)
    assert find_ap(NatSet([1, 2, 4, 8]), 3) is None
    assert find_ap(NatSet([0, 1, 2, 3, 4]), 3) == (0, 1)  # least start, least step
    with pytest.raises(ValueError):
        find_ap(NatSet([1]), 0)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 120), max_size=40), st.integers(1, 6), st.integers(-1, 130))
def test_scan_ap_over_a_filtered_generator_matches_the_least_ap_oracle(members, k, top):
    # Members above top stay in xs: the scan must stop at top on its own.
    xs = (x for x in range(140) if x in members)
    assert next(progressions(xs, members.__contains__, k, top), None) == \
        least_ap(members, k, top)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 120), max_size=40), st.integers(1, 6), st.integers(-1, 130))
def test_progressions_over_a_filtered_generator_yields_every_progression(members, k, top):
    xs = (x for x in range(140) if x in members)
    assert list(progressions(xs, members.__contains__, k, top)) == \
        list(every_ap(members, k, top))


@pytest.mark.parametrize("members, k, top, want", [
    ((), 1, 10, None),
    ((), 3, 10, None),
    ((7, 9), 1, 10, (7, 1)),
    ((7, 9), 1, 6, None),               # the only members lie above top
    ((2, 5, 8, 11), 4, 10, None),       # the progression's last term passes top
    ((2, 5, 8, 11), 3, 10, (2, 3)),
    ((0, 4, 8, 12, 13), 3, 13, (0, 4)),
])
def test_scan_ap_edges(members, k, top, want):
    assert next(progressions(iter(members), set(members).__contains__, k, top), None) == want
    assert least_ap(members, k, top) == want


def _no_3_ap(x: int) -> bool:
    """x has only the base-3 digits 0 and 1, so this set holds no 3-term
    progression."""
    while x:
        if x % 3 == 2:
            return False
        x //= 3
    return True


@pytest.mark.parametrize("members, k, n", [
    ({x for x in range(3 ** 7) if _no_3_ap(x)}, 3, 3 ** 7),
    ({x * x for x in range(100)}, 4, 100 ** 2),  # the squares hold no 4-term progression
    ({x * x for x in range(100)}, 3, 100 ** 2),
])
def test_scan_ap_tests_each_point_of_its_filter_at_most_once(members, k, n):
    tested = []

    def kept(x):
        tested.append(x)
        return x in members

    top = max(members)
    found = progressions((x for x in range(n) if kept(x)), members.__contains__, k, top)
    assert next(found, None) == least_ap(members, k, top)
    assert len(tested) == len(set(tested)) <= n
    # Draining the scan reads the rest of the filter, still once per point.
    assert list(found) == list(every_ap(members, k, top))[1:]
    assert len(tested) == len(set(tested)) <= n


def test_reciprocal_sum_examples():
    assert reciprocal_sum(NatSet([0, 1, 3])) == Fraction(7, 4)
    assert reciprocal_sum(NatSet()) == 0
    mersenne = NatSet((1 << i) - 1 for i in range(1, 11))
    assert reciprocal_sum(mersenne) == Fraction(1023, 1024)


def test_reciprocal_sum_harmonic():
    for n in (1, 2, 5, 30):
        assert reciprocal_sum(NatSet(range(n))) == harmonic(n)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 1 << 70), max_size=40)
       | st.builds(lambda n, bits, rng: {rng.randrange(1 << bits) for _ in range(n)},
                   st.integers(0, 2000), st.integers(1, 70),
                   st.randoms(use_true_random=False)))
@example(set())
@example({0})
@example({1 << 70})
def test_reciprocal_sum_equals_the_sequential_sum(members):
    assert reciprocal_sum(NatSet(members)) == sequential_reciprocal_sum(sorted(members))


def test_the_product_tree_sums_exactly_at_every_size():
    # Every size up to 40, the sizes around one, two and four leaves, and
    # the 511 sums of a 9-block finite-sums image.
    sizes = {*range(41), *(RECIPROCAL_LEAF * k + d for k in (1, 2, 4) for d in (-1, 0, 1)), 511}
    for size in sorted(sizes):
        rng = random.Random(size)
        shift = rng.choice((0, 45))  # sums below 2^25 or below 2^70
        xs = tuple(sorted(x << shift for x in rng.sample(range(1 << 25), size)))
        p, q = reciprocal_terms(xs)
        assert q > 0 and Fraction(p, q) == sequential_reciprocal_sum(xs), size
        assert reciprocal_sum(NatSet(xs)) == sequential_reciprocal_sum(xs)


def test_find_clique_examples():
    triangle = EdgeSet(3, [(0, 1), (0, 2), (1, 2)])
    assert find_clique(triangle, 3) == NatSet([0, 1, 2])
    star = EdgeSet(6, [(0, i) for i in range(1, 6)])
    assert find_clique(star, 3) is None
    assert find_clique(star, 1) == NatSet([0])
    assert find_clique(EdgeSet(0), 1) is None
    assert find_clique(EdgeSet(4, [(2, 3)]), 1) == NatSet([0])
    assert find_clique(EdgeSet(3, [(0, 1)]), 4) is None
    # only 5, 7 and 99,999 carry edges, so the search never sees n
    spread = EdgeSet(100_000, [(5, 99_999), (5, 7), (7, 99_999), (0, 3)])
    assert find_clique(spread, 3) == NatSet([5, 7, 99_999])
    assert find_clique(spread, 2) == NatSet([0, 3])


def test_find_clique_matches_the_dense_search(rng):
    for _ in range(120):
        n = rng.randint(0, 40)
        p = rng.choice([0.05, 0.2, 0.5, 0.8])
        G = EdgeSet(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for k in range(1, 6):
            got = find_clique(G, k)
            assert (got.elements if got is not None else None) == dense_clique(G, k), (n, k)


def test_find_clique_against_naive(rng):
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        G = EdgeSet(n, edges)
        for k in (2, 3, 4):
            got = find_clique(G, k)
            want = naive_clique(G, k)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.elements == want  # both are lexicographically least


def test_heavy_columns_examples():
    assert heavy_columns({(0, 0), (0, 1), (1, 5)}, 2) == NatSet([0])
    assert heavy_columns(set(), 1) == NatSet()
    assert heavy_columns({(3, k) for k in range(10)}, 10) == NatSet([3])


def test_is_positive_per_ideal():
    p = ScaleParams(ap_len=5, clique_size=3, fs_size=2, tau=Fraction(1), window=300)
    assert is_positive(NatSet(range(10)), IdealId.VDW, p)
    assert not is_positive(NatSet(1 << i for i in range(8)), IdealId.VDW,
                           ScaleParams(ap_len=3, window=300))
    assert not is_positive(NatSet(), IdealId.SUMMABLE, p)
    assert is_positive(NatSet([0]), IdealId.SUMMABLE, p)  # 1/1 >= 1
    assert is_positive(NatSet([1, 2, 3]), IdealId.HINDMAN, p)
    assert not is_positive(NatSet([1, 2]), IdealId.HINDMAN, p)
    K3 = EdgeSet(3, [(0, 1), (0, 2), (1, 2)])
    assert is_positive(K3, IdealId.RAMSEY, p)
    assert is_positive({(0, k) for k in range(2)}, IdealId.FIN2, p)
    assert not is_positive({(0, 0), (1, 0)}, IdealId.FIN2, p)
    small = ScaleParams(window=10)
    assert is_positive(NatSet(range(5)), IdealId.FIN, small)
    assert not is_positive(NatSet(range(4)), IdealId.FIN, small)


def test_is_positive_carrier_mismatch():
    p = ScaleParams()
    with pytest.raises(CarrierMismatch):
        is_positive(NatSet([1]), IdealId.RAMSEY, p)
    with pytest.raises(CarrierMismatch):
        is_positive(EdgeSet(3, [(0, 1)]), IdealId.VDW, p)
    with pytest.raises(CarrierMismatch):
        is_positive(NatSet([1]), IdealId.FIN2, p)


@pytest.mark.parametrize("A, member", [
    ((1, 2, 3), "1"),
    ([(0, 1, 2)], "(0, 1, 2)"),
    ([(0, 1), (2, -1)], "(2, -1)"),
    ({(0, 1), ("0", 1)}, "('0', 1)"),
    ([[0, 1], [True, 1]], "[True, 1]"),
])
def test_fin2_members_must_be_pairs_of_naturals(A, member):
    with pytest.raises(CarrierMismatch) as exc:
        is_positive(A, IdealId.FIN2, ScaleParams(fs_size=2))
    assert str(exc.value) == f"fin2 takes a pair collection, got member {member}"
    assert is_positive([[0, 1], (0, 2)], IdealId.FIN2, ScaleParams(fs_size=2))


def test_is_positive_upward_closed(rng):
    p = ScaleParams(ap_len=3, window=100)
    for _ in range(40):
        small = NatSet(rng.sample(range(100), 12))
        big = NatSet([*small, *rng.sample(range(100), 8)])
        if is_positive(small, IdealId.VDW, p):
            assert is_positive(big, IdealId.VDW, p)
        if not is_positive(big, IdealId.VDW, p):
            assert not is_positive(small, IdealId.VDW, p)


def test_union_laws_at_coarsened_scale(rng):
    # thresholded proxies only close under unions after coarsening:
    # reciprocal mass doubles, and Ramsey/van der Waerden numbers bound the
    # structure a union can hide (any 9-term progression two-colored has a
    # monochromatic 3-term one; any 6-clique two-colored has a mono triangle)
    p = ScaleParams(ap_len=3, clique_size=3, tau=Fraction(1, 3), window=200)
    coarse = ScaleParams(ap_len=9, clique_size=6, tau=Fraction(2, 3), window=200)
    for _ in range(30):
        A = NatSet(rng.sample(range(200), 20))
        B = NatSet(rng.sample(range(200), 20))
        for ideal in (IdealId.VDW, IdealId.SUMMABLE):
            if not is_positive(A, ideal, p) and not is_positive(B, ideal, p):
                assert not is_positive(NatSet([*A, *B]), ideal, coarse)
    for _ in range(20):
        n = 12
        edges = list(itertools.combinations(range(n), 2))
        half = set(rng.sample(edges, len(edges) // 2))
        G = EdgeSet(n, half)
        H = EdgeSet(n, [e for e in edges if e not in half])
        if not is_positive(G, IdealId.RAMSEY, p) and \
                not is_positive(H, IdealId.RAMSEY, p):
            union = EdgeSet(n, list(G.edges) + list(H.edges))
            assert not is_positive(union, IdealId.RAMSEY, coarse)


def test_tall_witness_vdw():
    p = ScaleParams(ap_len=3, window=10)
    B = tall_witness(NatSet([0, 1]), IdealId.VDW, p, 2)
    assert B == NatSet([0, 1])
    big = tall_witness(NatSet(range(100)), IdealId.VDW,
                       ScaleParams(ap_len=3, window=100), 10)
    assert len(big) >= 10 and longest_ap(big) <= 2


def test_tall_witness_hindman():
    p = ScaleParams(fs_size=2, window=30)
    A = NatSet(range(1, 21))
    B = tall_witness(A, IdealId.HINDMAN, p, 7)
    assert len(B) >= 7 and B.issubset(A)
    for u, v in itertools.combinations_with_replacement(B.elements, 2):
        assert (u + v) not in B


def test_tall_witness_ramsey_and_summable():
    p = ScaleParams(clique_size=3, tau=Fraction(2), window=30)
    K5 = EdgeSet.complete(5)
    M = tall_witness(K5, IdealId.RAMSEY, p, 2)
    assert len(M) == 2 and find_clique(M, 3) is None
    S = tall_witness(NatSet(range(10)), IdealId.SUMMABLE, p, 3)
    assert S == NatSet([7, 8, 9])
    with pytest.raises(CannotAvoid):
        tall_witness(NatSet(range(10)), IdealId.SUMMABLE,
                     ScaleParams(tau=Fraction(1, 100), window=30), 3)


def test_tall_witness_postcondition_oracle(rng):
    p = ScaleParams(ap_len=3, clique_size=3, fs_size=2, tau=Fraction(1, 2), window=60)
    for ideal in (IdealId.VDW, IdealId.HINDMAN, IdealId.SUMMABLE):
        for _ in range(20):
            A = NatSet(rng.sample(range(1, 60), 25))
            try:
                B = tall_witness(A, ideal, p, 5)
            except CannotAvoid:
                continue
            assert B.issubset(A) and len(B) >= 5
            assert not is_positive(B, ideal, p)


def test_tall_witness_too_greedy():
    with pytest.raises(CannotAvoid):
        tall_witness(NatSet([1, 2]), IdealId.VDW, ScaleParams(window=10), 5)


# Every ideal against five carriers; the ideal's own kind is the only one it
# accepts (fin2 takes any set, frozenset, list or tuple of pairs, and an
# EdgeSet's pair view only through G.gamma()).
CARRIERS = {
    "NatSet": NatSet([1, 2, 3, 5]),
    "EdgeSet": EdgeSet(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "frozenset": frozenset({(0, 0), (0, 1), (1, 4)}),
    "list": [(0, 0), (0, 1), (1, 4)],
    "range": range(4),
}
# what each ideal takes, as its error message names it, and which carriers
TAKES = {
    IdealId.VDW: ("a NatSet", {"NatSet"}), IdealId.HINDMAN: ("a NatSet", {"NatSet"}),
    IdealId.SUMMABLE: ("a NatSet", {"NatSet"}), IdealId.FIN: ("a NatSet", {"NatSet"}),
    IdealId.RAMSEY: ("an EdgeSet", {"EdgeSet"}),
    IdealId.FIN2: ("a pair collection", {"frozenset", "list"}),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@pytest.mark.parametrize("ideal", list(IdealId), ids=lambda i: i.value)
def test_each_ideal_takes_only_its_own_carrier(ideal, carrier):
    A = CARRIERS[carrier]
    p = ScaleParams(ap_len=3, clique_size=3, fs_size=2, window=10)
    kind, accepted = TAKES[ideal]
    if carrier in accepted:
        assert isinstance(is_positive(A, ideal, p), bool)
        try:
            B = tall_witness(A, ideal, p, 1)
        except CannotAvoid:
            return
        assert len(B) >= 1 and not is_positive(B, ideal, p)
        return
    message = f"{ideal.value} takes {kind}, got {type(A).__name__}"
    with pytest.raises(CarrierMismatch) as exc:
        is_positive(A, ideal, p)
    assert str(exc.value) == message
    # the carrier is checked before its size is compared with the target
    with pytest.raises(CarrierMismatch) as exc:
        tall_witness(A, ideal, p, 99)
    assert str(exc.value) == message


def test_unknown_ideal_is_a_carrier_mismatch():
    for call in (lambda: is_positive(NatSet([1]), "vdw"),
                 lambda: tall_witness(NatSet([1]), "vdw", ScaleParams(), 5)):
        with pytest.raises(CarrierMismatch, match="unknown ideal 'vdw'"):
            call()


def test_fin2_reads_an_edge_set_only_through_gamma():
    G = EdgeSet(5, [(0, 3), (1, 3), (2, 4)])
    p = ScaleParams(fs_size=2)
    with pytest.raises(CarrierMismatch, match="got EdgeSet"):
        is_positive(G, IdealId.FIN2, p)
    assert is_positive(G.gamma(), IdealId.FIN2, p)  # column 3 holds 0 and 1
    with pytest.raises(CarrierMismatch, match="got EdgeSet"):
        heavy_columns(G, 1)


def test_tall_witness_fin():
    p = ScaleParams(window=12)
    A = NatSet([1, 3, 4, 6, 8, 9, 10, 11])
    for target in range(6):
        B = tall_witness(A, IdealId.FIN, p, target)
        # FIN is positive from half the window: 6 of 12 points
        assert B.issubset(A) and len(B) == target
        assert B.elements == A.elements[:target]
        assert 2 * len(B) < 12 and not is_positive(B, IdealId.FIN, p)
    with pytest.raises(CannotAvoid, match="still positive"):
        tall_witness(A, IdealId.FIN, p, 6)


def test_tall_witness_fin2():
    p = ScaleParams(fs_size=3)
    A = [(0, k) for k in range(5)] + [(2, 7), (2, 1), (2, 4), (5, 0)]
    B = tall_witness(A, IdealId.FIN2, p, 5)
    assert B <= set(A) and len(B) == 5
    # at most fs_size - 1 = 2 pairs per column, least pairs first
    columns = Counter(n for n, _ in B)
    assert max(columns.values()) <= 2
    assert B == {(0, 0), (0, 1), (2, 1), (2, 4), (5, 0)}
    assert not is_positive(B, IdealId.FIN2, p)
    # three columns give at most 2 + 2 + 1 pairs
    with pytest.raises(CannotAvoid, match="reached only 5 of 6"):
        tall_witness(A, IdealId.FIN2, p, 6)
    assert tall_witness(tuple(A), IdealId.FIN2, p, 5) == B
