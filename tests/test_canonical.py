import itertools
import re

import pytest

from idealforge import (
    BlockBasis,
    CanonicalCase,
    NatColoring,
    NatSet,
    PairColoring,
    classify_fs_on,
    classify_pairs_on,
    find_block_basis,
    find_canonical_subset,
    fs,
)
from idealforge.canonical import cantor_pair, high_bit, low_bit
from idealforge.errors import Incomplete, TooSmall, WindowExceeded

from conftest import PAIR_CASES, naive_find_canonical, pair_flags_oracle, \
    random_block_basis


def test_coloring_totality_enforced():
    with pytest.raises(Incomplete):
        NatColoring.from_table(3, {0: 0, 2: 2})
    with pytest.raises(Incomplete):
        PairColoring.from_table(3, {(0, 1): 1, (0, 2): 2})
    phi = PairColoring.from_table(3, {(1, 0): 1, (0, 2): 2, (2, 1): 3})
    assert phi((0, 1)) == 1 and phi((1, 2)) == 3


@pytest.mark.parametrize("table, given", [
    ({(0, 1): 1, (1, 0): 2, (0, 2): 0, (1, 2): 0}, "(1,0)"),
    ({(2, 1): 0, (0, 1): 0, (0, 2): 0, (1, 2): 5}, "(1,2)"),
    # the pair check runs before totality, so a short table says the same
    ({(0, 2): 0, (2, 0): 0}, "(2,0)"),
])
def test_pair_table_refuses_a_pair_in_both_orders(table, given):
    with pytest.raises(ValueError, match=re.escape(f"pair {given} given twice, in both orders")):
        PairColoring.from_table(3, table)


@pytest.mark.parametrize("value", [True, False, "x", 1.0, None, (1,)])
def test_table_values_must_be_ints(value):
    # Each entry's value is checked with the entry, so a bad value is refused
    # before a missing point is.
    with pytest.raises(ValueError, match=re.escape(f"coloring value {value!r} at 2 is not")):
        NatColoring.from_table(3, {0: 0, 1: 0, 2: value})
    with pytest.raises(ValueError, match=re.escape(f"coloring value {value!r} at 2 is not")):
        NatColoring.from_table(4, {2: value})
    with pytest.raises(ValueError, match=re.escape(f"coloring value {value!r} at (2,1) is not")):
        PairColoring.from_table(3, {(0, 1): 0, (0, 2): 0, (2, 1): value})
    with pytest.raises(ValueError, match=re.escape(f"coloring value {value!r} at (1,2) is not")):
        PairColoring.from_table(4, {(1, 2): value})


def test_negative_table_values_fail_when_queried():
    phi = NatColoring.from_table(2, {0: -1, 1: 3})
    assert phi(1) == 3
    with pytest.raises(ValueError, match=re.escape("coloring value -1 at 0 is not a natural")):
        phi(0)
    psi = PairColoring.from_table(3, {(0, 1): 2, (2, 0): -4, (1, 2): 0})
    assert psi((0, 1)) == 2
    with pytest.raises(ValueError, match=re.escape("coloring value -4 at (0,2) is not")):
        psi((2, 0))


def test_coloring_window_enforced():
    phi = NatColoring.identity(5)
    with pytest.raises(WindowExceeded):
        phi(5)
    psi = PairColoring.pairing(4)
    with pytest.raises(WindowExceeded):
        psi((1, 9))


def test_classify_pairs_examples():
    T = NatSet(range(5))
    assert classify_pairs_on(PairColoring.constant(5, 7), T) is CanonicalCase.CONST
    assert classify_pairs_on(PairColoring.minimum(5), T) is CanonicalCase.MIN
    assert classify_pairs_on(PairColoring.maximum(5), T) is CanonicalCase.MAX
    inj = PairColoring(5, fn=lambda i, j: i * 5 + j)
    assert classify_pairs_on(inj, T) is CanonicalCase.INJ
    with pytest.raises(TooSmall):
        classify_pairs_on(inj, NatSet([0, 1]))


def test_classify_pairs_no_case():
    # equal on {0,1} and {1,2} but not {0,2}: breaks all four biconditionals
    phi = PairColoring.from_table(3, {(0, 1): 0, (0, 2): 1, (1, 2): 0})
    assert classify_pairs_on(phi, NatSet([0, 1, 2])) is None
    assert find_canonical_subset(phi, 3) is None


def test_case_flags_mutually_exclusive(rng):
    # on any 3+ point ground set at most one biconditional can survive
    for _ in range(200):
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(n), 2))
        values = [rng.randint(0, 4) for _ in pairs]
        flags = pair_flags_oracle(pairs, values)
        assert sum(flags[c] for c in PAIR_CASES) <= 1


def test_classify_subset_stability(rng):
    makers = [
        lambda n: PairColoring.constant(n, 4),
        PairColoring.minimum,
        PairColoring.maximum,
        PairColoring.pairing,
    ]
    for make in makers:
        phi = make(10)
        case = classify_pairs_on(phi, NatSet(range(10)))
        for _ in range(10):
            sub = NatSet(rng.sample(range(10), rng.randint(3, 7)))
            assert classify_pairs_on(phi, sub) is case


def test_find_canonical_subset_examples():
    parity = PairColoring(20, fn=lambda i, j: (i + j) % 2)
    hit = find_canonical_subset(parity, 3)
    assert hit == (NatSet([0, 1, 3]), CanonicalCase.MIN)
    assert hit == naive_find_canonical(parity, 3)
    # constant triples do exist even though the least classified set is MIN
    assert classify_pairs_on(parity, NatSet([0, 2, 4])) is CanonicalCase.CONST

    inj = PairColoring(6, fn=lambda i, j: i * 6 + j)
    assert find_canonical_subset(inj, 4) == (NatSet([0, 1, 2, 3]), CanonicalCase.INJ)


def test_find_canonical_subset_matches_naive_on_random(rng):
    for _ in range(40):
        n = rng.randint(4, 8)
        table = {p: rng.randint(0, 3) for p in itertools.combinations(range(n), 2)}
        phi = PairColoring.from_table(n, table)
        for m in (3, 4):
            assert find_canonical_subset(phi, m) == naive_find_canonical(phi, m)


def test_block_basis_validation():
    C = BlockBasis([1, 2, 12])
    assert C.elements == (1, 2, 12)
    with pytest.raises(ValueError):
        BlockBasis([3, 6])  # supports {1,2} and {2,4} share bit 2
    with pytest.raises(ValueError):
        BlockBasis([0, 2])


def test_classify_fs_examples():
    C = BlockBasis([1, 2, 12])
    w = 100
    assert classify_fs_on(NatColoring.constant(w, 5), C) is CanonicalCase.CONST
    assert classify_fs_on(NatColoring.min_alpha(w), C) is CanonicalCase.MIN
    assert classify_fs_on(NatColoring.max_alpha(w), C) is CanonicalCase.MAX
    assert classify_fs_on(NatColoring.minmax_alpha(w), C) is CanonicalCase.MINMAX
    assert classify_fs_on(NatColoring.identity(w), C) is CanonicalCase.INJ
    with pytest.raises(TooSmall):
        classify_fs_on(NatColoring.identity(w), BlockBasis([1, 2]))
    with pytest.raises(WindowExceeded):
        classify_fs_on(NatColoring.identity(4), C)


def test_min_case_implies_injective_on_blocks(rng):
    # block supports are disjoint, so low bits differ across the basis
    for _ in range(20):
        C = random_block_basis(rng, 5)
        phi = NatColoring.min_alpha(max(fs(C)) + 1)
        assert classify_fs_on(phi, C) is CanonicalCase.MIN
        values = [phi(c) for c in C]
        assert len(set(values)) == len(values)


def test_find_block_basis_examples():
    pool = BlockBasis([1, 2, 4, 8, 16])
    phi = NatColoring.min_alpha(64)
    assert find_block_basis(phi, pool, 3) == (BlockBasis([1, 2, 4]), CanonicalCase.MIN)
    const = NatColoring.constant(64, 9)
    assert find_block_basis(const, pool, 3) == (BlockBasis([1, 2, 4]), CanonicalCase.CONST)
    # residues mod 3 fit no pattern on any sub-basis of {1,2,4,8}
    mod3 = NatColoring(16, fn=lambda x: x % 3)
    assert find_block_basis(mod3, BlockBasis([1, 2, 4, 8]), 3) is None
    for triple in itertools.combinations([1, 2, 4, 8], 3):
        assert classify_fs_on(mod3, BlockBasis(triple)) is None


def test_cantor_pair_injective():
    seen = {}
    for a in range(30):
        for b in range(30):
            v = cantor_pair(a, b)
            assert v not in seen
            seen[v] = (a, b)


def test_alpha_bit_helpers():
    assert low_bit(12) == 4 and high_bit(12) == 8
    assert low_bit(0) == 0 and high_bit(0) == 0
    assert low_bit(1) == high_bit(1) == 1
