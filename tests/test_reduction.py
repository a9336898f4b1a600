import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge import (
    FiniteIdealSpec,
    IdealId,
    NatSet,
    ScaleParams,
    fin2_to_h_map,
    is_positive,
    positive_family,
    search_reduction,
    verify_reduction,
)
from idealforge import reduction
from idealforge.errors import CarrierMismatch, MalformedBundle, TooLarge

from conftest import every_ap, every_fs_subset, naive_search_reduction

P3 = ScaleParams(ap_len=3, clique_size=3, fs_size=2, tau=Fraction(2), window=64)


def test_positive_family_vdw_example():
    spec = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(6)))
    family = {B.elements for B in positive_family(spec)}
    assert family == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 2, 4), (1, 3, 5)}


def test_positive_family_ramsey_example():
    spec = FiniteIdealSpec(IdealId.RAMSEY, P3, 4)
    family = positive_family(spec)
    assert len(family) == 4
    assert all(len(B) == 3 for B in family)


def test_positive_family_hindman_example():
    spec = FiniteIdealSpec(IdealId.HINDMAN, P3, NatSet(range(1, 8)))
    family = {B.elements for B in positive_family(spec)}
    assert (1, 2, 3) in family and (3, 4, 7) in family
    assert all(b[0] + b[1] == b[2] for b in family)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, 40), max_size=20), st.integers(3, 5), st.integers(2, 3))
def test_positive_family_matches_the_brute_force_families(members, ap_len, fs_size):
    params = ScaleParams(ap_len=ap_len, fs_size=fs_size, window=64)
    A = NatSet(members)
    top = max(members, default=-1)
    vdw = [tuple(a + j * d for j in range(ap_len)) for a, d in every_ap(members, ap_len, top)]
    hindman = []
    for basis in every_fs_subset(members, fs_size):
        sums = tuple(sorted({sum(c) for r in range(1, fs_size + 1)
                             for c in itertools.combinations(basis, r)}))
        if sums not in hindman:
            hindman.append(sums)
    for ideal, want in ((IdealId.VDW, vdw), (IdealId.HINDMAN, hindman)):
        family = positive_family(FiniteIdealSpec(ideal, params, A))
        assert [B.elements for B in family] == want


def test_positive_family_summable_first_crossings():
    params = ScaleParams(tau=Fraction(1), window=64)
    spec = FiniteIdealSpec(IdealId.SUMMABLE, params, NatSet(range(8)))
    family = positive_family(spec)
    assert NatSet([0]) in family  # 1/1 crosses on its own
    for B in family:
        total = sum(Fraction(1, x + 1) for x in B)
        assert total >= 1
        assert total - Fraction(1, B.max() + 1) < 1


def test_positive_family_minimality():
    for spec in (
        FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(7))),
        FiniteIdealSpec(IdealId.HINDMAN, P3, NatSet(range(1, 10))),
        FiniteIdealSpec(IdealId.SUMMABLE,
                        ScaleParams(tau=Fraction(1, 2), window=64),
                        NatSet(range(10))),
    ):
        for B in positive_family(spec):
            assert is_positive(B, spec.ideal, spec.params)
            for x in B:
                smaller = NatSet(e for e in B if e != x)
                assert not is_positive(smaller, spec.ideal, spec.params)


def test_positive_family_fin():
    ground = NatSet([0, 1, 2, 4, 5])
    spec = FiniteIdealSpec(IdealId.FIN, ScaleParams(window=6), ground)
    family = positive_family(spec)
    # FIN is positive from half the window, so the minimal sets are the
    # 3-subsets of the ground, in lexicographic order
    assert len(family) == comb(5, 3) == 10
    assert [B.elements for B in family] == sorted(B.elements for B in family)
    for B in family:
        assert B.issubset(ground) and len(B) == 3
        assert is_positive(B, IdealId.FIN, spec.params)
        for x in B:
            smaller = NatSet(e for e in B if e != x)
            assert not is_positive(smaller, IdealId.FIN, spec.params)
    odd = FiniteIdealSpec(IdealId.FIN, ScaleParams(window=7), ground)
    assert len(positive_family(odd)) == comb(5, 4)
    with pytest.raises(TooLarge, match="half-window subset family too large"):
        positive_family(FiniteIdealSpec(IdealId.FIN, ScaleParams(window=40),
                                        NatSet(range(40))))


@pytest.mark.parametrize("ideal, ground, message", [
    (IdealId.FIN2, NatSet([1, 2]), "fin2 truncations have no canonical carrier enumeration; "
                                   "check explicit maps with verify_reduction"),
    (IdealId.RAMSEY, NatSet([1, 2]), "ramsey ground is a vertex count"),
    (IdealId.VDW, 4, "vdw ground is a NatSet"),
], ids=["fin2", "ramsey", "vdw"])
def test_search_rejects_a_carrier_it_cannot_enumerate(ideal, ground, message):
    odd = FiniteIdealSpec(ideal, P3, ground)
    fine = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    for src, dst in ((odd, fine), (fine, odd)):
        with pytest.raises(CarrierMismatch) as exc:
            search_reduction(src, dst)
        assert str(exc.value) == message


def test_positive_family_caps():
    with pytest.raises(TooLarge):
        positive_family(FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(30))))
    with pytest.raises(TooLarge):
        positive_family(FiniteIdealSpec(IdealId.RAMSEY, P3, 12))


def test_ramsey_family_checks_its_ground_as_the_carrier_does():
    # The family reads the same vertex count as carrier(), so a bad ground
    # gets the carrier's typed error and not an empty family.
    negative = FiniteIdealSpec(IdealId.RAMSEY, P3, -1)
    with pytest.raises(ValueError, match="^vertex count must be >= 0$"):
        positive_family(negative)
    with pytest.raises(ValueError, match="^vertex count must be >= 0$"):
        negative.carrier()
    for ground in (NatSet([1, 2]), "4"):
        spec = FiniteIdealSpec(IdealId.RAMSEY, P3, ground)
        with pytest.raises(CarrierMismatch, match="^ramsey ground is a vertex count$"):
            positive_family(spec)


def test_verify_reduction_identity_and_constant():
    spec = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    assert verify_reduction({x: x for x in range(5)}, spec, spec).passed
    rep = verify_reduction({x: 0 for x in range(5)}, spec, spec)
    assert not rep.passed
    assert "non-positive image" in rep.items[0].detail


def test_verify_reduction_fin2_to_h():
    params = ScaleParams(ap_len=3, clique_size=3, fs_size=2, window=32)
    src = FiniteIdealSpec(IdealId.FIN2, params, NatSet(range(1, 20)))
    dst = FiniteIdealSpec(IdealId.HINDMAN, params, NatSet(range(1, 20)))
    rep = verify_reduction(fin2_to_h_map, src, dst)
    assert rep.passed
    assert "micro-scale" in rep.meta["caveat"]


def test_verify_reduction_checks_the_map_before_any_image():
    vdw3 = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(3)))
    vdw5 = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    ramsey = FiniteIdealSpec(IdealId.RAMSEY, P3, 3)
    fin2 = FiniteIdealSpec(IdealId.FIN2, P3, NatSet(range(3)))
    identity = {x: x for x in range(5)}
    for f, src, message in [
        ({**identity, 9: 0}, vdw5, "map key 9 is not an element of the dst carrier"),
        ({x: x for x in range(4)}, vdw5, "map has no image for dst element 4"),
        ({**identity, 3: 7}, vdw5, "map sends 3 to 7, which is not an element of the src carrier"),
        (lambda x: x, vdw3, "map sends 3 to 3, which is not an element of the src carrier"),
        ({x: (x, x) for x in range(5)}, ramsey,
         "map sends 0 to (0, 0), which is not an element of the src carrier"),
        ({x: (0, x - 1) for x in range(5)}, fin2,
         "map sends 0 to (0, -1), which is not a pair of naturals"),
    ]:
        with pytest.raises(MalformedBundle) as exc:
            verify_reduction(f, src, vdw5)
        assert str(exc.value) == message
    assert verify_reduction(list(identity.items()), vdw5, vdw5).passed
    assert verify_reduction({x: (0, x) for x in range(5)}, fin2, vdw5).passed


def test_search_identity_style_instance():
    spec = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    out = search_reduction(spec, spec)
    assert not out.exhausted
    assert verify_reduction(out.found, spec, spec).passed
    assert out.found == naive_search_reduction(spec, spec)


def test_search_agrees_with_naive_small():
    src = FiniteIdealSpec(IdealId.SUMMABLE,
                          ScaleParams(tau=Fraction(1, 2), window=16),
                          NatSet([0, 1, 2]))
    dst = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(6)))
    out = search_reduction(src, dst)
    assert out.found == naive_search_reduction(src, dst)
    if out.found is not None:
        assert verify_reduction(out.found, src, dst).passed


def test_search_engineered_impossible_summable():
    src = FiniteIdealSpec(IdealId.SUMMABLE,
                          ScaleParams(tau=Fraction(100), window=16),
                          NatSet([0, 1, 2]))
    dst = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(6)))
    out = search_reduction(src, dst)
    assert out.exhausted and out.found is None
    assert naive_search_reduction(src, dst) is None


def test_search_ramsey_to_ramsey_tiny():
    params = ScaleParams(ap_len=3, clique_size=3, fs_size=2, window=16)
    spec = FiniteIdealSpec(IdealId.RAMSEY, params, 3)
    out = search_reduction(spec, spec)
    assert not out.exhausted
    assert verify_reduction(out.found, spec, spec).passed
    assert out.found == naive_search_reduction(spec, spec)


def test_search_caps(monkeypatch):
    spec = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(12)))
    with pytest.raises(TooLarge):
        search_reduction(spec, spec)
    small = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    monkeypatch.setattr(reduction, "SEARCH_NODE_LIMIT", 3)
    with pytest.raises(TooLarge):
        search_reduction(small, small)


def peak_bytes(call) -> int:
    """The tracemalloc peak while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_sizes_a_ramsey_carrier_before_listing_it():
    # C(1000, 2) = 499,500 pairs would take about 31 MiB to list.
    src = FiniteIdealSpec(IdealId.RAMSEY, P3, 1000)
    dst = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))

    def search():
        with pytest.raises(TooLarge) as exc:
            search_reduction(src, dst)
        assert str(exc.value) == "search space 499500^5 exceeds the cap"

    assert peak_bytes(search) < 1 << 20


def ramsey_map_values(n):
    """Map values to try against an n-vertex Ramsey src: ints, bools, pairs
    in and out of range in either order, lists and tuples of other lengths."""
    ends = range(-1, n + 2)
    yield from ends
    yield from (False, True, (False, True), (True, False), (True, 2), (0, True))
    for i, j in itertools.product(ends, ends):
        yield from ((i, j), [i, j], (i, j, j + 1), (i,))
    yield ()


def test_ramsey_map_values_are_checked_as_the_carrier_lists_them():
    dst = FiniteIdealSpec(IdealId.VDW, P3, NatSet([0]))
    for n in range(13):
        src = FiniteIdealSpec(IdealId.RAMSEY, P3, n)
        carrier = src.carrier()
        for v in ramsey_map_values(n):
            expected = None if v in carrier else \
                f"map sends 0 to {v!r}, which is not an element of the src carrier"
            try:
                verify_reduction({0: v}, src, dst)
                got = None
            except MalformedBundle as exc:
                got = str(exc)
            assert got == expected, (n, v)


def test_ramsey_map_values_are_checked_without_listing_the_carrier():
    src = FiniteIdealSpec(IdealId.RAMSEY, P3, 1000)
    dst = FiniteIdealSpec(IdealId.VDW, P3, NatSet(range(5)))
    f = {x: (x, 999 - x) for x in range(5)}
    assert peak_bytes(lambda: verify_reduction(f, src, dst)) < 2 << 20
    with pytest.raises(MalformedBundle, match=r"^map sends 4 to \(4, 1000\), which is not"):
        verify_reduction({**f, 4: (4, 1000)}, src, dst)
