"""Exhaustive micro-scale search for order-reduction maps between finite
ideal truncations.

A candidate map f from the destination carrier into the source carrier is a
reduction witness at this scale when the image of every minimal positive
destination set is positive in the source.  The search is tiny by design:
its job is quantitative evidence, never a theorem, and every report says so.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Union

from .errors import CarrierMismatch, MalformedBundle, TooLarge
from .ideals import EdgeSet, IdealId, NatSet, Record, ScaleParams, is_nat_pair, \
    is_positive, progressions
from .report import Report
from .sparse import fs, fs_bases

FINITE_SCALE_CAVEAT = (
    "micro-scale result: evidence about finite truncations only, not a theorem"
)
SEARCH_NODE_LIMIT = 5_000_000  # map-search nodes before TooLarge


class FiniteIdealSpec(Record):
    """A finite truncation: an ideal, its scale, and an explicit carrier.

    ``ground`` is a NatSet for the number-carried ideals (an initial
    segment, or a finite-sums fragment), or an int vertex count for the
    pair-carried Ramsey truncation.
    """

    __slots__ = ("ideal", "params", "ground")

    def __init__(self, ideal: IdealId, params: ScaleParams, ground: Union[NatSet, int]):
        self._fill(ideal, params, ground)

    def _vertices(self) -> int:
        if not isinstance(self.ground, int):
            raise CarrierMismatch("ramsey ground is a vertex count")
        if self.ground < 0:
            raise ValueError("vertex count must be >= 0")
        return self.ground

    def carrier(self) -> List:
        if self.ideal is IdealId.RAMSEY:
            return list(itertools.combinations(range(self._vertices()), 2))
        if self.ideal is IdealId.FIN2:
            raise CarrierMismatch(
                "fin2 truncations have no canonical carrier enumeration; "
                "check explicit maps with verify_reduction"
            )
        if not isinstance(self.ground, NatSet):
            raise CarrierMismatch(f"{self.ideal.value} ground is a NatSet")
        return list(self.ground.elements)

    def carrier_size(self) -> int:
        """len(self.carrier()), with its errors, but a Ramsey carrier's
        C(n, 2) pairs are counted, not listed."""
        if self.ideal is IdealId.RAMSEY:
            n = self._vertices()
            return n * (n - 1) // 2
        return len(self.carrier())

    def as_carrier_set(self, elements: Iterable):
        if self.ideal is IdealId.RAMSEY:
            return EdgeSet(self.ground, elements)
        if self.ideal is IdealId.FIN2:
            return frozenset(map(tuple, elements))
        return NatSet(elements)


def positive_family(spec: FiniteIdealSpec) -> List:
    """All inclusion-minimal positive-at-scale subsets of the carrier.

    Progressions for VDW, clique edge sets for RAMSEY, finite-sums sets of
    distinct-sums bases for HINDMAN, first-crossing reciprocal sets for
    SUMMABLE, half-window subsets for FIN.
    """
    p, A = spec.params, spec.ground
    if spec.ideal in (IdealId.VDW, IdealId.HINDMAN, IdealId.SUMMABLE) and len(A) > 20:
        raise TooLarge(f"carrier size {len(A)} exceeds the cap 20")
    if spec.ideal is IdealId.VDW:
        k = p.ap_len
        return [NatSet._trusted(tuple(range(a, a + k * d, d)))
                for a, d in progressions(A.elements, A.__contains__, k, A.max() if A else -1)]

    if spec.ideal is IdealId.RAMSEY:
        n = spec._vertices()
        if n > 8:
            raise TooLarge(f"{n} vertices exceeds the cap 8")
        return [
            EdgeSet(n, itertools.combinations(verts, 2))
            for verts in itertools.combinations(range(n), p.clique_size)
        ]

    if spec.ideal is IdealId.HINDMAN:
        # A basis with distinct subset sums is read back off its sums,
        # least first, so distinct bases give distinct sum sets.
        return [fs(basis) for basis in fs_bases(A, p.fs_size)]

    if spec.ideal is IdealId.SUMMABLE:
        xs = A.elements  # ascending elements = descending reciprocals
        suffix = [Fraction(0)] * (len(xs) + 1)
        for i in range(len(xs) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + Fraction(1, xs[i] + 1)
        out = []

        def grow(idx: int, members: List[int], total: Fraction):
            if total >= p.tau:
                out.append(NatSet(members))
                return  # first crossing: every removal drops below tau
            for i in range(idx, len(xs)):
                if total + suffix[i] < p.tau:
                    break
                grow(i + 1, members + [xs[i]], total + Fraction(1, xs[i] + 1))

        grow(0, [], Fraction(0))
        return out

    if spec.ideal is IdealId.FIN:
        size = (p.window + 1) // 2
        count = 1
        for i in range(size):
            count = count * (len(A) - i) // (i + 1)
            if count > 100_000:
                raise TooLarge("half-window subset family too large")
        return [NatSet(c) for c in itertools.combinations(A.elements, size)]

    raise TooLarge(f"no minimal-family enumeration for {spec.ideal.value}")


def one_each(entries, what: str) -> Dict:
    """The (key, value) entries as a dict, or MalformedBundle("<what> <key>
    twice") at the first key that comes again."""
    table: Dict = {}
    for key, value in entries:
        if key in table:
            raise MalformedBundle(f"{what} {key!r} twice")
        table[key] = value
    return table


def _checked_map(f, src: FiniteIdealSpec, dst: FiniteIdealSpec) -> Dict:
    """f as a table from the dst carrier into the src carrier, or
    MalformedBundle naming its first bad entry.

    A table's keys must be exactly the dst carrier's elements, each given
    once; a callable is asked once for each of them.  A fin2 src has no
    carrier enumeration, so its values need only be pairs of naturals; a
    Ramsey src's values are checked as pairs (i, j) of ints with
    0 <= i < j < n, without listing its C(n, 2) pairs.
    """
    points = dst.carrier()
    if callable(f):
        table = {x: f(x) for x in points}
    else:
        table = one_each(f.items() if isinstance(f, dict) else f, "map gives dst element")
        for x in table:
            if x not in points:
                raise MalformedBundle(f"map key {x!r} is not an element of the dst carrier")
        for x in points:
            if x not in table:
                raise MalformedBundle(f"map has no image for dst element {x!r}")
    kind = "an element of the src carrier"
    if src.ideal is IdealId.FIN2:
        kind, ok = "a pair of naturals", is_nat_pair
    elif src.ideal is IdealId.RAMSEY:
        n = src._vertices()
        ok = lambda v: (isinstance(v, tuple) and len(v) == 2
                        and all(isinstance(c, int) for c in v) and 0 <= v[0] < v[1] < n)
    else:
        ok = src.carrier().__contains__
    for x, v in table.items():
        if not ok(v):
            raise MalformedBundle(f"map sends {x!r} to {v!r}, which is not {kind}")
    return table


def verify_reduction(f, src: FiniteIdealSpec, dst: FiniteIdealSpec) -> Report:
    """Check the contrapositive form on minimal sets: the image of every
    minimal dst-positive set must be src-positive.

    f is a callable or a table (a dict or its items) on the dst carrier; see
    ``_checked_map`` for what it must satisfy.
    """
    report = Report(meta={"caveat": FINITE_SCALE_CAVEAT,
                          "src": src.ideal.value, "dst": dst.ideal.value})
    family = positive_family(dst)
    table = _checked_map(f, src, dst)
    report.meta["minimal_sets"] = len(family)
    for B in family:
        elems = list(B)
        image = src.as_carrier_set(table[x] for x in elems)
        if not is_positive(image, src.ideal, src.params):
            report.add("positive-images", False,
                       f"minimal set {elems} has non-positive image")
            return report
    report.add("positive-images", True,
               f"all {len(family)} minimal positive images verified")
    return report


class SearchOutcome(Record):
    """Result of the exhaustive map search."""

    __slots__ = ("found", "exhausted", "nodes")

    def __init__(self, found: Optional[Dict] = None, exhausted: bool = False, nodes: int = 0):
        self._fill(found, exhausted, nodes)

    def to_json_dict(self):
        return {
            "found": None if self.found is None else sorted(self.found.items()),
            "exhausted": self.exhausted,
            "nodes": self.nodes,
            "caveat": FINITE_SCALE_CAVEAT,
        }


def search_reduction(src: FiniteIdealSpec, dst: FiniteIdealSpec) -> SearchOutcome:
    """Depth-first search for the lexicographically least reduction map.

    Assigns destination carrier elements in canonical order with source
    values ascending; prunes the moment a fully assigned minimal positive
    set has a non-positive image.  Exceeding SEARCH_NODE_LIMIT raises TooLarge
    rather than faking an exhausted verdict.
    """
    dst_size, src_size = dst.carrier_size(), src.carrier_size()
    if dst_size > 10 or src_size > 10:
        raise TooLarge(f"search space {src_size}^{dst_size} exceeds the cap")
    dst_carrier, src_carrier = dst.carrier(), src.carrier()
    index = {x: i for i, x in enumerate(dst_carrier)}
    family = positive_family(dst)
    completes_at: List[List[int]] = [[] for _ in dst_carrier]
    family_elems = []
    for fi, B in enumerate(family):
        elems = list(B)
        family_elems.append(elems)
        last = max(index[x] for x in elems)
        completes_at[last].append(fi)

    assignment: List = [None] * len(dst_carrier)
    nodes = 0

    def image_positive(fi: int) -> bool:
        elems = family_elems[fi]
        image = src.as_carrier_set(assignment[index[x]] for x in elems)
        return is_positive(image, src.ideal, src.params)

    def dfs(pos: int) -> Optional[Dict]:
        nonlocal nodes
        if pos == len(dst_carrier):
            return dict(zip(dst_carrier, assignment))
        for value in src_carrier:
            nodes += 1
            if nodes > SEARCH_NODE_LIMIT:
                raise TooLarge(f"search exceeded {SEARCH_NODE_LIMIT} nodes")
            assignment[pos] = value
            if all(image_positive(fi) for fi in completes_at[pos]):
                hit = dfs(pos + 1)
                if hit is not None:
                    return hit
        assignment[pos] = None
        return None

    found = dfs(0)
    return SearchOutcome(found=found, exhausted=found is None, nodes=nodes)
