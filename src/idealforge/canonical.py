"""Canonical coloring classification over pairs and over finite sums.

For an arbitrary coloring there is always a restricted ground set on which
the coloring looks like one of a handful of exact patterns: constant, keyed
by the minimum, keyed by the maximum, keyed by both (finite-sums case only),
or injective.  The classifiers here demand the biconditional exactly, on
every pair of points, because downstream constructions consume it in both
directions.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import Incomplete, InvariantViolated, TooSmall, WindowExceeded
from .ideals import Elements, NatSet
from .sparse import fs


class CanonicalCase(Enum):
    CONST = "const"
    MIN = "min"
    MAX = "max"
    MINMAX = "minmax"
    INJ = "inj"


def cantor_pair(a: int, b: int) -> int:
    """Standard injective encoding of an ordered pair into a natural."""
    return (a + b) * (a + b + 1) // 2 + b


def low_bit(x: int) -> int:
    """Least power of two in the binary expansion (0 for x = 0)."""
    return x & -x


def high_bit(x: int) -> int:
    """Greatest power of two in the binary expansion (0 for x = 0)."""
    return 0 if x == 0 else 1 << (x.bit_length() - 1)


def _require_int(value, point) -> None:
    """A table's value must be an int (not a bool); a negative one is refused
    when its point is queried."""
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"coloring value {value!r} at {point} is not a natural")


class NatColoring:
    """Total deterministic coloring of [0, window), given by one evaluator.

    ``from_table`` builds the evaluator from a table and checks its values
    and totality.  Querying outside the window raises WindowExceeded.
    """

    __slots__ = ("window", "_fn")

    def __init__(self, window: int, fn: Callable[[int], int]):
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = window
        self._fn = fn

    def __call__(self, x: int) -> int:
        if not (0 <= x < self.window):
            raise WindowExceeded(f"{x} outside coloring window [0, {self.window})")
        value = self._fn(x)
        if value < 0:
            raise ValueError(f"coloring value {value} at {x} is not a natural")
        return value

    def values(self, points) -> List[int]:
        """[phi(x) for x in points], or that loop's first error, from one map of
        the evaluator when every point of the sequence (of a range: both ends)
        lies in the window; a negative value then raises after the whole map."""
        ends = (points[0], points[-1]) if type(points) is range and points else points
        if points and (min(ends) < 0 or max(ends) >= self.window):
            return [self(x) for x in points]
        values = list(map(self._fn, points))
        if values and min(values) < 0:
            x, v = next((x, v) for x, v in zip(points, values) if v < 0)
            raise ValueError(f"coloring value {v} at {x} is not a natural")
        return values

    @classmethod
    def from_table(cls, window: int, table: Dict[int, int]) -> "NatColoring":
        """Checks the window, then each value, then totality."""
        coloring = cls(window, dict(table).__getitem__)
        if not {*map(type, table.values())} <= {int}:  # else name the first non-int
            for x, v in table.items():
                _require_int(v, x)
        missing = [x for x in range(window) if x not in table]
        if missing:
            raise Incomplete(missing, kind="nat coloring")
        return coloring

    @classmethod
    def identity(cls, window: int) -> "NatColoring":
        return cls(window, fn=lambda x: x)

    @classmethod
    def constant(cls, window: int, v: int) -> "NatColoring":
        return cls(window, fn=lambda x: v)

    @classmethod
    def min_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=low_bit)

    @classmethod
    def max_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=high_bit)

    @classmethod
    def minmax_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=lambda x: cantor_pair(low_bit(x), high_bit(x)))


class PairColoring:
    """Total deterministic coloring of the unordered pairs over [0, n),
    given by one evaluator of (min, max)."""

    __slots__ = ("n", "_fn")

    def __init__(self, n: int, fn: Callable[[int, int], int]):
        if n < 2:
            raise ValueError("pair coloring needs n >= 2")
        self.n = n
        self._fn = fn

    def __call__(self, pair) -> int:
        i, j = pair
        if i == j:
            raise ValueError(f"degenerate pair ({i},{j})")
        if i > j:
            i, j = j, i
        if not (0 <= i and j < self.n):
            raise WindowExceeded(f"pair ({i},{j}) outside [0, {self.n})^2")
        value = self._fn(i, j)
        if value < 0:
            raise ValueError(f"coloring value {value} at ({i},{j}) is not a natural")
        return value

    def values(self, pairs) -> List[int]:
        """[phi(p) for p in pairs], as ``NatColoring.values`` gives it: one map
        when every pair of the sequence is (i, j) with 0 <= i < j < n."""
        if {*map(len, pairs)} == {2}:
            lows, highs = zip(*pairs)
            if min(lows) >= 0 and max(highs) < self.n and all(map(operator.lt, lows, highs)):
                values = list(map(self._fn, lows, highs))
                if min(values) < 0:
                    i, j, v = next(ijv for ijv in zip(lows, highs, values) if ijv[2] < 0)
                    raise ValueError(f"coloring value {v} at ({i},{j}) is not a natural")
                return values
        return [self(p) for p in pairs]

    @classmethod
    def from_table(cls, n: int, table: Dict[Tuple[int, int], int]) -> "PairColoring":
        """Checks n, then each pair and its value, then totality; pairs in
        either order, but not in both."""
        norm: Dict[Tuple[int, int], int] = {}
        coloring = cls(n, lambda i, j: norm[i, j])
        for (i, j), v in table.items():
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad pair ({i},{j}) for n={n}")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ValueError(f"pair ({i},{j}) given twice, in both orders")
            _require_int(v, f"({i},{j})")
            norm[key] = v
        missing = [p for p in itertools.combinations(range(n), 2) if p not in norm]
        if missing:
            raise Incomplete(missing, kind="pair coloring")
        return coloring

    @classmethod
    def constant(cls, n: int, v: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: v)

    @classmethod
    def minimum(cls, n: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: i)

    @classmethod
    def maximum(cls, n: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: j)

    @classmethod
    def pairing(cls, n: int) -> "PairColoring":
        return cls(n, fn=cantor_pair)


class BlockBasis(Elements):
    """Ascending elements whose binary supports sit in disjoint blocks.

    The block condition max alpha(c_i) < min alpha(c_{i+1}) makes every sum
    of distinct elements decompose bitwise without carries, so min/max of
    the expansion of a sum are read off its lowest and highest summand.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        xs = tuple(sorted(set(elements)))
        for c in xs:
            if c < 1:
                raise ValueError("block basis elements must be >= 1")
        for a, b in zip(xs, xs[1:]):
            if high_bit(a) >= low_bit(b):
                raise ValueError(
                    f"block condition fails: max alpha({a}) >= min alpha({b})"
                )
        self.elements = xs


def _case(values, keyed, where) -> Optional[CanonicalCase]:
    """The one case whose biconditional holds on every pair of points, or None.

    values[i] is the color of point i, and keyed lists (case, keys) with
    keys[i] the key of point i.  Equal values go with equal keys on every
    pair of points exactly when |values| = |keys| = |{(value, key)}|.
    """
    distinct = len(set(values))
    holding = [CanonicalCase.CONST] if distinct <= 1 else []
    for case, keys in keyed:
        if distinct == len(set(keys)) == len(set(zip(values, keys))):
            holding.append(case)
    if distinct == len(values):
        holding.append(CanonicalCase.INJ)
    if len(holding) > 1:
        raise InvariantViolated(f"exclusivity violated on {where}: {holding}")
    return holding[0] if holding else None


def pair_values(phi: PairColoring, points) -> List[int]:
    """phi on the pairs of the ascending points, in combinations order."""
    return phi.values(list(itertools.combinations(points, 2)))


def pair_case(points, values) -> Optional[CanonicalCase]:
    """The case of the pair values of the ascending points, given in
    combinations order as ``pair_values`` gives them."""
    pairs = list(itertools.combinations(points, 2))
    return _case(values, ((CanonicalCase.MIN, [i for i, _ in pairs]),
                          (CanonicalCase.MAX, [j for _, j in pairs])), points)


def fs_values(phi: NatColoring, sums) -> List[int]:
    """phi on the ascending finite sums, in order: the sums inside the window
    are queried before the first one outside it raises WindowExceeded."""
    inside = bisect_left(sums, phi.window)
    values = phi.values(sums[:inside])
    if inside < len(sums):
        raise WindowExceeded(
            f"finite sum {sums[inside]} outside coloring window [0, {phi.window})"
        )
    return values


def fs_case(basis, sums, values) -> Optional[CanonicalCase]:
    """The case of the values of phi on FS(basis): ``sums`` lists FS(basis)
    ascending and ``values`` phi on it, as ``fs_values`` gives them."""
    mins = [x & -x for x in sums]  # low_bit and high_bit, inline
    maxs = [1 << x.bit_length() >> 1 for x in sums]
    return _case(values, ((CanonicalCase.MIN, mins), (CanonicalCase.MAX, maxs),
                          (CanonicalCase.MINMAX, list(zip(mins, maxs)))), basis)


def _fs_classify(phi: NatColoring, basis) -> Optional[CanonicalCase]:
    sums = fs(NatSet(basis)).elements
    return fs_case(basis, sums, fs_values(phi, sums))


def least_subset(items, m, accept, chosen=(), start=0):
    """Lexicographically least m-subset of the ascending items that ``accept``
    takes at every prefix, as (subset, accept(subset)); None if there is none.

    ``accept`` is asked once for each prefix in search order; a prefix it
    rejects (falsy) is pruned with everything that extends it.
    """
    for idx in range(start, len(items) - (m - len(chosen)) + 1):
        cand = chosen + (items[idx],)
        verdict = accept(cand)
        if not verdict:
            continue
        if len(cand) == m:
            return cand, verdict
        found = least_subset(items, m, accept, cand, idx + 1)
        if found is not None:
            return found
    return None


def classify_pairs_on(phi: PairColoring, T) -> Optional[CanonicalCase]:
    """The unique exact pattern of phi on the pairs of T, or None.

    Patterns are mutually exclusive once |T| >= 3, so at most one
    biconditional can hold.
    """
    T = T if isinstance(T, NatSet) else NatSet(T)
    if len(T) < 3:
        raise TooSmall(f"|T| = {len(T)} < 3")
    return pair_case(T.elements, pair_values(phi, T.elements))


def find_canonical_subset(phi: PairColoring, m: int) -> Optional[Tuple[NatSet, CanonicalCase]]:
    """Lexicographically least T of size m that classifies, with its case.

    Backtracking over ascending vertices.  None when the window has no
    classified m-subset.
    """
    if m < 3:
        raise TooSmall("m must be >= 3")
    if m > phi.n:
        raise ValueError(f"m = {m} exceeds the ground size {phi.n}")
    # Patterns restrict to subsets, so a prefix of 3 or more points that
    # fits none is pruned.
    hit = least_subset(range(phi.n), m,
                       lambda points: len(points) < 3
                       or pair_case(points, pair_values(phi, points)))
    if hit is None:
        return None
    points, case = hit
    return NatSet._trusted(points), case


def classify_fs_on(phi: NatColoring, C: BlockBasis) -> Optional[CanonicalCase]:
    """The unique exact pattern of phi on FS(C), with min/max over the
    binary expansion, or None."""
    if len(C) < 3:
        raise TooSmall(f"|C| = {len(C)} < 3")
    return _fs_classify(phi, C.elements)


def find_block_basis(phi: NatColoring, pool: BlockBasis, m: int
                     ) -> Optional[Tuple[BlockBasis, CanonicalCase]]:
    """Least sub-basis of the pool of size m on which phi classifies.

    Bounded backtracking; returns None on exhaustion.  Finite pools give no
    guarantee of success, so the absence return is honest; an m above the
    pool size is an input error.
    """
    if m < 3:
        raise TooSmall("m must be >= 3")
    if m > len(pool):
        raise ValueError(f"m = {m} exceeds the pool size {len(pool)}")
    hit = least_subset(pool.elements, m,
                       lambda points: len(points) < 3 or _fs_classify(phi, points))
    if hit is None:
        return None
    points, case = hit
    return BlockBasis(points), case
