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
from enum import Enum
from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import Incomplete, InvariantViolated, TooSmall, WindowExceeded
from .ideals import NatSet
from .sparse import fs


class CanonicalCase(Enum):
    CONST = "const"
    MIN = "min"
    MAX = "max"
    MINMAX = "minmax"
    INJ = "inj"


PAIR_CASES = (CanonicalCase.CONST, CanonicalCase.MIN, CanonicalCase.MAX, CanonicalCase.INJ)
FS_CASES = (
    CanonicalCase.CONST,
    CanonicalCase.MIN,
    CanonicalCase.MAX,
    CanonicalCase.MINMAX,
    CanonicalCase.INJ,
)


def cantor_pair(a: int, b: int) -> int:
    """Standard injective encoding of an ordered pair into a natural."""
    return (a + b) * (a + b + 1) // 2 + b


def low_bit(x: int) -> int:
    """Least power of two in the binary expansion (0 for x = 0)."""
    return x & -x


def high_bit(x: int) -> int:
    """Greatest power of two in the binary expansion (0 for x = 0)."""
    return 0 if x == 0 else 1 << (x.bit_length() - 1)


class NatColoring:
    """Total deterministic coloring of [0, window).

    Backed either by a table (totality validated) or by an evaluator
    function.  Querying outside the window raises WindowExceeded.
    """

    __slots__ = ("window", "name", "_fn", "_table")

    def __init__(self, window: int, fn: Optional[Callable[[int], int]] = None,
                 table: Optional[Dict[int, int]] = None, name: str = "custom"):
        if window <= 0:
            raise ValueError("window must be > 0")
        if (fn is None) == (table is None):
            raise ValueError("exactly one of fn/table required")
        if table is not None:
            missing = [x for x in range(window) if x not in table]
            if missing:
                raise Incomplete(missing, kind="nat coloring")
        self.window = window
        self.name = name
        self._fn = fn
        self._table = dict(table) if table is not None else None

    def __call__(self, x: int) -> int:
        if not (0 <= x < self.window):
            raise WindowExceeded(f"{x} outside coloring window [0, {self.window})")
        value = self._table[x] if self._table is not None else self._fn(x)
        if value < 0:
            raise ValueError(f"coloring value {value} at {x} is not a natural")
        return value

    @classmethod
    def from_table(cls, window: int, table: Dict[int, int]) -> "NatColoring":
        return cls(window, table=table, name="table")

    @classmethod
    def identity(cls, window: int) -> "NatColoring":
        return cls(window, fn=lambda x: x, name="identity")

    @classmethod
    def constant(cls, window: int, v: int) -> "NatColoring":
        return cls(window, fn=lambda x: v, name=f"const:{v}")

    @classmethod
    def min_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=low_bit, name="min-alpha")

    @classmethod
    def max_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=high_bit, name="max-alpha")

    @classmethod
    def minmax_alpha(cls, window: int) -> "NatColoring":
        return cls(window, fn=lambda x: cantor_pair(low_bit(x), high_bit(x)),
                   name="minmax-alpha")


class PairColoring:
    """Total deterministic coloring of the unordered pairs over [0, n)."""

    __slots__ = ("n", "name", "_fn", "_table")

    def __init__(self, n: int, fn: Optional[Callable[[int, int], int]] = None,
                 table: Optional[Dict[Tuple[int, int], int]] = None,
                 name: str = "custom"):
        if n < 2:
            raise ValueError("pair coloring needs n >= 2")
        if (fn is None) == (table is None):
            raise ValueError("exactly one of fn/table required")
        if table is not None:
            norm = {}
            for (i, j), v in table.items():
                if i == j or not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"bad pair ({i},{j}) for n={n}")
                norm[(min(i, j), max(i, j))] = v
            missing = [p for p in itertools.combinations(range(n), 2) if p not in norm]
            if missing:
                raise Incomplete(missing, kind="pair coloring")
            table = norm
        self.n = n
        self.name = name
        self._fn = fn
        self._table = table

    def __call__(self, pair) -> int:
        i, j = pair
        if i == j:
            raise ValueError(f"degenerate pair ({i},{j})")
        i, j = min(i, j), max(i, j)
        if not (0 <= i and j < self.n):
            raise WindowExceeded(f"pair ({i},{j}) outside [0, {self.n})^2")
        value = self._table[(i, j)] if self._table is not None else self._fn(i, j)
        if value < 0:
            raise ValueError(f"coloring value {value} at ({i},{j}) is not a natural")
        return value

    @classmethod
    def from_table(cls, n: int, table: Dict[Tuple[int, int], int]) -> "PairColoring":
        return cls(n, table=table, name="table")

    @classmethod
    def constant(cls, n: int, v: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: v, name=f"const:{v}")

    @classmethod
    def minimum(cls, n: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: i, name="min")

    @classmethod
    def maximum(cls, n: int) -> "PairColoring":
        return cls(n, fn=lambda i, j: j, name="max")

    @classmethod
    def pairing(cls, n: int) -> "PairColoring":
        return cls(n, fn=cantor_pair, name="pairing")


class BlockBasis:
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

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if isinstance(other, BlockBasis):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"BlockBasis({list(self.elements)!r})"

    def prefix(self, m: int) -> "BlockBasis":
        return BlockBasis(self.elements[:m])

    def fs_set(self) -> NatSet:
        return fs(NatSet(self.elements))


def _pair_case_flags(pairs, values) -> Dict[CanonicalCase, bool]:
    flags = {c: True for c in PAIR_CASES}
    for a, b in itertools.combinations(range(len(pairs)), 2):
        x, y = pairs[a], pairs[b]
        eq = values[a] == values[b]
        if flags[CanonicalCase.CONST] and not eq:
            flags[CanonicalCase.CONST] = False
        if flags[CanonicalCase.MIN] and eq != (x[0] == y[0]):
            flags[CanonicalCase.MIN] = False
        if flags[CanonicalCase.MAX] and eq != (x[1] == y[1]):
            flags[CanonicalCase.MAX] = False
        if flags[CanonicalCase.INJ] and eq:
            flags[CanonicalCase.INJ] = False
        if not any(flags.values()):
            break
    return flags


def classify_pairs_on(phi: PairColoring, T) -> Optional[CanonicalCase]:
    """The unique exact pattern of phi on the pairs of T, or None.

    Patterns are mutually exclusive once |T| >= 3, so at most one
    biconditional can survive the full scan.
    """
    T = T if isinstance(T, NatSet) else NatSet(T)
    if len(T) < 3:
        raise TooSmall(f"|T| = {len(T)} < 3")
    pairs = list(itertools.combinations(T.elements, 2))
    values = [phi(p) for p in pairs]
    flags = _pair_case_flags(pairs, values)
    holding = [c for c in PAIR_CASES if flags[c]]
    if len(holding) > 1:
        raise InvariantViolated(f"exclusivity violated on {T}: {holding}")
    return holding[0] if holding else None


def find_canonical_subset(phi: PairColoring, m: int) -> Optional[Tuple[NatSet, CanonicalCase]]:
    """Lexicographically least T of size m that classifies, with its case.

    Backtracking over ascending vertices; a partial set of size >= 3 that
    fits no pattern cannot be extended (patterns restrict to subsets), so
    it is pruned.  None when the window has no classified m-subset.
    """
    if m < 3:
        raise TooSmall("m must be >= 3")
    if m > phi.n:
        raise ValueError(f"m = {m} exceeds the ground size {phi.n}")

    def survivors(points) -> list:
        pairs = list(itertools.combinations(points, 2))
        values = [phi(p) for p in pairs]
        flags = _pair_case_flags(pairs, values)
        return [c for c in PAIR_CASES if flags[c]]

    def dfs(points: list, nxt: int) -> Optional[Tuple[Tuple[int, ...], CanonicalCase]]:
        if len(points) == m:
            alive = survivors(points)
            if len(alive) != 1:
                raise InvariantViolated(f"expected one pair case on {points}, got {alive}")
            return tuple(points), alive[0]
        for v in range(nxt, phi.n):
            if phi.n - v < m - len(points):
                break
            cand = points + [v]
            if len(cand) >= 3 and not survivors(cand):
                continue
            found = dfs(cand, v + 1)
            if found is not None:
                return found
        return None

    hit = dfs([], 0)
    if hit is None:
        return None
    points, case = hit
    return NatSet(points), case


def _fs_case_flags(points, values, alpha_min, alpha_max) -> Dict[CanonicalCase, bool]:
    flags = {c: True for c in FS_CASES}
    for a, b in itertools.combinations(range(len(points)), 2):
        eq = values[a] == values[b]
        same_min = alpha_min[a] == alpha_min[b]
        same_max = alpha_max[a] == alpha_max[b]
        if flags[CanonicalCase.CONST] and not eq:
            flags[CanonicalCase.CONST] = False
        if flags[CanonicalCase.MIN] and eq != same_min:
            flags[CanonicalCase.MIN] = False
        if flags[CanonicalCase.MAX] and eq != same_max:
            flags[CanonicalCase.MAX] = False
        if flags[CanonicalCase.MINMAX] and eq != (same_min and same_max):
            flags[CanonicalCase.MINMAX] = False
        if flags[CanonicalCase.INJ] and eq:
            flags[CanonicalCase.INJ] = False
        if not any(flags.values()):
            break
    return flags


def _classify_fs_points(phi: NatColoring, points) -> list:
    values = []
    for x in points:
        if x >= phi.window:
            raise WindowExceeded(
                f"finite sum {x} outside coloring window [0, {phi.window})"
            )
        values.append(phi(x))
    alpha_min = [low_bit(x) for x in points]
    alpha_max = [high_bit(x) for x in points]
    flags = _fs_case_flags(points, values, alpha_min, alpha_max)
    return [c for c in FS_CASES if flags[c]]


def classify_fs_on(phi: NatColoring, C: BlockBasis) -> Optional[CanonicalCase]:
    """The unique exact pattern of phi on FS(C), with min/max over the
    binary expansion, or None."""
    if len(C) < 3:
        raise TooSmall(f"|C| = {len(C)} < 3")
    points = C.fs_set().elements
    holding = _classify_fs_points(phi, points)
    if len(holding) > 1:
        raise InvariantViolated(f"exclusivity violated on {C}: {holding}")
    return holding[0] if holding else None


def find_block_basis(phi: NatColoring, pool: BlockBasis, m: int
                     ) -> Optional[Tuple[BlockBasis, CanonicalCase]]:
    """Least sub-basis of the pool of size m on which phi classifies.

    Bounded backtracking; returns None on exhaustion.  Finite pools give no
    guarantee of success, so the absence return is honest.
    """
    if m < 3:
        raise TooSmall("m must be >= 3")
    xs = pool.elements
    if m > len(xs):
        return None

    def dfs(points: list, nxt: int):
        if len(points) == m:
            alive = _classify_fs_points(phi, fs(NatSet(points)).elements)
            if len(alive) > 1:
                raise InvariantViolated(f"exclusivity violated on {points}: {alive}")
            return (tuple(points), alive[0]) if alive else None
        for idx in range(nxt, len(xs)):
            if len(xs) - idx < m - len(points):
                break
            cand = points + [xs[idx]]
            if len(cand) >= 3 and not _classify_fs_points(phi, fs(NatSet(cand)).elements):
                continue
            found = dfs(cand, idx + 1)
            if found is not None:
                return found
        return None

    hit = dfs([], 0)
    if hit is None:
        return None
    points, case = hit
    return BlockBasis(points), case
