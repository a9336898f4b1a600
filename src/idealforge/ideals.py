"""Finite-scale membership oracles for Ramsey-type ideals.

The ideals themselves are defined through infinite witnesses, so at desk
scale every membership question becomes a positivity proxy: a set is
"positive" when it contains a witness of the configured size (an arithmetic
progression, a clique, a finite-sums basis, a reciprocal mass, a heavy
column).  All oracles here are pure functions of immutable values.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CannotAvoid, CarrierMismatch


class Record:
    """A record frozen once built: ``==``, hash and the
    ``Name(field=value, ...)`` repr are read from its fields, which
    ``_fill`` sets once and nothing may assign or delete after.  A record
    holding a list or a dict is unhashable, as a tuple holding one is.

    The fields are the slots of every class in the MRO, base classes first,
    named once per class in ``_field_names``; so a subclass that declares
    ``__slots__ = ()`` keeps its parent's fields."""

    __slots__ = ()
    _field_names: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(name for klass in reversed(cls.__mro__)
                                 for name in klass.__dict__.get("__slots__", ()))

    def _fill(self, *values) -> None:
        """Set the fields in order, once, while building."""
        for name, value in zip(self._field_names, values):
            object.__setattr__(self, name, value)

    def fields(self) -> dict:
        """Each field's value by name, in field order."""
        return {name: getattr(self, name) for name in self._field_names}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() == other.fields()

    def __hash__(self) -> int:
        return hash(tuple(self.fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy, deepcopy and pickle rebuild the record through ``_fill``."""
        return _refilled, (type(self), tuple(self.fields().values()))


def _refilled(cls, values: tuple) -> Record:
    """A ``cls`` record whose fields, in field order, are ``values``."""
    record = object.__new__(cls)
    record._fill(*values)
    return record


class Elements:
    """A value held as the ascending tuple ``elements``: iteration, length,
    ``==`` and hash are the tuple's, and its repr is ``Name([...])``."""

    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.elements)!r})"


class NatSet(Elements):
    """Immutable finite set of naturals, kept as an ascending tuple.

    Supports O(1) membership, iteration in increasing order, and the two
    shift operations ``A + n`` and ``A - n`` where the downward shift keeps
    only elements ``a >= n``.  A set the library built itself
    (``_trusted``) makes its member frozenset on the first membership or
    subset test, since most such sets are only ever iterated.
    """

    __slots__ = ("elements", "_members")

    def __init__(self, iterable: Iterable[int] = ()):
        members = frozenset(iterable)
        for x in members:
            # an exact int skips both isinstance calls: the common case
            if (type(x) is not int and (not isinstance(x, int) or isinstance(x, bool))) or x < 0:
                raise ValueError(f"natural number expected, got {x!r}")
        self.elements: Tuple[int, ...] = tuple(sorted(members))
        self._members = members

    @classmethod
    def _trusted(cls, elements: Tuple[int, ...]) -> "NatSet":
        """Wrap a strictly ascending tuple of naturals that the library built
        itself, skipping validation and sorting.  Outside input goes through
        ``NatSet(...)``."""
        self = object.__new__(cls)
        self.elements = elements
        self._members = None
        return self

    def _member_set(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.elements)
        return self._members

    def __contains__(self, x) -> bool:
        members = self._members
        if members is None:
            members = self._member_set()
        return x in members

    def __add__(self, n: int) -> "NatSet":
        if n < 0:
            raise ValueError("shift offset must be >= 0")
        return NatSet(a + n for a in self.elements)

    def __sub__(self, n: int) -> "NatSet":
        if n < 0:
            raise ValueError("shift offset must be >= 0")
        return NatSet(a - n for a in self.elements if a >= n)

    def min(self) -> int:
        return self.elements[0]

    def max(self) -> int:
        return self.elements[-1]

    def issubset(self, other: "NatSet") -> bool:
        return self._member_set() <= other._member_set()


class EdgeSet:
    """Set of unordered pairs over the vertices ``0 .. n-1``.

    Pairs are normalized to ``(i, j)`` with ``i < j``.  ``gamma()`` gives the
    ordered view ``(max, min)`` used when pair sets are read as subsets of
    ``{(z0, z1) : z0 > z1}``.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"degenerate edge ({i},{j})")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = frozenset(norm)

    @classmethod
    def complete(cls, n: int) -> "EdgeSet":
        return cls(n, itertools.combinations(range(n), 2))

    def gamma(self) -> frozenset:
        return frozenset((j, i) for (i, j) in self.edges)

    def __contains__(self, e) -> bool:
        i, j = e
        return (min(i, j), max(i, j)) in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(sorted(self.edges))

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeSet):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.n}, edges={sorted(self.edges)!r})"


class IdealId(Enum):
    VDW = "vdw"
    HINDMAN = "hindman"
    RAMSEY = "ramsey"
    SUMMABLE = "summable"
    FIN = "fin"
    FIN2 = "fin2"


class ScaleParams(Record):
    """Finite positivity proxies for the ideals.

    Defaults are the smallest scales at which every construction in the
    toolkit runs in seconds; they are pragmatic knobs, not canonical values.
    """

    __slots__ = ("ap_len", "clique_size", "fs_size", "tau", "window")

    def __init__(self, ap_len: int = 5, clique_size: int = 4, fs_size: int = 3,
                 tau: Fraction = Fraction(2), window: int = 256):
        try:
            # ASCII p, p/q or decimal: Fraction() alone also reads '٣' as 3,
            # '1_0' as 10, ' 3' as 3 and '1e3' as 1000
            if isinstance(tau, str) and not re.fullmatch(r"-?(?:[0-9]+/|[0-9]*\.)?[0-9]+", tau):
                raise ValueError
            rational = Fraction(tau)
        except ZeroDivisionError:
            raise ValueError(f"tau {tau!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"tau {tau!r} is not a rational p/q") from None
        if ap_len < 3:
            raise ValueError("ap_len must be >= 3")
        if clique_size < 3:
            raise ValueError("clique_size must be >= 3")
        if fs_size < 2:
            raise ValueError("fs_size must be >= 2")
        if rational <= 0:
            raise ValueError("tau must be > 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        self._fill(ap_len, clique_size, fs_size, rational, window)


def longest_ap(A: NatSet) -> int:
    """Length of the longest arithmetic progression inside A.

    0 for the empty set, 1 for singletons: the largest k for which
    ``progressions`` finds a k-term progression.  A (k+1)-term progression
    starts with a k-term one, so the scan for k+1 terms starts at the first
    k-term progression's start, xs[i].
    """
    if not isinstance(A, NatSet):
        raise CarrierMismatch(f"progression search takes a NatSet, got {type(A).__name__}")
    xs = A.elements
    top = xs[-1] if xs else -1
    k = min(len(xs), 2)  # any two members make a progression
    i = 0
    while True:
        hit = next(progressions(xs[i:], A.__contains__, k + 1, top), None)
        if hit is None:
            return k
        k += 1
        i = bisect_left(xs, hit[0], i)


def find_ap(A: NatSet, k: int) -> Optional[Tuple[int, int]]:
    """First (start, difference) of a k-term progression in A, or None.

    Tie-break: smallest start, then smallest difference.  For k = 1 the
    difference is reported as 1 by convention.  Only realized differences
    are scanned (the second term must itself lie in A), so O(|A|^2 k).
    """
    if not isinstance(A, NatSet):
        raise CarrierMismatch(f"progression search takes a NatSet, got {type(A).__name__}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(progressions(A.elements, A.__contains__, k, A.elements[-1] if A else -1), None)


def progressions(xs: Iterable[int], member: Callable[[int], bool], k: int, top: int
                 ) -> Iterator[Tuple[int, int]]:
    """Every (start, difference) of a k-term progression, k >= 1, with all
    terms at most ``top``, in the set whose members in strictly ascending
    order are xs and whose membership test is ``member``.  They come by
    start, then difference, so the first is ``find_ap``'s; for k = 1 each
    member comes with difference 1.

    xs is read only as far as the scan reaches, once: the members read so
    far are kept in ``got``.  The scan asks ``member`` only about points
    between two members, so a caller can test membership without building
    the set.
    """
    got: List[int] = []

    def pulled() -> Iterator[int]:
        for x in xs:
            got.append(x)
            yield x

    fresh = pulled()
    for i in itertools.count():
        a = got[i] if i < len(got) else next(fresh, None)
        if a is None or a + (k - 1) > top:
            return
        if k == 1:
            yield (a, 1)
            continue
        for b in itertools.chain(itertools.islice(got, i + 1, None), fresh):
            d = b - a
            if a + (k - 1) * d > top:
                break
            if all(member(a + j * d) for j in range(2, k)):
                yield (a, d)


def reciprocal_sum(A: NatSet) -> Fraction:
    """Exact value of sum over a in A of 1/(a+1): ``reciprocal_terms``, reduced once."""
    if not isinstance(A, NatSet):
        raise CarrierMismatch(f"reciprocal sum takes a NatSet, got {type(A).__name__}")
    return Fraction(*reciprocal_terms(A.elements))


RECIPROCAL_LEAF = 16  # terms per leaf of reciprocal_terms' product tree


def reciprocal_terms(xs: Sequence[int]) -> Tuple[int, int]:
    """(p, q), q > 0 and unreduced, with p/q the sum of 1/(x+1) over xs: a
    balanced product tree whose leaves, runs of at most RECIPROCAL_LEAF terms,
    are summed in a plain loop, and whose halves combine as (p s + r q, q s)."""

    def split(lo: int, hi: int) -> Tuple[int, int]:
        if hi - lo <= RECIPROCAL_LEAF:
            p, q = 0, 1
            for x in xs[lo:hi]:
                p, q = p * (x + 1) + q, q * (x + 1)
            return p, q
        mid = (lo + hi) // 2
        p, q = split(lo, mid)
        r, s = split(mid, hi)
        return p * s + r * q, q * s

    return split(0, len(xs))


def find_clique(G: EdgeSet, k: int) -> Optional[NatSet]:
    """Lexicographically least k-clique of G, or None.

    Only the vertices of degree at least k - 1 can be in a k-clique.  They
    are relabelled 0, 1, ... in ascending order, which keeps the least
    clique least, so the search costs what the edges hold, not G.n.
    Backtracking over ascending labels with bitset neighborhood
    intersection and a remaining-candidates prune.
    """
    if not isinstance(G, EdgeSet):
        raise CarrierMismatch(f"clique search takes an EdgeSet, got {type(G).__name__}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = G.n
    if n == 0 or k > n:
        return None
    if k == 1:
        return NatSet([0])
    degree = Counter(itertools.chain.from_iterable(G.edges))
    verts = sorted(v for v, d in degree.items() if d >= k - 1)
    label = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for (i, j) in G.edges:
        if i in label and j in label:
            adj[label[i]] |= 1 << label[j]
            adj[label[j]] |= 1 << label[i]

    def dfs(chosen: list, cand: int) -> Optional[Tuple[int, ...]]:
        if len(chosen) == k:
            return tuple(chosen)
        need = k - len(chosen)
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m &= m - 1
            above = cand & ~((1 << (v + 1)) - 1)
            if 1 + (adj[v] & above).bit_count() < need:
                continue
            found = dfs(chosen + [v], adj[v] & above)
            if found is not None:
                return found
        return None

    hit = dfs([], (1 << len(verts)) - 1)
    return NatSet._trusted(tuple([verts[v] for v in hit])) if hit is not None else None


def heavy_columns(pairs: Iterable[Tuple[int, int]], t: int) -> NatSet:
    """Columns n with at least t members k among the given (n, k) pairs."""
    if isinstance(pairs, (NatSet, EdgeSet)):
        raise CarrierMismatch(f"heavy columns take (n, k) pairs, got {type(pairs).__name__}")
    if t < 1:
        raise ValueError("threshold must be >= 1")
    counts: Counter = Counter()
    for p in set(map(tuple, pairs)):
        n, k = p
        if n < 0 or k < 0:
            raise ValueError(f"pair {p!r} has a negative coordinate")
        counts[n] += 1
    return NatSet(n for n, c in counts.items() if c >= t)


def is_nat_pair(p) -> bool:
    """Whether p is a Fin x Fin point: a tuple or list of two naturals."""
    return isinstance(p, (tuple, list)) and len(p) == 2 and all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in p)


def _carrier(A, ideal: IdealId, params: ScaleParams):
    """A as the carrier the ideal judges, or CarrierMismatch.

    RAMSEY takes an EdgeSet; FIN2 takes a set, frozenset, list or tuple of
    (n, k) pairs of naturals, returned as a frozenset of tuples (an
    EdgeSet's view as pairs is ``G.gamma()``); the others take a NatSet
    inside the window.
    """
    if not isinstance(ideal, IdealId):
        raise CarrierMismatch(f"unknown ideal {ideal!r}")
    if ideal is IdealId.RAMSEY:
        kind, ok = "an EdgeSet", isinstance(A, EdgeSet)
    elif ideal is IdealId.FIN2:
        kind, ok = "a pair collection", isinstance(A, (set, frozenset, list, tuple))
    else:
        kind, ok = "a NatSet", isinstance(A, NatSet)
    if not ok:
        raise CarrierMismatch(f"{ideal.value} takes {kind}, got {type(A).__name__}")
    if ideal is IdealId.FIN2:
        for p in A:
            if not is_nat_pair(p):
                raise CarrierMismatch(f"fin2 takes {kind}, got member {p!r}")
        return frozenset(map(tuple, A))
    if isinstance(A, NatSet) and A and A.max() >= params.window:
        raise ValueError(
            f"set reaches {A.max()} but the window is {params.window}; raise --window"
        )
    return A


def is_positive(A, ideal: IdealId, params: ScaleParams = ScaleParams()) -> bool:
    """Finite positivity of A for the given ideal at the given scale.

    VDW: contains an ap_len-term progression.  HINDMAN: contains fs(B) for a
    distinct-sums basis of size fs_size.  RAMSEY: contains a clique_size
    clique.  SUMMABLE: reciprocal mass at least tau.  FIN: at least half the
    window.  FIN2: some column with fs_size members.
    """
    A = _carrier(A, ideal, params)
    if ideal is IdealId.VDW:
        top = A.elements[-1] if A else -1
        return next(progressions(A.elements, A.__contains__, params.ap_len, top), None) is not None
    if ideal is IdealId.HINDMAN:
        from .sparse import find_fs_subset

        return find_fs_subset(A, params.fs_size) is not None
    if ideal is IdealId.SUMMABLE:
        return reciprocal_sum(A) >= params.tau
    if ideal is IdealId.FIN:
        return 2 * len(A) >= params.window
    if ideal is IdealId.RAMSEY:
        return find_clique(A, params.clique_size) is not None
    return bool(heavy_columns(A, params.fs_size))


def _greedy_ap_free(A: NatSet, target: int) -> NatSet:
    chosen: list = []
    members = set()
    for a in A:
        ok = True
        for y in chosen:
            x = 2 * y - a  # a would close the 3-term progression x, y, a
            if x in members and x != y:
                ok = False
                break
        if ok:
            chosen.append(a)
            members.add(a)
            if len(chosen) == target:
                break
    return NatSet(chosen)


def _greedy_sum_free(A: NatSet, target: int) -> NatSet:
    chosen: list = []
    sums = set()
    for a in A:
        if a == 0 or a in sums:
            continue  # 0 + x = x would sit inside any set containing 0
        for u in chosen:
            sums.add(u + a)
        sums.add(a + a)
        chosen.append(a)
        if len(chosen) == target:
            break
    return NatSet(chosen)


def _greedy_matching(G: EdgeSet, target: int) -> EdgeSet:
    used = set()
    picked = []
    for (i, j) in sorted(G.edges):
        if i in used or j in used:
            continue
        picked.append((i, j))
        used.update((i, j))
        if len(picked) == target:
            break
    return EdgeSet(G.n, picked)


def tall_witness(A, ideal: IdealId, params: ScaleParams, target: int):
    """Subset of A of size >= target that is NOT positive for the ideal.

    The finite content of tallness: inside any large enough set sits a large
    non-positive one.  Raises CannotAvoid when the strategy cannot reach the
    requested size (the caller should lower target).
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    A = _carrier(A, ideal, params)
    if len(A) < target:
        raise CannotAvoid(f"input has {len(A)} elements, target is {target}")

    if ideal is IdealId.VDW:
        B = _greedy_ap_free(A, target)
    elif ideal is IdealId.HINDMAN:
        B = _greedy_sum_free(A, target)
    elif ideal is IdealId.SUMMABLE:
        B = NatSet(A.elements[-target:]) if target else NatSet()
    elif ideal is IdealId.FIN:
        B = NatSet(A.elements[:target])
    elif ideal is IdealId.RAMSEY:
        B = _greedy_matching(A, target)
    else:
        per_col: Counter = Counter()
        picked = []
        for (n, k) in sorted(A):
            if per_col[n] < params.fs_size - 1:
                per_col[n] += 1
                picked.append((n, k))
                if len(picked) == target:
                    break
        B = frozenset(picked)

    if len(B) < target:
        raise CannotAvoid(
            f"{ideal.value} strategy reached only {len(B)} of {target} elements"
        )
    if is_positive(B, ideal, params):
        raise CannotAvoid(
            f"{ideal.value} witness of size {target} is still positive"
        )
    return B
