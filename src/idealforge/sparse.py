"""Finite-sums sets, sparse and very sparse bases, and decompositions.

A basis D is *sparse* when all nonempty subset sums are distinct, so every
x in FS(D) has a unique decomposition alpha(x).  It is *very sparse* when,
additionally, overlapping decompositions force the sum back out of FS(D).
Everything here is exact integer arithmetic over immutable values.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvariantViolated, NotInFS, NotSparse, PoolExhausted, TooLarge
from .ideals import Elements, NatSet, Record

FS_CAP = 24  # 2^|B| enumeration bound for fs / sparseness checks
VERY_SPARSE_CAP = 16  # quadratic scan over FS pairs of a non-doubling basis
# The strided cut of SparseBasis.sums_meeting shifts about p t list pointers
# per run the block cut would slice; a slice costs about as much as shifting
# 1,000-2,000 pointers (timed at k = 8..20 on a 2-vCPU Xeon, CPython 3.11.7).
STRIDED_MOVES_CAP = 1 << 10


def _as_elements(B) -> Tuple[int, ...]:
    if isinstance(B, Elements):
        return B.elements
    return NatSet(B).elements


def require_fs_cap(size: int) -> None:
    """Raise TooLarge if the sums of a basis of ``size`` elements are past
    the fs cap."""
    if size > FS_CAP:
        raise TooLarge(f"|B| = {size} exceeds the fs cap {FS_CAP}")


def fs(B) -> NatSet:
    """All sums of nonempty subsets of B, duplicates collapsed."""
    xs = _as_elements(B)
    require_fs_cap(len(xs))
    sums = {0}
    for b in xs:
        sums |= {s + b for s in sums}
    sums.discard(0)
    return NatSet._trusted(tuple(sorted(sums)))


def is_sparse(D) -> bool:
    """True iff all 2^|D| - 1 nonempty subset sums are pairwise distinct, as
    ``SparseBasis(D)`` checks: {0} is sparse, 0 being its one such sum.
    Like ``SparseBasis``, it accepts a super-increasing D of any size without
    enumerating and raises ``TooLarge`` only for other D above ``FS_CAP``."""
    xs = _as_elements(D)
    if _outgrows(xs, 1):
        return True
    if len(xs) > FS_CAP:
        raise TooLarge(f"|D| = {len(xs)} exceeds the sparseness cap {FS_CAP}")
    return len(set(_subset_sums(xs)[1:])) == (1 << len(xs)) - 1


def _outgrows(xs: Tuple[int, ...], factor: int) -> bool:
    """True iff xs is nonempty and each element exceeds factor times the sum
    of those before it (so the first exceeds 0): factor 1 makes xs
    super-increasing, factor 2 a *doubling* basis."""
    total = 0
    for x in xs:
        if x <= factor * total:
            return False
        total += x
    return bool(xs)


def _subset_sums(xs: Tuple[int, ...]) -> List[int]:
    """The sum of every subset of xs, indexed by mask (bit i means xs[i])."""
    by_mask = [0]
    for x in xs:
        by_mask += [v + x for v in by_mask]
    return by_mask


def _first_collision(xs: Tuple[int, ...]) -> Optional[str]:
    """Names the first two nonempty combos of xs, in combinations order,
    that share a sum."""
    seen: Dict[int, Tuple[int, ...]] = {}
    for r in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            s = sum(combo)
            if s in seen:
                return f"{s} = sum{seen[s]} = sum{combo}; decompositions collide"
            seen[s] = combo
    return None


class SparseBasis(Elements):
    """Validated ascending basis with unique subset-sum decompositions.

    A decomposition is held as an index mask: bit i set means
    ``elements[i]`` is a summand.  The sum table lists FS(D) in increasing
    order beside the mask of each sum.  Construction verifies sparseness.
    Super-increasing bases (each element larger than the sum of its
    predecessors) are accepted without the exponential enumeration and
    decompose by greedy descent until the table is first needed; every other
    basis builds the table up front from a full subset-sum sweep.  ``mask``
    and ``alpha`` read the table's sum -> mask dict when it exists, and
    ``alpha`` walks only the set bits of the mask.

    A super-increasing basis lists FS(D) ascending in mask order, so the sum
    with mask s sits at index s - 1 and ``_masks`` is ``range(1, 2^k)``.
    ``sums_meeting(m)`` then cuts out the sums avoiding m without testing
    every mask.  Those form aligned blocks of t masks, t the lowest bit of
    m, repeating with period p, twice its highest bit below 2^k.  The block
    cut copies the runs between the B blocks, one slice each.  The strided
    cut deletes each of the R avoiding residues mod p from a mask-indexed
    copy with one strided slice, and each delete shifts the rest of the
    list: R 2^k = B p t pointers.  So the strided cut is taken only when it
    needs no more slices (p t <= 2^k) and shifts at most
    ``STRIDED_MOVES_CAP`` pointers per run it spares (p t <= 1024).
    """

    __slots__ = ("elements", "_index", "_fs", "_masks")

    def __init__(self, elements: Iterable[int]):
        xs = _as_elements(elements)
        self.elements: Tuple[int, ...] = xs
        self._index: Optional[Dict[int, int]] = None  # sum -> mask, with the table
        self._fs: Optional[NatSet] = None
        self._masks: Sequence[int] = ()  # _masks[i] decomposes _fs.elements[i]
        if _outgrows(xs, 1):
            return
        if len(xs) > FS_CAP:
            raise TooLarge(
                f"|D| = {len(xs)} exceeds the validation cap {FS_CAP}"
            )
        by_mask = _subset_sums(xs)
        if len(set(by_mask[1:])) < len(by_mask) - 1:
            raise NotSparse(_first_collision(xs))
        rows = sorted(zip(by_mask, range(len(by_mask))))[1:]  # drop the empty subset
        self._index = dict(rows)
        if rows and rows[0][0] == 0:
            rows = rows[1:]  # the basis {0}: FS leaves out 0, as fs() does
        self._fs = NatSet._trusted(tuple([s for s, _ in rows]))
        self._masks = tuple([m for _, m in rows])

    def fs_set(self) -> NatSet:
        if self._fs is None:
            require_fs_cap(len(self.elements))
            # only a super-increasing basis gets here: its sums ascend by mask
            sums = _subset_sums(self.elements)[1:]
            self._masks = range(1, len(sums) + 1)
            self._index = dict(zip(sums, self._masks))
            self._fs = NatSet._trusted(tuple(sums))
        return self._fs

    def _find_mask(self, x: int) -> Optional[int]:
        if self._index is not None:
            return self._index.get(x)
        xs = self.elements
        m, rest = 0, x
        for i in range(len(xs) - 1, -1, -1):
            if xs[i] <= rest:
                m |= 1 << i
                rest -= xs[i]
        return m if rest == 0 and m else None

    def __contains__(self, x: int) -> bool:
        return self._find_mask(x) is not None

    def mask(self, x: int) -> int:
        """Index mask of alpha(x): bit i set iff elements[i] is a summand."""
        index = self._index
        m = index.get(x) if index is not None else self._find_mask(x)
        if m is None:
            raise NotInFS(f"{x} has no decomposition over {list(self.elements)}")
        return m

    def alpha(self, x: int) -> NatSet:
        """The unique subset of the basis summing to x, read off the set bits
        of its mask, lowest first."""
        index = self._index
        m = index.get(x) if index is not None else None
        if m is None:
            m = self.mask(x)  # descends, or raises NotInFS
        xs = self.elements
        out = []
        while m:
            low = m & -m
            out.append(xs[low.bit_length() - 1])
            m ^= low
        return NatSet._trusted(tuple(out))

    def sums_meeting(self, m: int) -> NatSet:
        """All x in FS(D) whose decomposition shares a summand with mask m."""
        points = self.fs_set().elements
        masks = self._masks
        if type(masks) is not range:
            return NatSet._trusted(tuple([x for x, mx in zip(points, masks) if mx & m]))
        # Mask order, cut by blocks or by residues: see the class docstring.
        full = len(masks)  # 2^k - 1, the full mask
        m &= full
        t = m & -m
        p = 1 << m.bit_length()
        if p * t > min(full + 1, STRIDED_MOVES_CAP):  # cut by blocks
            # the block starts are the subsets s of c, which s = (s - c) & c
            # visits in increasing order; the runs between are the sums
            c = full & ~m & -t
            out: List[int] = []
            lo = t - 1
            s = c & -c
            while s:
                out += points[lo : s - 1]
                lo = s + t - 1
                s = (s - c) & c
            out += points[lo:]
        else:
            # index the sums by mask, 0 a placeholder; deleting the highest
            # avoiding residue r first leaves each lower one at stride p - 1
            # (m = 0 has p = 1, so its one delete empties the list)
            out = [0, *points]
            c = (p - 1) & ~m
            r, width = c, p
            while r:
                del out[r::width]
                r, width = (r - 1) & c, width - 1
            del out[::width]
        return NatSet._trusted(tuple(out))


class VerySparseFlag(Record):
    __slots__ = ("verified", "counterexample")

    def __init__(self, verified: bool, counterexample: Optional[Tuple[int, int]] = None):
        self._fill(verified, counterexample)

    def __bool__(self) -> bool:
        return self.verified


def is_very_sparse(D) -> VerySparseFlag:
    """Check that overlapping decompositions push sums out of FS(D).

    A doubling basis D, with d1 > 0 and each d(i+1) > 2 (d1 + ... + di), of
    any size is checked by the doubling rule without a scan: each number has
    at most one representation sum e_i d_i with every e_i in {0, 1, 2} (at
    the top index t where two differ, d_t <= 2 (d1 + ... + d(t-1)) < d_t),
    so when alpha(x) meets alpha(y), x + y has a digit 2 and is not in FS(D).

    Any other D scans distinct pairs x < y of FS(D) in lexicographic order
    and reports the first pair with alpha(x) meeting alpha(y) but x + y back
    in FS(D).  A SparseBasis is scanned as it is; any other argument builds
    a fresh basis first.
    """
    xs = _as_elements(D)
    if _outgrows(xs, 2):
        return VerySparseFlag(True)
    if len(xs) > VERY_SPARSE_CAP:
        raise TooLarge(
            f"|D| = {len(xs)} exceeds the very-sparse cap {VERY_SPARSE_CAP}"
        )
    if not isinstance(D, SparseBasis):
        D = SparseBasis(NatSet._trusted(xs))  # NotSparse if not sparse
    return _pairwise_scan(D)


def _pairwise_scan(basis: SparseBasis) -> VerySparseFlag:
    """The very-sparse verdict of a basis, by the scan ``is_very_sparse`` names."""
    points = basis.fs_set().elements
    masks = basis._masks
    members = basis._index
    top = points[-1] if points else 0
    for i, (x, mx) in enumerate(zip(points, masks)):
        hi = bisect_right(points, top - x)  # x + y must stay within FS(D)
        if hi <= i + 1:
            break
        for y, my in zip(points[i + 1 : hi], masks[i + 1 : hi]):
            if mx & my and (x + y) in members:
                return VerySparseFlag(False, (x, y))
    return VerySparseFlag(True)


def very_sparse_subset(pool, k: int) -> SparseBasis:
    """Greedy very sparse sub-basis of size k.

    Growth rule: take the next pool element strictly larger than twice the
    running sum.  That makes a doubling basis, whose very-sparseness is
    checked by the doubling rule (see ``is_very_sparse``) for every k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = _as_elements(pool)
    if not xs:
        raise PoolExhausted("empty pool")
    chosen = []
    total = 0
    for x in xs:
        if x > 2 * total:
            chosen.append(x)
            total += x
            if len(chosen) == k:
                break
    if len(chosen) < k:
        raise PoolExhausted(
            f"greedy reached {len(chosen)} of {k}; next element must exceed {2 * total}"
        )
    basis = SparseBasis(NatSet._trusted(tuple(chosen)))
    flag = is_very_sparse(basis)
    if not flag.verified:
        raise InvariantViolated(
            f"growth rule produced a non-very-sparse basis {chosen}: {flag.counterexample}"
        )
    return basis


def fs_bases(A, k: int) -> Iterator[Tuple[int, ...]]:
    """Every basis B in A of size k with distinct subset sums and fs(B)
    inside A, as ascending tuples in lexicographic order.

    Backtracks over candidates in increasing order.  Each level carries only
    the candidates c with s + c in A for every sum s so far; choosing c
    narrows that list by the sums it adds, so no candidate is checked
    against an old sum twice, and a list already too short to complete the
    basis is not narrowed further.  At the top level c is the only sum, so
    no collision test runs.  Membership reads A's own member set.
    Singletons of FS(B) force B inside A.  k and A are checked at the call,
    not at the first ``next``.
    """
    A = _fs_search_ground(A, k)
    members = A._member_set()
    top = A.max() if A else 0

    def dfs(basis: Tuple[int, ...], sums: frozenset, cands: List[int]
            ) -> Iterator[Tuple[int, ...]]:
        if 0 in sums:
            return  # s + 0 = s: no further element keeps the sums distinct
        need = k - len(basis)
        total = sum(basis)
        for i, c in enumerate(cands):
            if need > 1:
                # the largest new sum, total + c, plus a partner d must stay
                # within A; c's partners lie in cands[i + 1 : hi], a range
                # that only shrinks as c grows
                hi = bisect_right(cands, top - total - c)
                if hi - i < need:
                    break
            if sums:
                fresh = [s + c for s in sums]
                fresh.append(c)
                if not sums.isdisjoint(fresh):
                    continue  # a subset-sum collision; basis would not be sparse
            else:
                fresh = (c,)  # the top level: c is the only sum
            if need == 1:
                yield basis + (c,)
                continue
            rest = cands[i + 1 : hi]
            for f in fresh:
                if len(rest) < need - 1:
                    break  # too short already; filtering keeps it short
                rest = [d for d in rest if f + d in members]
            if len(rest) >= need - 1:
                yield from dfs(basis + (c,), sums.union(fresh), rest)

    return dfs((), frozenset(), list(A.elements))


def _fs_search_ground(A, k: int) -> NatSet:
    """A as a NatSet, once k >= 1 and A's members are checked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return A if isinstance(A, NatSet) else NatSet(A)


def find_fs_subset(A: NatSet, k: int) -> Optional[NatSet]:
    """Least basis B in A with distinct subset sums and fs(B) inside A: the
    first of ``fs_bases``, or None.

    A size-k basis has 2^k - 1 distinct sums, all in A, so a set with fewer
    members returns None before any search: ``(|A| + 1) >> k == 0``, which
    builds no 2^k for a huge k.  k and A are checked first, as ``fs_bases``
    checks them."""
    A = _fs_search_ground(A, k)
    if (len(A) + 1) >> k == 0:
        return None
    hit = next(fs_bases(A, k), None)
    return NatSet._trusted(hit) if hit is not None else None


def conflict_set(D: SparseBasis, y: int) -> NatSet:
    """All x in FS(D) whose decomposition meets the decomposition of y."""
    return D.sums_meeting(D.mask(y))
