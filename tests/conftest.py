"""Shared brute-force oracles and generators for the test suite.

The oracles deliberately use different algorithms from the library (dynamic
programming, full enumeration, counters) so cross-checks are meaningful.
"""

import functools
import itertools
import os
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional

import pytest

import idealforge
from idealforge import CanonicalCase, EdgeSet, NatSet, PairColoring, SearchBudget, \
    is_positive
from idealforge.canonical import high_bit, low_bit
from idealforge.ideals import Record
from idealforge.errors import CaseMismatch, SearchExhausted
from idealforge.report import StepChecks, rational_str

PAIR_CASES = (CanonicalCase.CONST, CanonicalCase.MIN, CanonicalCase.MAX,
              CanonicalCase.INJ)
FS_CASES = (CanonicalCase.CONST, CanonicalCase.MIN, CanonicalCase.MAX,
            CanonicalCase.MINMAX, CanonicalCase.INJ)


def dp_longest_ap(xs) -> int:
    """Longest progression via the classic ending-pair DP."""
    xs = sorted(set(xs))
    n = len(xs)
    if n == 0:
        return 0
    if n == 1:
        return 1
    idx = {x: i for i, x in enumerate(xs)}
    best = 2
    L = [[2] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            i = idx.get(2 * xs[j] - xs[k])
            if i is not None and i < j:
                L[j][k] = L[i][j] + 1
            best = max(best, L[j][k])
    return best


def least_ap(members, k: int, top: int):
    """Least (start, difference), by start and then difference, of a k-term
    progression inside members whose terms are all at most top, or None.

    For each start a it keeps the set of differences d that put the terms
    a + d, ..., a + j d in the set, shrinking it term by term, rather than
    pairing a with later members as the library's scan does.
    """
    S = {m for m in members if m <= top}
    for a in sorted(S):
        ds = {1} if k == 1 else {s - a for s in S if s > a}
        for j in range(2, k):
            ds = {d for d in ds if a + j * d in S}
        if ds:
            return (a, min(ds))
    return None


def every_ap(members, k: int, top: int):
    """Every (start, difference) of a k-term progression inside members whose
    terms are all at most top, by start and then difference.

    For each start it tries every difference that keeps the last term at
    most top, rather than pairing the start with later members as the
    library's scan does; for k = 1 each member's difference is 1.
    """
    S = {m for m in members if m <= top}
    for a in sorted(S):
        steps = [1] if k == 1 else range(1, (top - a) // (k - 1) + 1)
        for d in steps:
            if all(a + j * d in S for j in range(k)):
                yield (a, d)


def naive_clique(G: EdgeSet, k: int):
    """First k-clique by full enumeration of vertex combinations."""
    if k == 1:
        return (0,) if G.n else None
    for verts in itertools.combinations(range(G.n), k):
        if all((i, j) in G for i, j in itertools.combinations(verts, 2)):
            return verts
    return None


def dense_clique(G: EdgeSet, k: int):
    """Least k-clique by backtracking over all G.n vertices with n-bit
    neighbourhood masks: the dense reference for ``find_clique``, which
    searches only the vertices of degree at least k - 1."""
    if k > G.n:
        return None
    if k == 1:
        return (0,)
    adj = [0] * G.n
    for (i, j) in G.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def dfs(chosen, cand):
        if len(chosen) == k:
            return tuple(chosen)
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            above = cand >> (v + 1) << (v + 1)
            if 1 + (adj[v] & above).bit_count() >= k - len(chosen):
                found = dfs(chosen + [v], adj[v] & above)
                if found is not None:
                    return found
        return None

    return dfs([], (1 << G.n) - 1)


def subset_sum_counts(elements) -> Counter:
    """How many nonempty subsets reach each sum; 1 everywhere iff sparse."""
    counts: Counter = Counter()
    xs = list(elements)
    for r in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            counts[sum(combo)] += 1
    return counts


def enumerated_decompositions(elements) -> dict:
    """Every nonempty subset sum of the elements mapped to the set of its
    summands, by combinations; None when two subsets share a sum."""
    xs = sorted(set(elements))
    out = {}
    for r in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            s = sum(combo)
            if s in out:
                return None
            out[s] = frozenset(combo)
    return out


def first_collision(elements):
    """(s, combo1, combo2) for the first pair of nonempty combos, in
    combinations order, that share the sum s; None for a sparse basis."""
    xs = sorted(set(elements))
    seen = {}
    for r in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            s = sum(combo)
            if s in seen:
                return s, seen[s], combo
            seen[s] = combo
    return None


@functools.lru_cache(maxsize=4)
def _decompositions_of(xs: tuple) -> dict:
    """``enumerated_decompositions`` of a tuple, kept for repeated queries."""
    return enumerated_decompositions(xs)


def naive_conflict_set(elements, y) -> list:
    """Sorted nonzero sums whose decomposition shares a summand with y's."""
    decomp = _decompositions_of(tuple(elements))
    return sorted(x for x, parts in decomp.items()
                  if x != 0 and parts & decomp[y])


def plain_subset_sums(values) -> set:
    """The sums of every subset of the distinct values, 0 for the empty one."""
    vs = sorted(set(values))
    return {sum(c) for r in range(len(vs) + 1) for c in itertools.combinations(vs, r)}


def naive_rnh_case2_items(ns, js, ks, Fs, xs, bases, table) -> dict:
    """Items (d1), (d3b), (e1)-(e3), (f), (g1) and (g2) of a case-2 bundle as
    (passed, detail of the first failure), re-derived from the definitions.

    ``bases`` lists the elements of X, D_0, ..., D_(depth-1), each a sparse
    basis of positive numbers; ``table`` is the map f as a dict.  FS of a
    basis is the key set of ``enumerated_decompositions``, conflict sets come
    from ``naive_conflict_set``, the sums of points are plain subset sums, and
    the banned indices of step i are F_0 | ... | F_i, formed afresh."""
    depth = len(xs)
    sums = [set(_decompositions_of(tuple(sorted(e)))) for e in bases]  # FS, by index
    out = {}

    def fail(name, detail):
        if name not in out:
            out[name] = (False, detail)

    def banned(i):
        return set().union(*[set(F) for F in Fs[: i + 1]])

    for i in range(depth):
        valid_k = 0 <= ks[i] < depth
        if js[i] == 1:
            if not any(ks[i] == u and js[u] == 0 and u not in banned(i - 1)
                       for u in range(i)):
                fail("(d1)", f"k_{i} = {ks[i]} not an eligible branch-0 index")
            middle = [xs[r] for r in range(ks[i] + 1, i) if r not in banned(i - 1)]
            if not (valid_k and any(xs[ks[i]] + mid + d == xs[i]
                                    for mid in plain_subset_sums(middle) for d in sums[i])):
                fail("(d3b)", f"x_{i} not reachable from x_k plus middle sums "
                              f"plus FS(D_{i-1})")
        allowed = [t for t in range(i) if t not in banned(i)]
        for r in range(1, len(allowed) + 1):
            for S in itertools.combinations(allowed, r):
                x = sum(xs[t] for t in S)
                target = (ns[i], ns[S[0]])
                if any(table.get(x + xs[i] + d) == target for d in sums[i + 1]):
                    fail("(e1)", f"x + x_{i} + FS(D_{i}) hits {target}")
                if any(table.get(x + d) == target for d in sums[i + 1]):
                    fail("(e2)", f"x + FS(D_{i}) hits {target}")
                if table.get(x + xs[i]) == target:
                    fail("(e3)", f"x + x_{i} maps to {target}")
        for t in range(-1, i):
            for u in range(i + 1):
                if xs[u] in sums[t + 1]:
                    conflicts = set(naive_conflict_set(tuple(sorted(bases[t + 1])), xs[u]))
                    if conflicts & sums[i + 1]:
                        fail("(f)", f"FS(D_{i}) meets the conflict set of x_{u} over D_{t}")
        allowed_incl = [t for t in range(i + 1) if t not in banned(i)]
        if not plain_subset_sums(xs[t] for t in allowed_incl) - {0} <= sums[0]:
            fail("(g1)", f"allowed sums up to {i} escape FS(X)")
        for r in range(2, len(allowed_incl) + 1):
            for S in itertools.combinations(allowed_incl, r):
                if sum(xs[t] for t in S[1:]) not in sums[S[0] + 1]:
                    fail("(g2)", f"sum over {S} not in x_{S[0]} + FS(D_{S[0]})")
    names = ("(d1)", "(d3b)", "(e1)", "(e2)", "(e3)", "(f)", "(g1)", "(g2)")
    return {name: out.get(name, (True, "")) for name in names}


def naive_very_sparse_counterexample(elements):
    """First pair x < y of nonzero sums, in lexicographic order, whose
    decompositions overlap while x + y is again a subset sum; None if none."""
    decomp = enumerated_decompositions(elements)
    points = sorted(x for x in decomp if x != 0)
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            if decomp[x] & decomp[y] and (x + y) in decomp:
                return (x, y)
    return None


def every_fs_subset(A, k):
    """Every k-subset of A, in lexicographic order, whose nonempty subset sums
    are distinct and all inside A, by enumerating every k-subset."""
    members = set(A)
    for B in itertools.combinations(sorted(members), k):
        sums = [sum(c) for r in range(1, k + 1)
                for c in itertools.combinations(B, r)]
        if len(set(sums)) == len(sums) and all(s in members for s in sums):
            yield B


def naive_fs_subset(A, k):
    """Lexicographically least k-subset of A whose nonempty subset sums are
    distinct and all inside A: the first of ``every_fs_subset``."""
    return next(every_fs_subset(A, k), None)


def assert_canonical_natset(result: NatSet) -> None:
    """A NatSet built without validation must equal one built with it."""
    fresh = NatSet(list(result.elements))
    assert isinstance(result.elements, tuple)
    assert result == fresh and result.elements == fresh.elements
    assert all(x in result for x in fresh)
    assert result.issubset(fresh) and fresh.issubset(result)


def sequential_reciprocal_sum(elements) -> Fraction:
    """Sum of 1/(a+1) over elements, one reduced Fraction addition per term."""
    total = Fraction(0)
    for a in elements:
        total += Fraction(1, a + 1)
    return total


def harmonic(n: int) -> Fraction:
    return sequential_reciprocal_sum(range(n))


def _biconditional_flags(values, same) -> dict:
    """For each case, whether values[a] == values[b] iff same[case](a, b) on
    every two points, by scanning all of them."""
    flags = {case: True for case in same}
    for a, b in itertools.combinations(range(len(values)), 2):
        eq = values[a] == values[b]
        for case, test in same.items():
            if flags[case] and eq != test(a, b):
                flags[case] = False
    return flags


def pair_flags_oracle(pairs, values) -> dict:
    """Direct biconditional table for the pair cases."""
    return _biconditional_flags(values, {
        CanonicalCase.CONST: lambda a, b: True,
        CanonicalCase.MIN: lambda a, b: pairs[a][0] == pairs[b][0],
        CanonicalCase.MAX: lambda a, b: pairs[a][1] == pairs[b][1],
        CanonicalCase.INJ: lambda a, b: False,
    })


def fs_flags_oracle(points, values) -> dict:
    """Direct biconditional table for the finite-sums cases."""
    mins = [low_bit(x) for x in points]
    maxs = [high_bit(x) for x in points]
    return _biconditional_flags(values, {
        CanonicalCase.CONST: lambda a, b: True,
        CanonicalCase.MIN: lambda a, b: mins[a] == mins[b],
        CanonicalCase.MAX: lambda a, b: maxs[a] == maxs[b],
        CanonicalCase.MINMAX: lambda a, b: (mins[a], maxs[a]) == (mins[b], maxs[b]),
        CanonicalCase.INJ: lambda a, b: False,
    })


def naive_find_canonical(phi, m):
    """Full-enumeration oracle for the least classified pair ground set."""
    for T in itertools.combinations(range(phi.n), m):
        pairs = list(itertools.combinations(T, 2))
        values = [phi(p) for p in pairs]
        flags = pair_flags_oracle(pairs, values)
        alive = [c for c in PAIR_CASES if flags[c]]
        if alive:
            assert len(alive) == 1
            return NatSet(T), alive[0]
    return None


def naive_find_block_basis(phi, pool, m):
    """Full-enumeration oracle for the least classified sub-basis of the pool;
    phi's window must hold every finite sum of the pool."""
    from idealforge.canonical import BlockBasis

    for C in itertools.combinations(pool.elements, m):
        points = sorted(subset_sum_counts(C))
        flags = fs_flags_oracle(points, [phi(x) for x in points])
        alive = [c for c in FS_CASES if flags[c]]
        if alive:
            assert len(alive) == 1
            return BlockBasis(C), alive[0]
    return None



def fs_case_oracle(phi, elements):
    """The case of phi on the nonzero subset sums of the elements, by the
    pairwise scan; None when no case fits."""
    points = sorted(subset_sum_counts(elements))
    flags = fs_flags_oracle(points, [phi(x) for x in points])
    alive = [c for c in FS_CASES if flags[c]]
    assert len(alive) <= 1
    return alive[0] if alive else None


def _nat_step_json(index, chosen, threshold, relation, checked, note):
    """One transcript step in JSON form; checked lists (x, phi(x)) pairs."""
    return {
        "index": index, "chosen": list(chosen), "threshold": threshold,
        "relation": relation,
        "checks": [{"kind": "nat", "args": [x], "value": v, "relation": relation,
                    "bound": threshold} for x, v in checked],
        "note": note,
    }


def _ratio(q: Fraction) -> str:
    # Decimal(int) prints every digit, unlike str(int), which refuses ints of
    # more than 4,300 digits (an image of 1,023 large values has a longer
    # certificate denominator).
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _transcript_json(strategy, params, steps, witness, image, majorant):
    """A transcript in JSON form with its certificate summed here."""
    certified = sum((Fraction(1, v + 1) for v in image), Fraction(0))
    return {
        "strategy": strategy, "params": params, "steps": steps,
        "witness": witness, "image": image,
        "certificate": {"sum": _ratio(certified), "majorant": _ratio(majorant)},
    }


# The step rules as the engines stated them before adversary.STRATEGIES held
# them, keyed like its fourth column: (first step, threshold(n), majorant(n_max)).
# w's steps run 1..n_max; h's and r's run 0..n_max-1.
def w_majorant_oracle(n_max: int) -> Fraction:
    return sum((Fraction(n, n * (1 << n) + 1) for n in range(1, n_max + 1)), Fraction(0))


def _h_rule_oracle(threshold, points):
    """Step n brings at most points(n) new image values, each above threshold(n)."""
    return 0, threshold, lambda n_max: sum(
        (Fraction(points(n), threshold(n) + 1) for n in range(n_max)), Fraction(0))


def r_majorant_oracle(n_max: int) -> Fraction:
    return sum((Fraction(1, 1 << n) for n in range(n_max)), Fraction(0))


RULE_ORACLES = {
    "w-summable": {None: (1, lambda n: n * (1 << n), w_majorant_oracle)},
    "h-summable": {
        CanonicalCase.MIN: _h_rule_oracle(lambda n: 1 << n, lambda n: 1),
        CanonicalCase.MAX: _h_rule_oracle(lambda n: 1 << n, lambda n: 1),
        CanonicalCase.MINMAX: _h_rule_oracle(lambda n: n * (1 << n), lambda n: n + 1),
        CanonicalCase.INJ: _h_rule_oracle(lambda n: 1 << (2 * n), lambda n: 1 << n),
    },
    "r-summable": {
        CanonicalCase.MIN: (0, lambda n: 1 << n, r_majorant_oracle),
        CanonicalCase.MAX: (0, lambda n: 1 << n, r_majorant_oracle),
        CanonicalCase.INJ: (0, lambda n: n * (1 << n), r_majorant_oracle),
    },
    "r-hindman": {},
}


def rescan_defeat_w_summable(phi, budget):
    """defeat_w_summable with a fresh scan of the window at every step, as
    the transcript's JSON form."""
    _, threshold, majorant = RULE_ORACLES["w-summable"][None]
    bound = min(phi.window, budget.max_element)
    steps, blocks = [], []
    for n in range(1, budget.max_steps + 1):
        thr = threshold(n)
        hit = least_ap([x for x in range(bound) if phi(x) >= thr], n, bound - 1)
        if hit is None:
            raise SearchExhausted(
                n, f"no {n}-term progression with phi >= {thr} in [0, {bound})")
        a, d = hit
        F = [a + i * d for i in range(n)]
        steps.append(_nat_step_json(n, F, thr, ">=", [(x, phi(x)) for x in F],
                                    f"start {a}, difference {d}, scanned [0, {bound})"))
        blocks.append(F)
    witness = sorted(set().union(*blocks))
    return _transcript_json(
        "w-summable", {"n_max": budget.max_steps, "scan_bound": bound}, steps,
        {"set": witness, "blocks": blocks}, sorted({phi(x) for x in witness}),
        majorant(budget.max_steps))


def w_scan_reach(values, budget):
    """The farthest point that defeat_w_summable's least-witness scans ask
    about, re-run by brute force over fully known values (phi on the whole
    window, a negative value counting as below every threshold).

    Step n walks the starts a of its good set in ascending order, and for
    each a the later good points b in ascending order, d = b - a; it asks
    about a + 2d, a + 3d, ... up to the first miss, and stops at its first
    hit, at the first start or b whose progression would pass bound - 1, or
    when it runs out of good points, having then looked at the whole window.
    The run stops at its first step without a hit.
    """
    _, threshold, _ = RULE_ORACLES["w-summable"][None]
    bound = min(len(values), budget.max_element)
    top = bound - 1
    far = -1
    for n in range(1, budget.max_steps + 1):
        thr = threshold(n)
        good = [x for x in range(bound) if values[x] >= thr]
        hit = False
        for i, a in enumerate(good):
            far = max(far, a)
            if a + n - 1 > top:
                break
            if n == 1:
                hit = True
                break
            for b in good[i + 1:]:
                far = max(far, b)
                d = b - a
                if a + (n - 1) * d > top:
                    break
                terms = [a + j * d for j in range(2, n)]
                asked = next((j for j, x in enumerate(terms) if values[x] < thr), len(terms) - 1)
                far = max([far, *terms[:asked + 1]])
                if all(values[x] >= thr for x in terms):
                    hit = True
                    break
            else:
                far = top
            if hit:
                break
        else:
            far = top
        if not hit:
            break
    return far


def rescan_defeat_h_inj(phi, C, budget, check_prefix=5):
    """The INJ case of defeat_h_summable by brute force, as the transcript's
    JSON form.  Each step enumerates FS of the picks afresh and rescans the
    pool from its first block, skipping the picks, for the first block c
    with total + c inside the window such that c and every c + e, e in FS of
    the picks, have phi above the step's threshold."""
    inj = CanonicalCase.INJ
    got = fs_case_oracle(phi, C.elements[:min(len(C), max(3, check_prefix))])
    if got is not inj:
        raise CaseMismatch(
            f"declared inj, prefix classifies as {got.value if got else 'none'}")
    _, threshold, majorant = RULE_ORACLES["h-summable"][inj]
    window, n_max, cs = phi.window, budget.max_steps, C.elements
    chosen, steps, total = [], [], 0
    for n in range(n_max):
        thr = threshold(n)
        sums = sorted(subset_sum_counts(chosen))
        picked = None
        for idx, c in enumerate(cs):
            if c in chosen:
                continue
            if total + c >= window:
                break
            checked = [(x, phi(x)) for x in [c] + [c + e for e in sums]]
            if all(v > thr for _, v in checked):
                picked = (idx, c, checked)
                break
        if picked is None:
            last_idx = cs.index(chosen[-1]) if chosen else -1
            raise SearchExhausted(
                n, f"no block with phi > {thr} (inj rule) past index {last_idx} "
                   f"within window {window}")
        idx, c, checked = picked
        total += c
        chosen.append(c)
        steps.append(_nat_step_json(n, [c], thr, ">", checked, f"pool index {idx}"))
    if len(chosen) >= 3:
        got = fs_case_oracle(phi, chosen)
        if got is not inj:
            raise CaseMismatch(f"selected basis classifies as "
                               f"{got.value if got else 'none'}, not inj")
    image = sorted({phi(x) for x in subset_sum_counts(chosen)})
    return _transcript_json(
        "h-summable", {"n_max": n_max, "case": "inj", "window": window}, steps,
        {"basis": sorted(chosen)}, image, majorant(n_max))


def pair_case_oracle(phi, points):
    """The case of phi on the pairs of the points, by the pairwise scan; None
    when no case fits."""
    pairs = list(itertools.combinations(points, 2))
    flags = pair_flags_oracle(pairs, [phi(p) for p in pairs])
    alive = [c for c in PAIR_CASES if flags[c]]
    assert len(alive) <= 1
    return alive[0] if alive else None


def _pair_check_json(phi, pair, relation, bound) -> dict:
    """One check in JSON form, on the pair in ascending order."""
    i, j = sorted(pair)
    return {"kind": "pair", "args": [i, j], "value": phi((i, j)), "relation": relation,
            "bound": bound}


def _pair_step_json(index, chosen, threshold, relation, checks, note) -> dict:
    return {"index": index, "chosen": list(chosen), "threshold": threshold,
            "relation": relation, "checks": checks, "note": note}


# defeat_r_summable as it stood while every MIN/MAX and INJ step rescanned the
# ground from its first point, skipping earlier picks by membership.  The
# engine now resumes after the last pick; transcripts and errors must agree.
def rescan_defeat_r_summable(phi: PairColoring, T: NatSet, case: CanonicalCase,
                             budget: SearchBudget = SearchBudget()) -> dict:
    """The per-step rescan of defeat_r_summable, classifying by the pairwise
    scan, as the transcript's JSON form."""
    if case is CanonicalCase.MINMAX:
        raise CaseMismatch("minmax is not a pair-coloring case")
    ts = sorted(set(T))
    if len(ts) < 3:
        raise CaseMismatch("ground set has fewer than 3 points")
    got = pair_case_oracle(phi, ts[:12])
    if got is not case:
        raise CaseMismatch(f"declared {case.value}, prefix classifies as "
                           f"{got.value if got else 'none'}")
    n_max = budget.max_steps
    steps = []

    def succ(t: int) -> Optional[int]:
        i = ts.index(t)
        return ts[i + 1] if i + 1 < len(ts) else None

    if case is CanonicalCase.CONST:
        H = ts[: max(2, n_max)]
        const_value = phi((H[0], H[1]))
        checks = []
        for p in itertools.combinations(H, 2):
            ck = _pair_check_json(phi, p, "==", const_value)
            if ck["value"] != const_value:
                raise CaseMismatch(f"constant case broken at {p}")
            checks.append(ck)
        steps.append(_pair_step_json(0, H, const_value, "==", checks, "constant image"))
    elif case in (CanonicalCase.MIN, CanonicalCase.MAX):
        chosen: List[int] = []
        pool = ts[:-1] if case is CanonicalCase.MIN else ts[1:]
        threshold = RULE_ORACLES["r-summable"][case][1]
        for n in range(n_max):
            thr = threshold(n)
            picked = None
            for t in pool:
                if t in chosen:
                    continue
                partner = succ(t) if case is CanonicalCase.MIN else ts[0]
                if phi((t, partner)) > thr:
                    picked = t
                    break
            if picked is None:
                raise SearchExhausted(
                    n, f"no row value above {thr} left in the ground set"
                )
            chosen.append(picked)
        H = sorted(chosen)
        # Re-record thresholds against partners inside H where possible.
        hi, lo = H[-1], H[0]
        for n, t in enumerate(chosen):
            if case is CanonicalCase.MIN:
                partner = hi if t != hi else succ(t)
            else:
                partner = lo if t != lo else ts[0]
            ck = _pair_check_json(phi, (t, partner), ">", threshold(n))
            if not ck["value"] > threshold(n):
                raise CaseMismatch(
                    f"row value of {t} differs between partners; case unstable"
                )
            steps.append(_pair_step_json(n, [t], threshold(n), ">", [ck], "row value witness"))
    else:  # INJ
        chosen = []
        threshold = RULE_ORACLES["r-summable"][case][1]
        for n in range(n_max):
            thr = threshold(n)
            picked = None
            for t in ts:
                if t in chosen:
                    continue
                checks = [_pair_check_json(phi, (ti, t), ">", thr) for ti in chosen]
                if all(ck["value"] > thr for ck in checks):
                    picked = (t, checks)
                    break
            if picked is None:
                raise SearchExhausted(
                    n, f"no point with all pair values above {thr}"
                )
            t, checks = picked
            chosen.append(t)
            steps.append(_pair_step_json(n, [t], thr, ">", checks,
                                         "pairs against earlier picks"))
        H = sorted(chosen)

    if len(H) >= 3:
        got = pair_case_oracle(phi, H)
        if got is not case:
            raise CaseMismatch(
                f"selected set classifies as {got.value if got else 'none'}, "
                f"not {case.value}"
            )
    majorant = Fraction(1, const_value + 1) if case is CanonicalCase.CONST \
        else RULE_ORACLES["r-summable"][case][2](n_max)
    image = sorted({phi(p) for p in itertools.combinations(H, 2)})
    return _transcript_json(
        "r-summable", {"n_max": n_max, "case": case.value, "ground_size": len(ts)},
        steps, {"h": H}, image, majorant)


def subprocess_env() -> dict:
    """The current environment with the absolute package root put before any
    inherited PYTHONPATH, so ``python -m idealforge.cli`` imports this
    checkout from any working directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(idealforge.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def naive_search_reduction(src, dst):
    """Try every assignment dst carrier -> src carrier in lex order."""
    from idealforge.reduction import positive_family

    dst_carrier = dst.carrier()
    src_carrier = src.carrier()
    family = positive_family(dst)
    elems = [sorted(B.edges) if isinstance(B, EdgeSet) else list(B.elements)
             for B in family]
    for values in itertools.product(src_carrier, repeat=len(dst_carrier)):
        f = dict(zip(dst_carrier, values))
        if all(
            is_positive(src.as_carrier_set(f[x] for x in es), src.ideal, src.params)
            for es in elems
        ):
            return f
    return None


def ref_jsonable(value):
    """report.jsonable as it was before common leaves were matched by exact
    type: the whole isinstance chain, in its order, for every value."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, NatSet):
        return list(value.elements)
    if isinstance(value, EdgeSet):
        return {"n": value.n, "edges": [list(e) for e in sorted(value.edges)]}
    if isinstance(value, dict):
        return {str(k): ref_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [ref_jsonable(v) for v in sorted(value)]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "to_json_dict"):
        return ref_jsonable(value.to_json_dict())
    if isinstance(value, StepChecks):  # a step's checks, as one row dict per check
        return [ref_jsonable({"kind": value.kind, "args": args, "value": v,
                              "relation": value.relation, "bound": value.bound})
                for args, v in zip(value.args, value.values)]
    if isinstance(value, Record):
        return ref_jsonable(value.fields())
    if hasattr(value, "elements"):
        return list(value.elements)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def random_pool(rng: random.Random, bands: int = 27, per_band: int = 2) -> NatSet:
    """Log-uniform pool: a few draws from every dyadic band [2^j, 2^(j+1)).

    Dense at every scale, so doubling-sum greedy selections can always climb.
    """
    out = set()
    for j in range(bands):
        for _ in range(per_band):
            out.add(rng.randrange(1 << j, 1 << (j + 1)))
    return NatSet(out)


def random_block_basis(rng: random.Random, size: int):
    """Random basis with binary supports in disjoint bit blocks."""
    from idealforge.canonical import BlockBasis

    elements = []
    bit = 0
    for _ in range(size):
        width = rng.randint(1, 3)
        value = rng.randint(1, (1 << width) - 1) << bit
        elements.append(value)
        bit += width + rng.randint(0, 2)
    return BlockBasis(elements)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
