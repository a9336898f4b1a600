"""Counterexample construction engines and condition-system checkers.

Each ``defeat_*`` strategy replays an inductive construction against a
concrete candidate reduction: it picks witnesses step by step, records every
threshold inequality it relied on, and emits a transcript whose certificate
is an exact rational that can be recomputed from scratch.  Infinitary
existence steps become bounded searches; running out of candidates raises
SearchExhausted, which is an expected outcome for inputs that witness
nothing.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, \
    Tuple

from .canonical import BlockBasis, CanonicalCase, NatColoring, PairColoring, \
    classify_fs_on, classify_pairs_on, fs_case, fs_values, least_subset, pair_case, pair_values
from .errors import CaseMismatch, DegeneratePair, MalformedBundle, NoSuchC, \
    SearchExhausted, ZeroInput
from .ideals import NatSet, Record, progressions, reciprocal_sum, reciprocal_terms
from .report import RELATIONS, Report, StepChecks, rational_str
from .sparse import SparseBasis, find_fs_subset, fs, is_very_sparse, require_fs_cap


class SearchBudget(Record):
    """Bounds for the construction searches."""

    __slots__ = ("max_element", "max_steps", "candidate_cap")

    def __init__(self, max_element: int = 32768, max_steps: int = 10, candidate_cap: int = 8):
        if max_element <= 0 or max_steps <= 0 or candidate_cap <= 0:
            raise ValueError("budget fields must be positive")
        self._fill(max_element, max_steps, candidate_cap)


class TranscriptStep(Record):
    """One step of a construction: the points it chose and the checks it relied
    on.  ``threshold`` and ``relation`` are read off the checks' bound and
    relation; any ``checks`` but a StepChecks is a ValueError."""

    __slots__ = ("index", "chosen", "threshold", "relation", "checks", "note")

    def __init__(self, index: int, chosen: Tuple[int, ...], checks: StepChecks, note: str = ""):
        if type(checks) is not StepChecks:
            raise ValueError(f"step checks must be a StepChecks, not {type(checks).__name__}")
        self._fill(index, chosen, checks.bound, checks.relation, checks, note)


class Transcript(Record):
    """Ordered record of a construction plus its exact certificate: the image
    is the set of the coloring's ``values`` on the image points, and the
    certificate is the image's exact reciprocal sum.

    ``coloring`` is a live reference used for re-verification; serialization
    keeps only the structural content.
    """

    __slots__ = ("strategy", "params", "steps", "witness", "image", "certified_sum",
                 "majorant", "coloring")

    def __init__(self, strategy: str, params: Dict[str, Any], steps: List[TranscriptStep],
                 witness: Dict[str, Any], values: Iterable[int], majorant: Optional[Fraction],
                 coloring: Any = None):
        image = NatSet(values)
        self._fill(strategy, params, steps, witness, image, reciprocal_sum(image), majorant,
                   coloring)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "params": self.params,
            "steps": self.steps,
            "witness": self.witness,
            "image": self.image,
            "certificate": {"sum": self.certified_sum, "majorant": self.majorant},
        }


def fin2_to_h_map(x: int) -> Tuple[int, int]:
    """Split x >= 1 as 2^k (2n + 1); the column injection (k, n)."""
    if x < 1:
        raise ZeroInput("x must be >= 1")
    k = (x & -x).bit_length() - 1
    odd = x >> k
    return (k, (odd - 1) // 2)


def fin2_to_r_map(pair) -> Tuple[int, int]:
    """Send the pair {k, i}, k < i, to row k with in-row index i - k - 1."""
    a, b = pair
    if a == b:
        raise DegeneratePair(f"pair ({a},{b}) has equal endpoints")
    k, i = min(a, b), max(a, b)
    return (k, i - k - 1)


@functools.lru_cache(maxsize=128)
def _majorant(term: Callable[[int], Fraction], steps: range) -> Fraction:
    """The exact sum of term(n) over the steps, once per rule and step range."""
    return sum(map(term, steps), Fraction(0))


def _require_case(got: Optional[CanonicalCase], case: CanonicalCase, message: str) -> None:
    """Raise CaseMismatch unless the classifier gave the declared case; the
    message is formatted with the declared ``case`` and the ``got`` one."""
    if got is not case:
        raise CaseMismatch(message.format(case=case.value, got=got.value if got else "none"))


def _constant_step(chosen: Sequence[int], kind: str, args: Sequence[tuple], queries: Iterator[int],
                   broken: Callable[[tuple, int, int], str]) -> TranscriptStep:
    """The one step of a CONST run: an "==" check at each of ``args``, valued
    in order by ``queries``, against the constant, the first check's value.
    The first that differs raises CaseMismatch(broken(its args, its value,
    the constant)) and ends the queries."""
    got: List[int] = []
    for a, v in zip(args, queries):
        if got and v != got[0]:
            raise CaseMismatch(broken(a, v, got[0]))
        got.append(v)
    return TranscriptStep(index=0, chosen=tuple(chosen),
                          checks=StepChecks(kind, "==", got[0], tuple(args), tuple(got)),
                          note="constant image")


def _row(strategy: str, budget: SearchBudget) -> Strategy:
    """STRATEGIES[strategy], once ``budget`` keeps the default in each field
    the row leaves out; the first in slot order that does not is a ValueError."""
    row = STRATEGIES[strategy]
    for name in SearchBudget.__slots__:
        if name not in row.budget and getattr(budget, name) != getattr(_DEFAULT_BUDGET, name):
            raise ValueError(f"budget.{name} does not apply to {strategy}")
    return row


# The engines' default budgets, and r-hindman's default basis size, on the command
# line too; _row checks against the first.
_DEFAULT_BUDGET = SearchBudget()
R_HINDMAN_BUDGET = SearchBudget(max_element=32, max_steps=4, candidate_cap=4)
R_HINDMAN_FS_SIZE = 2
READ_BLOCK = 256  # points per block of defeat_w_summable's window read


def defeat_w_summable(phi: NatColoring, budget: SearchBudget = _DEFAULT_BUDGET) -> Transcript:
    """Build progressions F_n inside {x : phi(x) >= threshold(n)} for n = 1..n_max.

    The witness has unbounded progression length while the image reciprocal
    mass stays under the exact majorant, the sum of term(n); both come from
    the w-summable rule in STRATEGIES.  Step n takes the least n-term
    progression of its good set in [0, bound), which depends only on the
    points the scan asks about.  So phi is read as a prefix of the window
    that grows in ascending blocks of ``READ_BLOCK`` points, each read only
    when the scan asks about a point past the prefix: a run evaluates each
    point of its prefix once, in order, and the checks and the image read
    their values off it.  A negative value is an error when its block is
    read.  The good points of the prefix are kept in one ascending list; the
    thresholds increase, so each good set lies inside the previous one, and
    a step filters the list by its own threshold.  The scan bounds its
    progressions by bound - 1: one that ends past the last good point fails
    at that point, so the first hit is the least one.
    """
    threshold, term = _row("w-summable", budget).rules[None]
    bound = min(phi.window, budget.max_element)
    values: List[int] = []  # phi on the prefix [0, len(values))
    good: List[int] = []  # the prefix's points with phi >= thr, ascending
    thr = 0

    def read_to(x: int) -> None:
        """Grow the prefix through the block that holds x."""
        lo = len(values)
        hi = min(bound, READ_BLOCK * (x // READ_BLOCK + 1))
        block = phi.values(range(lo, hi))
        values.extend(block)
        keep = map(operator.le, itertools.repeat(thr), block)
        good.extend(itertools.compress(range(lo, hi), keep))

    def member(x: int) -> bool:
        if x >= len(values):
            read_to(x)
        return values[x] >= thr

    def good_points() -> Iterator[int]:
        i = 0
        while True:
            if i < len(good):
                yield good[i]
                i += 1
            elif len(values) < bound:
                read_to(len(values))
            else:
                return

    steps: List[TranscriptStep] = []
    blocks: List[NatSet] = []
    for n in range(1, budget.max_steps + 1):
        thr = threshold(n)
        keep = map(operator.le, itertools.repeat(thr), map(values.__getitem__, good))
        good[:] = itertools.compress(good, keep)
        hit = next(progressions(good_points(), member, n, bound - 1), None)
        if hit is None:
            raise SearchExhausted(
                n, f"no {n}-term progression with phi >= {thr} in [0, {bound})")
        a, d = hit
        F = NatSet(a + i * d for i in range(n))
        steps.append(TranscriptStep(
            index=n, chosen=F.elements,
            checks=StepChecks("nat", ">=", thr, tuple(zip(F)), tuple(values[x] for x in F)),
            note=f"start {a}, difference {d}, scanned [0, {bound})",
        ))
        blocks.append(F)
    witness = NatSet(itertools.chain.from_iterable(b.elements for b in blocks))
    majorant = _majorant(term, range(1, budget.max_steps + 1))
    return Transcript("w-summable", {"n_max": budget.max_steps, "scan_bound": bound}, steps,
                      {"set": witness, "blocks": blocks}, [values[x] for x in witness],
                      majorant, phi)


def defeat_h_summable(phi: NatColoring, C: BlockBasis, case: CanonicalCase,
                      budget: SearchBudget = _DEFAULT_BUDGET) -> Transcript:
    """Select a sub-basis D of C whose finite-sums image has small mass.

    Case rules: CONST takes a prefix; MIN and MAX pick elements with value
    above the case's threshold in STRATEGIES; MINMAX demands it on the element
    and on all pair sums with earlier picks; INJ demands it on the element and
    on its sums with FS of the earlier picks, the step's new finite sums.  The
    declared case is verified on the first 5 blocks up front and on the
    selected D afterwards.  Past the search, no point of FS(D) is queried
    twice: INJ and CONST read the values their checks record, and MIN, MAX
    and MINMAX query FS(D) once, for the closing check and the image alike.
    """
    rules, n_max = _row("h-summable", budget).rules, budget.max_steps
    if len(C) < 3:
        raise CaseMismatch("pool has fewer than 3 blocks")
    _require_case(classify_fs_on(phi, BlockBasis(C.elements[:5])), case,
                  "declared {case}, prefix classifies as {got}")
    cs = C.elements
    window = phi.window
    steps: List[TranscriptStep] = []

    if case is CanonicalCase.CONST:
        chosen: List[int] = []
        total = 0
        # The prefix check has read cs[0] inside the window, so chosen is not empty.
        for c in cs:
            if len(chosen) == n_max or total + c >= window:
                break
            chosen.append(c)
            total += c
        sums = fs(NatSet(chosen)).elements
        steps.append(_constant_step(
            chosen, "nat", tuple(zip(sums)), map(phi, sums),
            lambda a, v, value: f"constant case broken at {a[0]}: phi = {v} != {value}",
        ))
        values = steps[0].checks.values
        majorant = Fraction(1, steps[0].threshold + 1)
    else:
        threshold, term = rules[case]
        chosen = []
        last_idx = -1
        total = 0
        extras: Sequence[int] = chosen if case is CanonicalCase.MINMAX else ()
        if case is CanonicalCase.INJ:
            # FS(chosen) ascending with phi on it, grown from each kept
            # candidate's points; injectivity across steps is left to the
            # closing classification.
            sums: List[int] = []
            values: List[int] = []
            extras = sums
        for n in range(n_max):
            thr = threshold(n)

            # Every point of a candidate is queried before any is judged, so a
            # bad value raises as if each were checked; only the kept
            # candidate's values become checks.
            picked = None
            for idx in range(last_idx + 1, len(cs)):
                c = cs[idx]
                if total + c >= window:
                    break  # finite sums would leave the coloring's domain
                points = [c, *(c + e for e in extras)]
                got = phi.values(points)
                if min(got) > thr:
                    picked = (idx, c, points, got)
                    break
            if picked is None:
                raise SearchExhausted(
                    n, f"no block with phi > {thr} ({case.value} rule) past "
                       f"index {last_idx} within window {window}"
                )
            last_idx, c, points, got = picked
            total += c
            chosen.append(c)
            if case is CanonicalCase.INJ:
                # c exceeds the sum of the earlier blocks, so c and c + FS follow
                # FS in ascending order, as its points do.
                require_fs_cap(len(chosen))
                sums += points
                values += got
            steps.append(TranscriptStep(
                index=n, chosen=(c,),
                checks=StepChecks("nat", ">", thr, tuple(zip(points)), tuple(got)),
                note=f"pool index {last_idx}",
            ))
        if case is not CanonicalCase.INJ:
            sums = fs(NatSet(chosen)).elements
            values = fs_values(phi, sums)
        if len(chosen) >= 3:
            _require_case(fs_case(tuple(chosen), sums, values), case,
                          "selected basis classifies as {got}, not {case}")
        majorant = _majorant(term, range(n_max))

    return Transcript("h-summable", {"n_max": n_max, "case": case.value, "window": window},
                      steps, {"basis": NatSet(chosen)}, values, majorant, phi)


def defeat_r_summable(phi: PairColoring, T: NatSet, case: CanonicalCase,
                      budget: SearchBudget = _DEFAULT_BUDGET) -> Transcript:
    """Select H inside T whose pair-image has small reciprocal mass.

    MIN and MAX exploit that rows (columns) of the coloring are constant on
    T with pairwise distinct values; INJ uses the pigeonhole room above its
    threshold.  Thresholds are re-recorded against pairs inside H so the
    certificate depends only on recorded facts plus the verified case, which
    is checked on the first 12 points of T up front and on H afterwards.
    Past the search, the pairs of H are queried once, for that check and
    the image alike; CONST reads them off its checks.
    """
    rules, n_max = _row("r-summable", budget).rules, budget.max_steps
    if case is CanonicalCase.MINMAX:
        raise CaseMismatch("minmax is not a pair-coloring case")
    T = T if isinstance(T, NatSet) else NatSet(T)
    if len(T) < 3:
        raise CaseMismatch("ground set has fewer than 3 points")
    _require_case(classify_pairs_on(phi, NatSet(T.elements[:12])), case,
                  "declared {case}, prefix classifies as {got}")
    ts = T.elements
    steps: List[TranscriptStep] = []

    if case is CanonicalCase.CONST:
        H = ts[: max(2, n_max)]
        pairs = tuple(itertools.combinations(H, 2))
        steps.append(_constant_step(H, "pair", pairs, map(phi, pairs),
                                    lambda a, v, value: f"constant case broken at {a}"))
        values = steps[0].checks.values
    elif case in (CanonicalCase.MIN, CanonicalCase.MAX):
        # MIN reads the row of ts[i] at its successor, MAX the column of ts[i]
        # at ts[0].  The thresholds grow with n, so a point that fails one step
        # fails every later one (in INJ too, whose checks only gain pairs): each
        # step scans on from the index after the last pick, and the picks ascend.
        is_min = case is CanonicalCase.MIN
        threshold = rules[case][0]
        H = []
        last = -1 if is_min else 0
        for n in range(n_max):
            thr = threshold(n)
            for i in range(last + 1, len(ts) - 1 if is_min else len(ts)):
                if phi((ts[i], ts[i + 1] if is_min else ts[0])) > thr:
                    break
            else:
                raise SearchExhausted(n, f"no row value above {thr} left in the ground set")
            last = i
            H.append(ts[i])
        # Re-record thresholds against partners inside H where possible.
        for n, t in enumerate(H):
            if is_min:
                partner = H[-1] if n + 1 < len(H) else ts[last + 1]
            else:
                partner = H[0] if n else ts[0]
            pair = (t, partner) if t < partner else (partner, t)
            v, thr = phi(pair), threshold(n)
            if v <= thr:
                raise CaseMismatch(f"row value of {t} differs between partners; case unstable")
            steps.append(TranscriptStep(
                index=n, chosen=(t,), checks=StepChecks("pair", ">", thr, (pair,), (v,)),
                note="row value witness",
            ))
    else:  # INJ
        threshold = rules[case][0]
        H = []
        last = -1
        for n in range(n_max):
            thr = threshold(n)
            for i in range(last + 1, len(ts)):
                t = ts[i]
                got = [phi((ti, t)) for ti in H]
                if all(v > thr for v in got):
                    break
            else:
                raise SearchExhausted(n, f"no point with all pair values above {thr}")
            last = i
            steps.append(TranscriptStep(
                index=n, chosen=(t,),
                checks=StepChecks("pair", ">", thr, tuple(zip(H, itertools.repeat(t))),
                                  tuple(got)),
                note="pairs against earlier picks",
            ))
            H.append(t)

    Hset = NatSet(H)
    if case is not CanonicalCase.CONST:
        values = pair_values(phi, Hset.elements)
    if len(Hset) >= 3:
        _require_case(pair_case(Hset.elements, values), case,
                      "selected set classifies as {got}, not {case}")
    majorant = Fraction(1, steps[0].threshold + 1) if case is CanonicalCase.CONST \
        else _majorant(rules[case][1], range(n_max))
    return Transcript("r-summable", {"n_max": n_max, "case": case.value, "ground_size": len(T)},
                      steps, {"h": Hset}, values, majorant, phi)


def _shifted_image_free(f: PairColoring, anchor: int, pool: Sequence[int],
                        y: int, fs_size: int) -> bool:
    values = {f((anchor, b)) for b in pool if b != anchor}
    if fs_size > 0 and (len(values) + 1) >> fs_size == 0:
        return True  # fewer values than a basis has sums, as find_fs_subset bounds them
    shifted = NatSet(v - y for v in values if v >= y)
    return find_fs_subset(shifted, fs_size) is None


def _reach(D: SparseBasis, ys: Sequence[int]) -> int:
    """The union of the masks of alpha(y), y in ys: a sum x of FS(D) lies in
    the conflict set of some y iff mask(x) & reach."""
    reach = 0
    for y in ys:
        reach |= D.mask(y)
    return reach


def defeat_r_hindman(f: PairColoring, D: SparseBasis, budget: SearchBudget = R_HINDMAN_BUDGET,
                     fs_size: int = R_HINDMAN_FS_SIZE) -> Transcript:
    """Grow points b_0 < b_1 < ... with nested reservoirs B_n such that pair
    images avoid the decomposition-conflict sets of all earlier pair images
    and shifted row images carry no finite-sums basis.

    Each reservoir is the lexicographically least subset of the previous one
    (largest feasible size up to the candidate cap) satisfying both
    conditions and still containing a point above the last pick.
    """
    _row("r-hindman", budget)
    window = min(f.n, budget.max_element)
    for p in itertools.combinations(range(window), 2):
        v = f(p)  # 0 is in no FS(D), though the table of the basis {0} decomposes it
        if v == 0 or v not in D:
            raise ValueError(f"f({set(p)}) = {v} lies outside the finite sums of the basis")

    b = [0]
    reservoirs: List[NatSet] = [NatSet(range(window))]
    steps: List[TranscriptStep] = []

    for n in range(1, budget.max_steps):
        prev = reservoirs[-1].elements
        ys = sorted({f(p) for p in itertools.combinations(b, 2)})
        reach = _reach(D, ys)

        # A prefix passes when its last point's pairs with the earlier ones miss
        # the conflict sets and no shifted row carries a basis on it; a full
        # subset must also reach above the last pick.  Every pair image below
        # the window is in FS(D), so its mask tells whether it hits.
        for size in range(min(budget.candidate_cap, len(prev)), 0, -1):
            hit = least_subset(prev, size, lambda sub: (
                not any(D.mask(f((u, sub[-1]))) & reach for u in sub[:-1])
                and all(_shifted_image_free(f, bi, sub, y, fs_size) for bi in b for y in ys)
                and (len(sub) < size or sub[-1] > b[-1])))
            if hit is not None:
                break
        else:
            raise SearchExhausted(
                n, "no reservoir avoids the conflict sets of "
                   f"{ys} while keeping shifted rows basis-free"
            )
        Bn = NatSet(hit[0])
        bn = min(x for x in Bn if x > b[-1])
        steps.append(TranscriptStep(
            index=n, chosen=(bn,),
            checks=StepChecks("pair", ">", 0, (), ()),
            note=f"reservoir {list(Bn.elements)}, avoided values {ys}",
        ))
        reservoirs.append(Bn)
        b.append(bn)

    return Transcript("r-hindman",
                      {"depth": budget.max_steps, "window": window, "fs_size": fs_size},
                      steps, {"b": NatSet(b), "reservoirs": reservoirs},
                      [f(p) for p in itertools.combinations(b, 2)], None, f)


class Strategy(NamedTuple):
    """A strategy's engine, coloring kind, image rule, step rules by case (None
    for w) and the SearchBudget fields its engine reads.  A rule (threshold(n),
    term(n)) has step n demand values at least (w) or above (h, r) threshold(n)
    and add at most term(n) mass; the majorant sums the terms (CONST: 1/(v + 1))."""
    engine: Callable[..., Transcript]
    kind: str
    image: Callable[[Dict[str, Any]], Iterable]
    rules: Dict[Optional[CanonicalCase], Tuple[Callable[[int], int], Callable[[int], Fraction]]]
    budget: Tuple[str, ...]


_MIN_MAX = (CanonicalCase.MIN, CanonicalCase.MAX)
STRATEGIES = {
    "w-summable": Strategy(defeat_w_summable, "nat", lambda w: w["set"], {
        None: (lambda n: n * 2 ** n, lambda n: Fraction(n, n * 2 ** n + 1)),
    }, ("max_element", "max_steps")),
    "h-summable": Strategy(defeat_h_summable, "nat", lambda w: fs(w["basis"]), {
        **dict.fromkeys(_MIN_MAX, (lambda n: 2 ** n, lambda n: Fraction(1, 2 ** n + 1))),
        CanonicalCase.MINMAX: (lambda n: n * 2 ** n, lambda n: Fraction(n + 1, n * 2 ** n + 1)),
        CanonicalCase.INJ: (lambda n: 4 ** n, lambda n: Fraction(2 ** n, 4 ** n + 1)),
    }, ("max_steps",)),
    "r-summable": Strategy(defeat_r_summable, "pair", lambda w: itertools.combinations(w["h"], 2), {
        **dict.fromkeys(_MIN_MAX, (lambda n: 2 ** n, lambda n: Fraction(1, 2 ** n))),
        CanonicalCase.INJ: (lambda n: n * 2 ** n, lambda n: Fraction(1, 2 ** n)),
    }, ("max_steps",)),
    "r-hindman": Strategy(defeat_r_hindman, "pair", lambda w: itertools.combinations(w["b"], 2),
                          {}, ("max_element", "max_steps", "candidate_cap")),
}


def check_hnr_conditions(b: Sequence[int], B: Sequence[NatSet], f: PairColoring,
                         D: SparseBasis, fs_size: int = R_HINDMAN_FS_SIZE) -> Report:
    """Itemized verification of a grown (b, B) chain against f and D.

    (a) picks ascend and sit in their reservoirs; (b) reservoirs nest;
    (c) reservoir pair images avoid the conflict sets of earlier pair
    images; (d) shifted row images carry no finite-sums basis.
    """
    report = Report(meta={"fs_size": fs_size, "depth": len(b)})
    if len(b) != len(B):
        raise MalformedBundle(f"{len(b)} picks vs {len(B)} reservoirs")
    for key in ("(a)", "(b)", "(c)", "(d)"):
        report.add(key, True)

    for n, bn in enumerate(b):
        if bn not in B[n]:
            report.fail("(a)", f"b_{n} = {bn} not in its reservoir")
            break
        if n > 0 and bn <= b[n - 1]:
            report.fail("(a)", f"b_{n} = {bn} <= b_{n-1} = {b[n - 1]}")
            break

    for n in range(1, len(B)):
        if not B[n].issubset(B[n - 1]):
            report.fail("(b)", f"B_{n} not inside B_{n-1}")
            break

    # Once (c) or (d) fails, its scan stops: later steps query f no further.
    for n in range(len(b)):
        if len(set(b[:n])) < n:
            break  # a repeated pick fails (a) and has no pair image
        ys = sorted({f(p) for p in itertools.combinations(b[:n], 2)})
        reach = _reach(D, ys)
        if "(c)" not in report.failed_names():
            for p in itertools.combinations(B[n].elements, 2):
                v = f(p)  # a hit is a sum of FS(D), which never holds 0, meeting reach
                if v and v in D and D.mask(v) & reach:
                    report.fail("(c)", f"f({set(p)}) = {v} hits a conflict set at step {n}")
                    break
        if "(d)" not in report.failed_names():
            for i, y in itertools.product(range(n), ys):
                if not _shifted_image_free(f, b[i], B[n].elements, y, fs_size):
                    report.fail("(d)", f"row of b_{i} shifted by {y} carries a "
                                       f"size-{fs_size} basis at step {n}")
                    break
    return report


def replay_final_contradiction(f: PairColoring, D: SparseBasis, b: NatSet,
                               C: NatSet) -> Report:
    """Partition the pairs of the grown points b around the pair producing the
    least element of C, and check the top block's shifted image under f misses
    the finite sums of C minus that element; D's decompositions of those sums
    must be additive.

    Requires fs(C) inside the pair image; failure of that precondition is
    itself evidence and raises NoSuchC.
    """
    pts = b.elements
    if len(C) < 2:
        raise NoSuchC(f"|C| = {len(C)} < 2")
    image = {f(p) for p in itertools.combinations(pts, 2)}
    missing = [x for x in fs(C) if x not in image]
    if missing:
        raise NoSuchC(
            f"fs(C) escapes the pair image at {missing[:5]}; "
            "no admissible C at this scale"
        )
    c = C.min()
    pivot = next((p for p in itertools.combinations(range(len(pts)), 2)
                  if f((pts[p[0]], pts[p[1]])) == c), None)
    if pivot is None:
        raise NoSuchC(f"no pair of the grown points maps to c = {c}")
    _, n_idx = pivot

    lower = pts[: n_idx + 1]
    upper = pts[n_idx + 1 :]
    X = list(itertools.combinations(lower, 2))
    Y = [(i, k) for i in lower for k in upper]
    Z = list(itertools.combinations(upper, 2))

    report = Report(meta={
        "c": c, "pivot": [pts[pivot[0]], pts[pivot[1]]],
        "sizes": {"X": len(X), "Y": len(Y), "Z": len(Z)},
    })
    total = len(pts) * (len(pts) - 1) // 2
    report.add("partition", len(X) + len(Y) + len(Z) == total,
               f"|X|+|Y|+|Z| = {len(X) + len(Y) + len(Z)}, pairs = {total}")

    rest = fs(NatSet(x for x in C if x != c))
    shifted_Z = NatSet(v - c for v in (f(p) for p in Z) if v >= c)
    overlap = [x for x in rest if x in shifted_Z]
    report.add("z-intersection", not overlap,
               f"witnesses {overlap[:5]}" if overlap else "empty as required")

    ok_alpha, detail_alpha = True, "no in-basis sums to inspect"
    fsD = D.fs_set()
    mask_c = D.mask(c) if c in fsD else 0
    for a in rest:
        if a in fsD and (a + c) in fsD:
            mask_a = D.mask(a)
            if mask_a & mask_c:
                continue  # additivity only applies to disjoint decompositions
            if D.mask(a + c) != mask_a | mask_c:
                ok_alpha = False
                detail_alpha = f"alpha({a}+{c}) != alpha({a}) | alpha({c})"
                break
            detail_alpha = "decomposition additivity verified"
    report.add("alpha-additivity", ok_alpha, detail_alpha)
    return report


class GammaMap:
    """Finite map from naturals into ordered pairs (z0, z1) with z0 > z1."""

    __slots__ = ("table",)

    def __init__(self, table: Dict[int, Tuple[int, int]]):
        norm: Dict[int, Tuple[int, int]] = {}
        for x, pair in table.items():
            z0, z1 = pair
            if x < 0 or z1 < 0 or z0 <= z1:
                raise ValueError(f"f({x}) = ({z0},{z1}) is not a strict pair")
            norm[x] = (z0, z1)
        self.table = norm

    def inv_second(self, m: int) -> NatSet:
        """Preimage of the column {(z0, m) : z0 > m}."""
        return NatSet(x for x, (z0, z1) in self.table.items() if z1 == m)


class RnhCase1Bundle(Record):
    """Finite fragment of the column-avoidance construction."""

    __slots__ = ("k", "D", "xs", "Ds")

    def __init__(self, k: int, D: SparseBasis, xs: List[int], Ds: List[SparseBasis]):
        self._fill(k, D, xs, Ds)


class RnhCase2Bundle(Record):
    """Finite fragment of the column-hitting construction."""

    __slots__ = ("ns", "js", "ks", "Fs", "xs", "Ds")

    def __init__(self, ns: List[int], js: List[int], ks: List[int], Fs: List[frozenset],
                 xs: List[int], Ds: List[SparseBasis]):
        self._fill(ns, js, ks, Fs, xs, Ds)


def _mask_or_zero(basis: SparseBasis, x: int) -> int:
    return basis.mask(x) if x in basis else 0


def _check_rnh_case1(bundle: RnhCase1Bundle, f: GammaMap, X: SparseBasis) -> Report:
    k, D, xs, Ds = bundle.k, bundle.D, bundle.xs, bundle.Ds
    if len(xs) != len(Ds):
        raise MalformedBundle(f"{len(xs)} points vs {len(Ds)} bases")
    if k < 0:
        raise MalformedBundle("k must be >= 0")
    report = Report(meta={"case": 1, "depth": len(xs), "k": k})

    base_ok = bool(is_very_sparse(D)) and \
        D.fs_set().issubset(X.fs_set())
    report.add("(base)", base_ok,
               "ambient basis very sparse with sums inside the ground sums"
               if base_ok else "ambient basis fails the hypothesis")

    for key in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)"):
        report.add(key, True)
    bases = [D, *Ds]  # bases[n] is the basis before step n

    for n in range(len(xs)):
        xn = xs[n]
        prev = bases[n]
        if xn not in prev:
            report.fail("(a)", f"x_{n} = {xn} not a finite sum of the step-{n-1} basis")
        if xn in xs[:n]:
            report.fail("(a)", f"x_{n} repeats an earlier point")
        for i in range(n):
            for j in range(n):
                if _mask_or_zero(Ds[j], xs[i]) & _mask_or_zero(Ds[j], xn):
                    report.fail("(a)", f"x_{n} meets the conflict set of x_{i} over D_{j}")
        flag = is_very_sparse(Ds[n])
        if not flag:
            report.fail("(b)", f"D_{n} not very sparse: {flag.counterexample}")
        sums = fs(NatSet(xs[: n + 1]))  # FS(x_0..x_n), for (c) and each column of (e)
        if not sums.issubset(D.fs_set()):
            report.fail("(c)", f"finite sums of x_0..x_{n} escape the ambient sums")
        if not Ds[n].fs_set().issubset(prev.fs_set()):
            report.fail("(d)", f"FS(D_{n}) not inside FS(D_{n-1})")
        fsn = Ds[n].fs_set()
        for i in range(1, n + 2):
            col = f.inv_second(k + i)
            for x in sums:
                for z in col:
                    if z >= x and (z - x) in fsn:
                        report.fail("(e)", f"column {k + i} shifted by {x} meets "
                                           f"FS(D_{n}) at {z - x}")
            for z in col:
                if z in fsn:
                    report.fail("(f)", f"column {k + i} meets FS(D_{n}) at {z}")
    return report


def _check_rnh_case2(bundle: RnhCase2Bundle, f: GammaMap, X: SparseBasis) -> Report:
    ns, js, ks, Fs, xs, Ds = (bundle.ns, bundle.js, bundle.ks, bundle.Fs,
                              bundle.xs, bundle.Ds)
    depth = len(xs)
    if not (len(ns) == len(js) == len(ks) == len(Fs) == len(Ds) == depth):
        raise MalformedBundle("bundle lists have mismatched lengths")
    if any(j not in (0, 1) for j in js):
        raise MalformedBundle("branch flags must be 0 or 1")
    report = Report(meta={"case": 2, "depth": depth})
    for key in ("(a1)", "(a2)", "(b1)", "(b2)", "(c1)", "(c2)", "(c3)", "(c4)",
                "(d1)", "(d2)", "(d3a)", "(d3b)", "(d4)", "(e1)", "(e2)", "(e3)",
                "(f)", "(g1)", "(g2)"):
        report.add(key, True)
    bases = [X, *Ds]  # bases[i] is the basis before step i
    image = f.table.get  # a partial map: None off its domain
    banned: set = set()  # the indices in F_0, ..., F_(i-1); F_i joins before (e)

    for i in range(depth):
        prev = bases[i]
        # (a)
        if ns[i] <= (ns[i - 1] if i > 0 else -1):
            report.fail("(a1)", f"n_{i} = {ns[i]} does not increase")
        coord_bound = 0
        for x in fs(NatSet(xs[:i])):
            got = image(x)  # the image skips undefined points
            if got is not None:
                coord_bound = max(coord_bound, got[0])
        if ns[i] <= coord_bound:
            report.fail("(a2)",
                        f"n_{i} = {ns[i]} not above the image coordinates {coord_bound}")
        # (b)
        if not Ds[i].fs_set().issubset(prev.fs_set()):
            report.fail("(b1)", f"FS(D_{i}) not inside FS(D_{i-1})")
        flag = is_very_sparse(Ds[i])
        if not flag:
            report.fail("(b2)", f"D_{i} not very sparse: {flag.counterexample}")
        # branch items
        if js[i] == 0:
            if ks[i] != -1:
                report.fail("(c1)", f"k_{i} = {ks[i]} but the branch flag is 0")
            if set(Fs[i]):
                report.fail("(c2)", f"F_{i} nonempty on branch 0")
            got = image(xs[i])
            if xs[i] not in prev or got is None or got[1] != ns[i]:
                report.fail("(c3)", f"x_{i} not a previous-basis sum landing in column {ns[i]}")
            for d in Ds[i].fs_set():
                got = image(xs[i] + d)
                if got is None or got[1] != ns[i]:
                    report.fail("(c4)", f"x_{i} + {d} does not land in column {ns[i]}")
                    break
        else:
            eligible = {u for u in range(i) if u not in banned and js[u] == 0}
            if ks[i] not in eligible:
                report.fail("(d1)", f"k_{i} = {ks[i]} not an eligible branch-0 index")
            if set(Fs[i]) != set(range(ks[i], i)):
                report.fail("(d2)", f"F_{i} != {{k_{i}, ..., {i - 1}}}")
            target = (ns[i], ns[ks[i]]) if 0 <= ks[i] < depth else None
            if target is None or image(xs[i]) != target:
                report.fail("(d3a)", f"x_{i} does not map to ({ns[i]}, n_k)")
            mids = {0, *fs(NatSet(xs[r] for r in range(ks[i] + 1, i) if r not in banned))}
            fs_prev = prev.fs_set()  # not prev: the basis {0} decomposes 0, FS({0}) is empty
            if not (0 <= ks[i] < depth
                    and any(xs[i] - xs[ks[i]] - mid in fs_prev for mid in mids)):
                report.fail("(d3b)", f"x_{i} not reachable from x_k plus middle sums "
                                     f"plus FS(D_{i-1})")
            if target is not None:
                for d in Ds[i].fs_set():
                    if image(xs[i] + d) != target:
                        report.fail("(d4)", f"x_{i} + {d} does not map to {target}")
                        break
        banned.update(Fs[i])
        # (e)
        allowed = [t for t in range(i) if t not in banned]
        for r in range(1, len(allowed) + 1):
            for S in itertools.combinations(allowed, r):
                x = sum(xs[t] for t in S)
                target = (ns[i], ns[S[0]])
                for d in Ds[i].fs_set():
                    if image(x + xs[i] + d) == target:
                        report.fail("(e1)", f"x + x_{i} + FS(D_{i}) hits {target}")
                        break
                for d in Ds[i].fs_set():
                    if image(x + d) == target:
                        report.fail("(e2)", f"x + FS(D_{i}) hits {target}")
                        break
                if image(x + xs[i]) == target:
                    report.fail("(e3)", f"x + x_{i} maps to {target}")
        # (f): a sum y of FS(D_i) is never 0, so y in Dt means y is in FS(Dt)
        for t, Dt in enumerate(bases[: i + 1], -1):
            for u in range(i + 1):
                if xs[u] not in Dt:
                    continue
                mask_u = Dt.mask(xs[u])
                if any(y in Dt and Dt.mask(y) & mask_u for y in Ds[i].fs_set()):
                    report.fail("(f)", f"FS(D_{i}) meets the conflict set of x_{u} over D_{t}")
        # (g)
        allowed_incl = [t for t in range(i + 1) if t not in banned]
        if not fs(NatSet(xs[t] for t in allowed_incl)).issubset(X.fs_set()):
            report.fail("(g1)", f"allowed sums up to {i} escape FS(X)")
        for r in range(2, len(allowed_incl) + 1):
            for S in itertools.combinations(allowed_incl, r):
                total = sum(xs[t] for t in S)
                t0 = S[0]
                if (total - xs[t0]) not in bases[t0 + 1]:
                    report.fail("(g2)", f"sum over {S} not in x_{t0} + FS(D_{t0})")
    return report


def check_rnh_conditions(bundle, f: GammaMap, X: SparseBasis) -> Report:
    """Itemized verification of a column-construction bundle.

    An RnhCase1Bundle is checked against items (a) through (f) of the
    avoidance construction; an RnhCase2Bundle against items (a1) through
    (g2) of the hitting construction.
    """
    if isinstance(bundle, RnhCase1Bundle):
        return _check_rnh_case1(bundle, f, X)
    if isinstance(bundle, RnhCase2Bundle):
        return _check_rnh_case2(bundle, f, X)
    raise MalformedBundle(
        f"expected an RnhCase1Bundle or an RnhCase2Bundle, got {type(bundle).__name__}"
    )


def _first_bad_check(steps: List[TranscriptStep], phi) -> str:
    """The detail of the first recorded check that fails on a fresh query of
    phi, or "" if none does; checks after it query phi no further."""
    for step in steps:
        checks = step.checks
        nat, holds, bound = checks.kind == "nat", RELATIONS[checks.relation], checks.bound
        for args, value in zip(checks.args, checks.values):
            fresh = phi(args[0]) if nat else phi(args)
            if fresh != value or not holds(value, bound):
                point = args[0] if nat else set(args)
                return (f"step {step.index}: phi({point}) = {value} {checks.relation} {bound}"
                        f" (fresh {fresh})")
    return ""


def verify_transcript(t: Transcript, coloring=None) -> Report:
    """Re-verify a transcript against a coloring: every recorded inequality
    must hold on fresh queries, the stored image must equal the recomputed
    one, and the certificate must match and respect its majorant."""
    if t.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {t.strategy!r}")
    phi = coloring if coloring is not None else t.coloring
    bad = _first_bad_check(t.steps, phi)
    report = Report(meta={"strategy": t.strategy}).add("checks", not bad, bad)
    recomputed = NatSet(phi.values(list(STRATEGIES[t.strategy].image(t.witness))))
    report.add("image", recomputed == t.image,
               "" if recomputed == t.image else "image drifted on re-query")
    # The recomputed sum p/q, left unreduced, equals c = n/d exactly when p d == n q.
    p, q = reciprocal_terms(recomputed.elements)
    c = t.certified_sum
    report.add("certificate", p * c.denominator == c.numerator * q, rational_str(c))
    if t.majorant is not None:
        report.add("majorant", t.certified_sum <= t.majorant,
                   f"{rational_str(t.certified_sum)} <= {rational_str(t.majorant)}")
    return report
