"""Independent output checks for the benchmark.

Nothing here imports idealforge.  Every expected answer is recomputed from
the generated inputs with deliberately different algorithms: subset-sum
bitmask enumeration, partition counting for the canonical cases, full
enumeration for searches, and exact ``Fraction`` sums for certificates.  A
check raises ``Bad`` with a reason; the caller counts the op as failed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Bad(Exception):
    """An output disagrees with the benchmark's own recomputation."""


def need(condition, reason: str) -> None:
    if not condition:
        raise Bad(reason)


def rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------- colorings

def low_bit(x: int) -> int:
    return x & -x


def high_bit(x: int) -> int:
    return 0 if x == 0 else 1 << (x.bit_length() - 1)


def cantor(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def nat_fn(spec):
    """A coloring of naturals from its spec ``(family, scale, offset)``.

    Values are ``scale * key(x) + offset``; scale >= 1 keeps the key's
    partition and never lowers a value, so the paper's thresholds still hold.
    """
    family, scale, offset = spec
    if family == "const":
        return lambda x: offset
    key = {
        "identity": lambda x: x,
        "min": low_bit,
        "max": high_bit,
        "minmax": lambda x: cantor(low_bit(x), high_bit(x)),
        "xor": lambda x: x ^ offset,
        "affine": lambda x: (scale * x + offset) % 32768,
    }[family]
    if family in ("xor", "affine"):
        return key
    return lambda x: scale * key(x) + offset


def pair_fn(spec):
    """A coloring of pairs ``i < j`` from its spec ``(family, scale, offset)``."""
    family, scale, offset = spec
    if family == "const":
        return lambda i, j: offset
    key = {
        "min": lambda i, j: i,
        "max": lambda i, j: j,
        "pairing": cantor,
    }[family]
    return lambda i, j: scale * key(i, j) + offset


# ------------------------------------------------------- subset-sum helpers

def subset_sums(basis):
    """{sum: mask} over the nonempty subsets, or None if two sums collide."""
    xs = list(basis)
    table = {}
    for mask in range(1, 1 << len(xs)):
        s = sum(x for i, x in enumerate(xs) if mask >> i & 1)
        if s in table:
            return None
        table[s] = mask
    return table


def plain_sums(basis) -> set:
    out = {0}
    for b in basis:
        out |= {s + b for s in out}
    out.discard(0)
    return out


def least_fs_basis(A, k: int):
    """Lexicographically least k-subset of A with distinct sums inside A."""
    xs = sorted(set(A))
    members = set(xs)
    if len(xs) < k:
        return None
    if k == 1:
        return [xs[0]]
    for combo in itertools.combinations(xs, k):
        if subset_sums(combo) is not None and plain_sums(combo) <= members:
            return list(combo)
    return None


def least_pair_basis(A):
    """``least_fs_basis(A, 2)`` in O(|A|^2) for the large per-digit filters."""
    xs = sorted(set(A))
    members = set(xs)
    for i, a in enumerate(xs):
        if a == 0:
            continue  # {0, b} has the colliding sums b and 0 + b
        for b in xs[i + 1:]:
            if a + b in members:
                return [a, b]
    return None


def very_sparse_counterexample(basis):
    """First pair x < y of FS with overlapping supports and x + y in FS."""
    table = subset_sums(basis)
    need(table is not None, "basis is not sparse")
    points = sorted(table)
    for i, x in enumerate(points):
        mx = table[x]
        for y in points[i + 1:]:
            if mx & table[y] and (x + y) in table:
                return [x, y]
    return None


# ---------------------------------------------------- canonical partitions

def partition_case(keyed, cases):
    """The unique case whose key partition equals the value partition.

    ``keyed`` lists ``(value, {case: key})``.  Equal value iff equal key holds
    exactly when the value, key and joint partitions have the same number of
    blocks.  CONST and INJ are the one-block and all-singleton partitions.
    """
    values = [v for v, _ in keyed]
    n_values = len(set(values))
    holding = []
    for case in cases:
        if case == "const":
            ok = n_values == 1
        elif case == "inj":
            ok = n_values == len(values)
        else:
            keys = [k[case] for _, k in keyed]
            ok = n_values == len(set(keys)) == len(set(zip(values, keys)))
        if ok:
            holding.append(case)
    need(len(holding) <= 1, f"cases not exclusive: {holding}")
    return holding[0] if holding else None


def fs_case(fn, basis):
    keyed = []
    for s in plain_sums(basis):
        lo, hi = low_bit(s), high_bit(s)
        keyed.append((fn(s), {"min": lo, "max": hi, "minmax": (lo, hi)}))
    return partition_case(keyed, ("const", "min", "max", "minmax", "inj"))


def pair_case(fn, ground):
    keyed = [(fn(i, j), {"min": i, "max": j})
             for i, j in itertools.combinations(sorted(ground), 2)]
    return partition_case(keyed, ("const", "min", "max", "inj"))


# ------------------------------------------------------------- transcripts

def majorant(strategy: str, case, n_max: int, const_value) -> Fraction:
    total = Fraction(0)
    if strategy == "w-summable":
        for n in range(1, n_max + 1):
            total += Fraction(n, n * 2 ** n + 1)
        return total
    if case == "const":
        return Fraction(1, const_value + 1)
    if strategy == "r-summable":
        for n in range(n_max):
            total += Fraction(1, 2 ** n)
        return total
    for n in range(n_max):
        if case in ("min", "max"):
            total += Fraction(1, 2 ** n + 1)
        elif case == "minmax":
            total += Fraction(n + 1, n * 2 ** n + 1)
        else:
            total += Fraction(2 ** n, 4 ** n + 1)
    return total


def _holds(value: int, relation: str, bound: int) -> bool:
    if relation == ">":
        return value > bound
    if relation == ">=":
        return value >= bound
    need(relation == "==", f"unknown relation {relation!r}")
    return value == bound


def check_transcript(doc: dict, spec: dict) -> None:
    """Check a serialized transcript against a fresh coloring.

    ``spec`` holds what the generator handed the library: ``kind`` ("nat"
    or "pair"), the coloring ``fn`` spec, and the pool or ground set.
    Every recorded inequality is re-queried, the image is rebuilt from the
    witness, the certificate is summed exactly and compared with the
    majorant formula.
    """
    strategy = doc["strategy"]
    params = doc["params"]
    n_max = params.get("n_max")
    if spec["kind"] == "nat":
        phi1 = nat_fn(spec["fn"])

        def fresh(args):
            return phi1(args[0])
    else:
        phi2 = pair_fn(spec["fn"])

        def fresh(args):
            i, j = args
            return phi2(min(i, j), max(i, j))

    for step in doc["steps"]:
        for ck in step["checks"]:
            value = fresh(ck["args"])
            need(value == ck["value"],
                 f"step {step['index']}: recorded {ck['value']}, fresh {value}")
            need(_holds(value, ck["relation"], ck["bound"]),
                 f"step {step['index']}: {value} {ck['relation']} {ck['bound']} fails")

    witness = doc["witness"]
    const_value = None
    case = params.get("case")
    if strategy == "w-summable":
        blocks = witness["blocks"]
        need(len(blocks) == n_max and len(doc["steps"]) == n_max, "wrong step count")
        union = set()
        for n, block in enumerate(blocks, 1):
            need(len(block) == n, f"block {n} has {len(block)} terms")
            diffs = {b - a for a, b in zip(block, block[1:])}
            need(len(diffs) <= 1 and min(diffs, default=1) > 0,
                 f"block {n} is not a progression")
            need(all(phi1(x) >= n * 2 ** n for x in block), f"block {n} below threshold")
            union.update(block)
        need(sorted(union) == witness["set"], "witness set is not the union of blocks")
        image = {phi1(x) for x in union}
    elif strategy == "h-summable":
        basis = witness["basis"]
        need(set(basis) <= set(spec["pool"]), "basis leaves the pool")
        need(max(plain_sums(basis)) < params["window"], "sums leave the window")
        image = {phi1(s) for s in plain_sums(basis)}
        if case == "const":
            const_value = phi1(basis[0])
        elif len(basis) >= 3:
            need(fs_case(phi1, basis) == case, "selected basis is not in its case")
    elif strategy == "r-summable":
        H = witness["h"]
        need(set(H) <= set(spec["ground"]), "witness leaves the ground set")
        pairs = list(itertools.combinations(sorted(H), 2))
        image = {phi2(i, j) for i, j in pairs}
        if case == "const":
            const_value = phi2(*pairs[0])
        if len(H) >= 3:
            need(pair_case(phi2, H) == case, "selected set is not in its case")
    else:
        raise Bad(f"unknown strategy {strategy!r}")

    need(sorted(image) == doc["image"], "image differs from the recomputed one")
    cert = sum((Fraction(1, v + 1) for v in image), Fraction(0))
    need(doc["certificate"]["sum"] == rational(cert),
         f"certificate {doc['certificate']['sum']} != {rational(cert)}")
    bound = majorant(strategy, case, n_max, const_value)
    need(doc["certificate"]["majorant"] == rational(bound), "majorant formula differs")
    need(cert <= bound, "certificate exceeds its majorant")


# ------------------------------------------------------------- sums checks

def check_sums(inputs: dict, out: dict) -> None:
    """Greedy basis, unique decompositions, conflict sets as per-digit
    unions, basis-free filters and very-sparseness, all by enumeration."""
    expected = []
    total = 0
    for x in inputs["pool"]:
        if x > 2 * total:
            expected.append(x)
            total += x
            if len(expected) == inputs["k"]:
                break
    need(out["basis"] == expected, f"basis {out['basis']} != greedy {expected}")
    table = subset_sums(expected)
    need(table is not None, "greedy basis is not sparse")
    points = sorted(table)
    need(out["fs"] == points, "finite sums differ")
    digits = {d: i for i, d in enumerate(expected)}
    for x in points:
        need(out["alpha"][x] == [d for d in expected if table[x] >> digits[d] & 1],
             f"alpha({x}) differs")
    per_digit = {d: [x for x in points if table[x] >> i & 1] for d, i in digits.items()}
    for y in points:
        union = set()
        for d, i in digits.items():
            if table[y] >> i & 1:
                union.update(per_digit[d])
        need(out["conflict"][y] == sorted(union), f"conflict set of {y} differs")
    for d in expected:
        need(out["fs_subset"][d] == least_pair_basis(per_digit[d]),
             f"fs subset of the digit-{d} filter differs")
    need(out["very_sparse"] == [True, None], f"very-sparse flag {out['very_sparse']}")


def check_hindman(inputs: dict, out: dict) -> None:
    """Re-derive items (a)-(d) of a grown chain and its certificate."""
    table = {tuple(p): v for p, v in inputs["f"]}

    def f(u, v):
        return table[(min(u, v), max(u, v))]

    sums = subset_sums(inputs["basis"])
    need(sums is not None, "chain basis is not sparse")
    b, B = out["b"], [set(r) for r in out["reservoirs"]]
    need(len(b) == len(B) == inputs["depth"], "chain has the wrong depth")
    need(B[0] == set(range(inputs["n"])), "first reservoir is not the window")
    for n, bn in enumerate(b):
        need(bn in B[n], f"(a) b_{n} outside its reservoir")
        need(n == 0 or bn > b[n - 1], f"(a) b_{n} does not ascend")
        need(n == 0 or B[n] <= B[n - 1], f"(b) B_{n} not nested")
        ys = {f(u, v) for u, v in itertools.combinations(b[:n], 2)}
        conflicts = {x for x, m in sums.items() if any(m & sums[y] for y in ys)}
        for u, v in itertools.combinations(sorted(B[n]), 2):
            need(f(u, v) not in conflicts, f"(c) f({u},{v}) hits a conflict set")
        for i in range(n):
            for y in ys:
                row = {f(b[i], u) for u in B[n] if u != b[i]}
                shifted = [v - y for v in row if v >= y]
                need(least_fs_basis(shifted, inputs["fs_size"]) is None,
                     f"(d) shifted row of b_{i} carries a basis")
    image = {f(u, v) for u, v in itertools.combinations(b, 2)}
    need(out["image"] == sorted(image), "image differs")
    cert = sum((Fraction(1, v + 1) for v in image), Fraction(0))
    need(out["certificate"] == cert, "certificate differs")
    need(out["report"] == [True, []], f"checker report {out['report']}")
