"""The three benchmark workloads: seeded generators, executors and checks.

A workload runs in rounds.  A round is a fixed list of op kinds, so every
run has the same mix whatever its seed; the seed only changes the inputs
inside each kind.  ``execute`` is the timed part of an op and returns plain
data; ``check`` judges that data with ``checks`` and never calls the
library.

Executors reach the library through module attributes (``adversary.X``,
``sparse.X``) so that the traced run can wrap a function where callers bind
it and see the benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

from idealforge import adversary, canonical, cli, ideals, report, sparse

import checks
from checks import need

# ------------------------------------------------------------------ replay

W_WINDOW = 32768
H_WINDOW = 1 << 25
H_POOL = tuple(1 << j for j in range(24))
H_CASES = ("const", "min", "max", "minmax", "inj")
# Step counts cycle with period 4 in every strategy, so four rounds hold the
# whole mix; the w coloring family changes from one cycle to the next.
W_NMAX = (6, 8, 9, 10)
R_CASES = ("const", "min", "max", "inj")


def _replay_round(rng, r: int, ctx):
    ops = []
    family = ("identity", "xor", "affine")[r // 4 % 3]
    scale = rng.choice((1, 3, 5, 7)) if family == "affine" else 1
    offset = rng.randrange(W_WINDOW) if family != "identity" else 0
    ops.append({"strategy": "w", "nmax": W_NMAX[r % len(W_NMAX)],
                "fn": (family, scale, offset)})
    for i, case in enumerate(H_CASES):
        family = "identity" if case == "inj" else case
        if case == "const":
            fn = ("const", 1, rng.randint(1, 64))
        else:
            fn = (family, rng.randint(1, 3), rng.randint(0, 8))
        ops.append({"strategy": "h", "case": case, "nmax": 6 + (r + i) % 4, "fn": fn})
    for i, case in enumerate(R_CASES):
        size = rng.randint(560, 620)
        ground = sorted(rng.sample(range(size), rng.randint(530, size)))
        if case == "const":
            fn = ("const", 1, rng.randint(0, 64))
        else:
            fn = ("pairing" if case == "inj" else case, rng.randint(1, 3), rng.randint(0, 8))
        ops.append({"strategy": "r", "case": case, "nmax": 6 + (r + i) % 4,
                    "fn": fn, "ground": ground})
    rng.shuffle(ops)
    for op in ops:
        _bind_replay(op)
    return ops


def _bind_replay(op):
    """Build the library inputs for an op (outside the timed region)."""
    budget = adversary.SearchBudget(max_element=W_WINDOW, max_steps=op["nmax"])
    if op["strategy"] == "w":
        phi = canonical.NatColoring(W_WINDOW, fn=checks.nat_fn(op["fn"]))
        op["call"] = ("defeat_w_summable", (phi, budget))
        op["spec"] = {"kind": "nat", "fn": op["fn"]}
    elif op["strategy"] == "h":
        phi = canonical.NatColoring(H_WINDOW, fn=checks.nat_fn(op["fn"]))
        op["call"] = ("defeat_h_summable",
                      (phi, canonical.BlockBasis(H_POOL),
                       canonical.CanonicalCase(op["case"]), budget))
        op["spec"] = {"kind": "nat", "fn": op["fn"], "pool": H_POOL}
    else:
        n = op["ground"][-1] + 1
        phi = canonical.PairColoring(n, fn=checks.pair_fn(op["fn"]))
        op["call"] = ("defeat_r_summable",
                      (phi, ideals.NatSet(op["ground"]),
                       canonical.CanonicalCase(op["case"]), budget))
        op["spec"] = {"kind": "pair", "fn": op["fn"], "ground": op["ground"]}


def _replay_execute(op, span):
    construct, args = op["call"]
    t = getattr(adversary, construct)(*args)
    verdict = adversary.verify_transcript(t)
    return {"text": report.dumps_stable(t), "verified": verdict.passed}


def _replay_check(op, out):
    need(out["verified"], "the library's own re-verification failed")
    checks.check_transcript(json.loads(out["text"]), op["spec"])


# -------------------------------------------------------------------- sums

def log_uniform_pool(rng, bands: int = 27, per_band: int = 2):
    """A few draws from every dyadic band, so doubling greedy can climb."""
    out = set()
    for j in range(bands):
        for _ in range(per_band):
            out.add(rng.randrange(1 << j, 1 << (j + 1)))
    return sorted(out)


HINDMAN_POINTS = 5
HINDMAN_DEPTH = 4


# k = 8 twice and two hindman ops per round: costs rise steeply with k, and
# this mix puts the median inside the k = 6 ops and the p90 inside the
# k = 8 ops rather than on the edge between two groups.
SUMS_KS = (1, 2, 3, 4, 5, 6, 7, 8, 8)


def _hindman_op(rng):
    basis = [rng.randint(1, 8)]
    while len(basis) < HINDMAN_POINTS * (HINDMAN_POINTS - 1) // 2:
        basis.append(2 * sum(basis) + rng.randint(1, sum(basis) + 1))
    values = list(basis)
    rng.shuffle(values)
    pairs = itertools.combinations(range(HINDMAN_POINTS), 2)
    return {"kind": "hindman", "n": HINDMAN_POINTS, "depth": HINDMAN_DEPTH,
            "fs_size": 2, "basis": basis, "f": list(zip(pairs, values))}


def _sums_round(rng, r: int, ctx):
    ops = [{"kind": "basis", "k": k, "pool": log_uniform_pool(rng)} for k in SUMS_KS]
    ops += [_hindman_op(rng), _hindman_op(rng)]
    rng.shuffle(ops)
    for op in ops:
        if op["kind"] == "basis":
            op["pool_set"] = ideals.NatSet(op["pool"])
        else:
            op["table"] = {p: v for p, v in op["f"]}
    return ops


def _sums_execute(op, span):
    if op["kind"] == "hindman":
        return _hindman_execute(op)
    D = sparse.very_sparse_subset(op["pool_set"], op["k"])
    with span("sparse", "SparseBasis.alpha"):
        points = D.fs_set().elements
        alphas = {x: D.alpha(x) for x in points}
    conflict = {y: list(sparse.conflict_set(D, y).elements) for y in points}
    fs_subset = {}
    for d in D.elements:
        hit = sparse.find_fs_subset(ideals.NatSet(x for x in points if d in alphas[x]), 2)
        fs_subset[d] = None if hit is None else list(hit.elements)
    flag = sparse.is_very_sparse(D)
    return {
        "basis": list(D.elements),
        "fs": list(points),
        "alpha": {x: list(a.elements) for x, a in alphas.items()},
        "conflict": conflict,
        "fs_subset": fs_subset,
        "very_sparse": [flag.verified,
                        None if flag.counterexample is None else list(flag.counterexample)],
    }


def _hindman_execute(op):
    D = sparse.SparseBasis(op["basis"])
    f = canonical.PairColoring.from_table(op["n"], op["table"])
    budget = adversary.SearchBudget(max_element=op["n"], max_steps=op["depth"],
                                    candidate_cap=4)
    t = adversary.defeat_r_hindman(f, D, budget, fs_size=op["fs_size"])
    b = list(t.witness["b"].elements)
    chain = t.witness["reservoirs"]
    verdict = adversary.check_hnr_conditions(b, chain, f, D, fs_size=op["fs_size"])
    return {
        "b": b,
        "reservoirs": [list(B.elements) for B in chain],
        "image": list(t.image.elements),
        "certificate": t.certified_sum,
        "report": [verdict.passed, verdict.failed_names()],
    }


def _sums_check(op, out):
    if op["kind"] == "hindman":
        checks.check_hindman(op, out)
    else:
        checks.check_sums(op, out)


# ----------------------------------------------------------------- queries

def _lit(xs) -> str:
    return ",".join(str(x) for x in sorted(xs))


def _sample(rng, hi: int, lo_size: int, hi_size: int, lo: int = 0):
    return sorted(rng.sample(range(lo, hi), rng.randint(lo_size, hi_size)))


def _random_sparse(rng, size: int, top: int = 200):
    while True:
        basis = sorted(rng.sample(range(1, top), size))
        if checks.subset_sums(basis) is not None:
            return basis


def _block_pool(rng, size: int, bit_budget: int = 7):
    """Elements with binary supports in disjoint ascending bit blocks."""
    while True:
        out, bit = [], 0
        for _ in range(size):
            width = rng.randint(1, 2)
            out.append(rng.randint(1, (1 << width) - 1) << bit)
            bit += width + rng.randint(0, 1)
        if bit <= bit_budget:
            return out


def _q_oracle_vdw(rng, ctx):
    A = _sample(rng, 48, 8, 20)
    op = rng.choice(("positive", "longest-ap", "find-ap"))
    argv = ["oracle", "--ideal", "vdw", "--op", op, "--set", _lit(A)]
    q = {"A": A, "op": op}
    if op == "positive":
        q["ap_len"] = rng.randint(3, 5)
        argv += ["--ap-len", str(q["ap_len"])]
    elif op == "find-ap":
        q["k"] = rng.randint(3, 5)
        argv += ["--k", str(q["k"])]
    return argv, q


def _longest_ap(A) -> int:
    members = set(A)
    best = min(len(A), 1)
    for a, b in itertools.combinations(sorted(A), 2):
        length, nxt = 2, b + (b - a)
        while nxt in members:
            length, nxt = length + 1, nxt + (b - a)
        best = max(best, length)
    return best


def _first_ap(A, k):
    members = set(A)
    for a in sorted(A):
        for d in range(1, max(A) + 1):
            if a + (k - 1) * d > max(A):
                break
            if all(a + j * d in members for j in range(k)):
                return {"start": a, "difference": d}
    return None


def _c_oracle_vdw(q, body):
    if q["op"] == "positive":
        need(body["positive"] == (_longest_ap(q["A"]) >= q["ap_len"]), "vdw positivity")
    elif q["op"] == "longest-ap":
        need(body["longest_ap"] == _longest_ap(q["A"]), "longest progression")
    else:
        need(body["progression"] == _first_ap(q["A"], q["k"]), "first progression")


def _q_oracle_summable(rng, ctx):
    A = _sample(rng, 30, 3, 10)
    if rng.random() < 0.5:
        return ["oracle", "--ideal", "summable", "--op", "sum", "--set", _lit(A)], \
            {"A": A, "tau": None}
    tau = rng.choice(("1", "3/2", "2", "5/2"))
    return ["oracle", "--ideal", "summable", "--set", _lit(A), "--tau", tau], \
        {"A": A, "tau": tau}


def _c_oracle_summable(q, body):
    total = sum((Fraction(1, a + 1) for a in q["A"]), Fraction(0))
    if q["tau"] is None:
        need(body["reciprocal_sum"] == checks.rational(total), "reciprocal sum")
    else:
        need(body["positive"] == (total >= Fraction(q["tau"])), "summable positivity")


def _q_oracle_fin(rng, ctx):
    window = rng.randint(8, 40)
    A = _sample(rng, window, 2, window)
    target = rng.randint(1, min(len(A), (window - 1) // 2))
    op = rng.choice(("positive", "tall-witness"))
    return ["oracle", "--ideal", "fin", "--op", op, "--set", _lit(A),
            "--window", str(window), "--target", str(target)], \
        {"A": A, "window": window, "target": target, "op": op}


def _c_oracle_fin(q, body):
    if q["op"] == "positive":
        need(body["positive"] == (2 * len(q["A"]) >= q["window"]), "fin positivity")
    else:
        B = body["witness"]
        need(set(B) <= set(q["A"]) and len(B) >= q["target"], "witness too small")
        need(2 * len(B) < q["window"], "fin witness is positive")


def _q_oracle_ramsey(rng, ctx):
    n = rng.randint(5, 9)
    density = rng.uniform(0.4, 0.8)
    edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < density]
    k = rng.randint(3, 4)
    literal = ", ".join(f"{i} {j}" for i, j in edges)
    op = rng.choice(("positive", "clique"))
    return ["oracle", "--ideal", "ramsey", "--op", op, "--edges", literal, "--n", str(n),
            "--k", str(k), "--clique-size", str(k)], {"n": n, "edges": edges, "k": k, "op": op}


def _first_clique(n, edges, k):
    es = set(edges)
    for verts in itertools.combinations(range(n), k):
        if all(p in es for p in itertools.combinations(verts, 2)):
            return list(verts)
    return None


def _c_oracle_ramsey(q, body):
    hit = _first_clique(q["n"], q["edges"], q["k"])
    if q["op"] == "positive":
        need(body["positive"] == (hit is not None), "ramsey positivity")
    else:
        need(body["clique"] == hit, "least clique")


def _q_oracle_hindman(rng, ctx):
    seed = _random_sparse(rng, rng.randint(2, 3), top=20)
    A = sorted(checks.plain_sums(seed) | set(_sample(rng, 40, 2, 8, lo=1)))
    k = rng.randint(2, 3)
    return ["oracle", "--ideal", "hindman", "--set", _lit(A), "--fs-size", str(k)], \
        {"A": A, "k": k}


def _c_oracle_hindman(q, body):
    need(body["positive"] == (checks.least_fs_basis(q["A"], q["k"]) is not None),
         "hindman positivity")


def _q_oracle_fin2(rng, ctx):
    pairs = sorted({(rng.randrange(6), rng.randrange(12)) for _ in range(rng.randint(4, 24))})
    t = rng.randint(1, 4)
    literal = ", ".join(f"{a} {b}" for a, b in pairs)
    return ["oracle", "--ideal", "fin2", "--op", "heavy-columns", "--pairs", literal,
            "--k", str(t)], {"pairs": pairs, "t": t}


def _c_oracle_fin2(q, body):
    cols = sorted({a for a, _ in q["pairs"]
                   if sum(1 for c, _ in q["pairs"] if c == a) >= q["t"]})
    need(body["heavy_columns"] == cols, "heavy columns")


def _q_fs_fs(rng, ctx):
    B = _sample(rng, 100, 3, 8, lo=1)
    op = rng.choice(("fs", "sparse"))
    return ["fs", "--op", op, "--set", _lit(B)], {"B": B, "op": op}


def _c_fs_fs(q, body):
    if q["op"] == "fs":
        need(body["fs"] == sorted(checks.plain_sums(q["B"])), "finite sums")
    else:
        need(body["sparse"] == (checks.subset_sums(q["B"]) is not None), "sparseness")


def _q_fs_alpha(rng, ctx):
    D = _random_sparse(rng, rng.randint(3, 7))
    x = rng.choice(sorted(checks.plain_sums(D)))
    op = rng.choice(("alpha", "conflict"))
    flag = "--x" if op == "alpha" else "--y"
    return ["fs", "--op", op, "--set", _lit(D), flag, str(x)], {"D": D, "x": x, "op": op}


def _c_fs_alpha(q, body):
    table = checks.subset_sums(q["D"])
    mask = table[q["x"]]
    if q["op"] == "alpha":
        need(body["alpha"] == [d for i, d in enumerate(q["D"]) if mask >> i & 1],
             "decomposition")
    else:
        need(body["conflict_set"] == sorted(s for s, m in table.items() if m & mask),
             "conflict set")


def _q_fs_very_sparse(rng, ctx):
    D = _random_sparse(rng, rng.randint(3, 6), top=80)
    return ["fs", "--op", "very-sparse", "--set", _lit(D)], {"D": D}


def _c_fs_very_sparse(q, body):
    cx = checks.very_sparse_counterexample(q["D"])
    need(body["verified"] == (cx is None) and body["counterexample"] == cx,
         "very-sparse flag")


def _q_fs_vs_subset(rng, ctx):
    pool = sorted(set(log_uniform_pool(rng, bands=16, per_band=1)) - {0})
    pool = sorted(rng.sample(pool, rng.randint(6, len(pool))))
    k = rng.randint(1, 6)
    return ["fs", "--op", "very-sparse-subset", "--pool", _lit(pool), "--k", str(k)], \
        {"pool": pool, "k": k}


def _c_fs_vs_subset(q, body, code):
    chosen, total = [], 0
    for x in q["pool"]:
        if x > 2 * total:
            chosen.append(x)
            total += x
            if len(chosen) == q["k"]:
                break
    if len(chosen) < q["k"]:
        need(code == 1 and body["error"]["code"] == "PoolExhausted", "pool exhaustion")
    else:
        need(code == 0 and body["basis"] == chosen, "greedy very sparse basis")


def _q_fs_subset(rng, ctx):
    seed = _random_sparse(rng, rng.randint(2, 3), top=24)
    A = sorted(checks.plain_sums(seed) | set(_sample(rng, 60, 2, 6, lo=1)))[:14]
    k = rng.randint(2, 3)
    return ["fs", "--op", "fs-subset", "--set", _lit(A), "--k", str(k)], {"A": A, "k": k}


def _c_fs_subset(q, body):
    need(body["basis"] == checks.least_fs_basis(q["A"], q["k"]), "least fs basis")


def _q_fs_shift(rng, ctx):
    A = _sample(rng, 64, 1, 12)
    offset = rng.randint(0, 40)
    direction = rng.choice(("up", "down"))
    return ["fs", "--op", "shift", "--set", _lit(A), "--offset", str(offset),
            "--direction", direction], {"A": A, "o": offset, "dir": direction}


def _c_fs_shift(q, body):
    o = q["o"]
    want = [a + o for a in q["A"]] if q["dir"] == "up" else [a - o for a in q["A"] if a >= o]
    need(body["shifted"] == want, "shift")


NAT_TABLE_WINDOW = 256  # nat coloring tables cover [0, 256); block pools stay below 128
PAIR_BUILTINS = {"min": ("min", 1, 0), "max": ("max", 1, 0), "pairing": ("pairing", 1, 0)}
NAT_BUILTINS = {"identity": ("identity", 1, 0), "min-alpha": ("min", 1, 0),
                "max-alpha": ("max", 1, 0), "minmax-alpha": ("minmax", 1, 0)}


def _pair_phi(rng, ctx, tables: bool):
    """A pair coloring argument and a function the check can query."""
    if tables and rng.random() < 0.5:
        path, n, table = rng.choice(ctx["pair_tables"])
        return path, n, lambda i, j: table[(i, j)]
    n = rng.randint(6, 12)
    name = rng.choice(sorted(PAIR_BUILTINS) + ["const"])
    if name == "const":
        v = rng.randint(0, 9)
        return f"const:{v}", n, checks.pair_fn(("const", 1, v))
    return name, n, checks.pair_fn(PAIR_BUILTINS[name])


def _q_canon_pairs(rng, ctx):
    phi, n, fn = _pair_phi(rng, ctx, tables=True)
    if rng.random() < 0.5:
        T = sorted(rng.sample(range(n), rng.randint(3, min(n, 6))))
        return ["canonize", "--kind", "pairs", "--phi", phi, "--window", str(n),
                "--ground", _lit(T)], {"fn": fn, "T": T, "n": n, "op": "classify"}
    m = rng.randint(3, 4)
    return ["canonize", "--kind", "pairs", "--op", "find", "--phi", phi, "--window", str(n),
            "--m", str(m)], {"fn": fn, "m": m, "n": n, "op": "find"}


def _c_canon_pairs(q, body):
    if q["op"] == "classify":
        need(body["case"] == checks.pair_case(q["fn"], q["T"]), "pair classification")
        return
    want = None
    for T in itertools.combinations(range(q["n"]), q["m"]):
        case = checks.pair_case(q["fn"], T)
        if case is not None:
            want = {"set": list(T), "case": case}
            break
    need(body["result"] == want, "least canonical subset")


def _nat_phi(rng, ctx):
    if rng.random() < 0.5:
        path, table = rng.choice(ctx["nat_tables"])
        return path, table.__getitem__
    name = rng.choice(sorted(NAT_BUILTINS) + ["const"])
    if name == "const":
        v = rng.randint(0, 9)
        return f"const:{v}", checks.nat_fn(("const", 1, v))
    return name, checks.nat_fn(NAT_BUILTINS[name])


def _q_canon_fs(rng, ctx):
    phi, fn = _nat_phi(rng, ctx)
    pool = _block_pool(rng, rng.randint(3, 5))
    window = NAT_TABLE_WINDOW
    if rng.random() < 0.5:
        return ["canonize", "--kind", "fs", "--phi", phi, "--window", str(window),
                "--ground", _lit(pool)], {"fn": fn, "pool": pool, "op": "classify"}
    m = rng.randint(3, min(4, len(pool)))
    return ["canonize", "--kind", "fs", "--op", "find", "--phi", phi, "--window", str(window),
            "--ground", _lit(pool), "--m", str(m)], {"fn": fn, "pool": pool, "m": m, "op": "find"}


def _c_canon_fs(q, body):
    if q["op"] == "classify":
        need(body["case"] == checks.fs_case(q["fn"], q["pool"]), "finite-sums classification")
        return
    want = None
    for C in itertools.combinations(q["pool"], q["m"]):
        case = checks.fs_case(q["fn"], C)
        if case is not None:
            want = {"basis": list(C), "case": case}
            break
    need(body["result"] == want, "least block basis")


SEARCH_PARAMS = ["--ap-len", "3", "--clique-size", "3", "--fs-size", "2", "--window", "64"]


def _reduction_instance(rng):
    kind = rng.randrange(3)
    if kind == 0:
        src = ("summable", _lit(rng.sample(range(4), rng.randint(2, 3))))
        dst = ("vdw", f"0..{rng.randint(4, 5)}")
        tau = rng.choice(("1/2", "1", "3/2", "100"))
    elif kind == 1:
        src = ("vdw", "0..2")
        dst = ("vdw", f"0..{rng.randint(3, 5)}")
        tau = "2"
    else:
        src = ("ramsey", "3")
        dst = ("ramsey", str(rng.randint(3, 4)))
        tau = "2"
    return {"src": src, "dst": dst, "tau": tau}


def _carrier(ideal, ground):
    if ideal == "ramsey":
        return list(itertools.combinations(range(int(ground)), 2))
    lo, _, hi = ground.partition("..")
    return list(range(int(lo), int(hi) + 1)) if hi else sorted(int(x) for x in ground.split(","))


def _positive(ideal, ground, elems, tau) -> bool:
    elems = set(elems)
    if ideal == "vdw":
        return any(a + 2 * (b - a) in elems for a, b in itertools.combinations(sorted(elems), 2))
    if ideal == "summable":
        return sum((Fraction(1, a + 1) for a in elems), Fraction(0)) >= Fraction(tau)
    return any(all(p in elems for p in itertools.combinations(v, 2))
               for v in itertools.combinations(range(int(ground)), 3))


def _minimal_positives(ideal, ground, tau):
    carrier = _carrier(ideal, ground)
    out = []
    for r in range(1, len(carrier) + 1):
        for S in itertools.combinations(carrier, r):
            if _positive(ideal, ground, S, tau) and not any(
                    _positive(ideal, ground, S[:i] + S[i + 1:], tau) for i in range(r)):
                out.append(S)
    return out


def _map_ok(inst, mapping, minimal) -> bool:
    src_ideal, src_ground = inst["src"]
    return all(_positive(src_ideal, src_ground, [mapping[x] for x in S], inst["tau"])
               for S in minimal)


def _least_reduction(inst):
    dst = _carrier(*inst["dst"])
    minimal = _minimal_positives(*inst["dst"], inst["tau"])
    for values in itertools.product(_carrier(*inst["src"]), repeat=len(dst)):
        mapping = dict(zip(dst, values))
        if _map_ok(inst, mapping, minimal):
            return mapping
    return None


def _as_json(x):
    return list(x) if isinstance(x, tuple) else x


def _q_search(rng, ctx):
    inst = _reduction_instance(rng)
    return ["search", "--src-ideal", inst["src"][0], "--src-ground", inst["src"][1],
            "--dst-ideal", inst["dst"][0], "--dst-ground", inst["dst"][1],
            "--tau", inst["tau"]] + SEARCH_PARAMS, inst


def _c_search(q, body):
    found = _least_reduction(q)
    outcome = body["outcome"]
    need(outcome["exhausted"] == (found is None), "search verdict")
    want = None if found is None else \
        [[_as_json(k), _as_json(v)] for k, v in sorted(found.items())]
    need(outcome["found"] == want, "least reduction map")


def _q_verify(rng, ctx):
    path, inst = ctx["bundles"][rng.randrange(len(ctx["bundles"]))]
    return ["verify", "--what", "reduction", "--bundle", path, "--tau", inst["tau"]] \
        + SEARCH_PARAMS, inst


def _c_verify(q, body):
    mapping = {(tuple(k) if isinstance(k, list) else k): (tuple(v) if isinstance(v, list) else v)
               for k, v in q["map"]}
    want = _map_ok(q, mapping, _minimal_positives(*q["dst"], q["tau"]))
    need(body["report"]["passed"] == want, "reduction verdict")


def _q_adv_w(rng, ctx):
    nmax = rng.randint(2, 4)
    window = rng.choice((512, 1024, 2048))
    if rng.random() < 0.25:
        v = rng.randint(2, 60)
        phi, fn = f"const:{v}", ("const", 1, v)
    else:
        phi, fn = "identity", ("identity", 1, 0)
    return ["adversary", "--strategy", "w-summable", "--phi", phi, "--nmax", str(nmax),
            "--window", str(window)], {"spec": {"kind": "nat", "fn": fn}, "nmax": nmax}


H_QUERY_CASES = {"const": None, "min": "min-alpha", "max": "max-alpha",
                 "minmax": "minmax-alpha", "inj": "identity"}


def _q_adv_h(rng, ctx):
    case = rng.choice(sorted(H_QUERY_CASES))
    bits = rng.randint(10, 12)
    nmax = rng.randint(3, 4)
    phi = H_QUERY_CASES[case]
    if phi is None:
        v = rng.randint(0, 40)
        phi, fn = f"const:{v}", ("const", 1, v)
    else:
        fn = NAT_BUILTINS[phi]
    return ["adversary", "--strategy", "h-summable", "--phi", phi, "--case", case,
            "--basis", f"pow2({bits})", "--nmax", str(nmax)], \
        {"spec": {"kind": "nat", "fn": fn, "pool": [1 << j for j in range(bits)]}}


def _q_adv_r(rng, ctx):
    case = rng.choice(R_CASES)
    size = rng.randint(30, 80)
    if case == "const":
        v = rng.randint(0, 40)
        phi, fn = f"const:{v}", ("const", 1, v)
    else:
        phi = "pairing" if case == "inj" else case
        fn = PAIR_BUILTINS[phi]
    return ["adversary", "--strategy", "r-summable", "--phi", phi, "--case", case,
            "--ground", f"0..{size - 1}", "--nmax", str(rng.randint(3, 5))], \
        {"spec": {"kind": "pair", "fn": fn, "ground": list(range(size))}}


def _c_adversary(q, body, code):
    family, _, v = q["spec"]["fn"]
    if q.get("nmax") and family == "const":
        step = next(n for n in range(1, q["nmax"] + 1) if n * 2 ** n > v) \
            if q["nmax"] * 2 ** q["nmax"] > v else None
        if step is not None:
            need(code == 2 and body["error"]["step"] == step, "predicted exhaustion")
            return
    need(code == 0 and body["reverified"]["passed"], "transcript did not re-verify")
    checks.check_transcript(body["transcript"], q["spec"])


QUERY_KINDS = {
    "oracle-vdw": (_q_oracle_vdw, _c_oracle_vdw),
    "oracle-summable": (_q_oracle_summable, _c_oracle_summable),
    "oracle-fin": (_q_oracle_fin, _c_oracle_fin),
    "oracle-ramsey": (_q_oracle_ramsey, _c_oracle_ramsey),
    "oracle-hindman": (_q_oracle_hindman, _c_oracle_hindman),
    "oracle-fin2": (_q_oracle_fin2, _c_oracle_fin2),
    "fs-fs": (_q_fs_fs, _c_fs_fs),
    "fs-alpha": (_q_fs_alpha, _c_fs_alpha),
    "fs-very-sparse": (_q_fs_very_sparse, _c_fs_very_sparse),
    "fs-vs-subset": (_q_fs_vs_subset, _c_fs_vs_subset),
    "fs-subset": (_q_fs_subset, _c_fs_subset),
    "fs-shift": (_q_fs_shift, _c_fs_shift),
    "canon-pairs": (_q_canon_pairs, _c_canon_pairs),
    "canon-fs": (_q_canon_fs, _c_canon_fs),
    "search": (_q_search, _c_search),
    "verify": (_q_verify, _c_verify),
    "adv-w": (_q_adv_w, _c_adversary),
    "adv-h": (_q_adv_h, _c_adversary),
    "adv-r": (_q_adv_r, _c_adversary),
}
# Checks that also judge the exit code, because the generator predicts an error.
CODE_AWARE = {"fs-vs-subset", "adv-w", "adv-h", "adv-r"}


def _queries_setup(rng, workdir: str):
    """Write the coloring tables and verification bundles the ops read."""
    os.makedirs(workdir, exist_ok=True)
    ctx = {"pair_tables": [], "nat_tables": [], "bundles": []}
    for i in range(4):
        n = rng.randint(5, 7)
        table = {p: rng.randint(0, 2) for p in itertools.combinations(range(n), 2)}
        path = os.path.join(workdir, f"pair{i}.tbl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{i_} {j} {v}\n" for (i_, j), v in table.items())
        ctx["pair_tables"].append((path, n, table))
    for i in range(4):
        table = [rng.randint(0, 3) for _ in range(NAT_TABLE_WINDOW)]
        path = os.path.join(workdir, f"nat{i}.tbl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{x} {v}\n" for x, v in enumerate(table))
        ctx["nat_tables"].append((path, table))
    for i in range(12):
        inst = _reduction_instance(rng)
        src, dst = _carrier(*inst["src"]), _carrier(*inst["dst"])
        inst["map"] = [[_as_json(x), _as_json(rng.choice(src))] for x in dst]
        path = os.path.join(workdir, f"reduction{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"src": {"ideal": inst["src"][0], "ground": inst["src"][1]},
                       "dst": {"ideal": inst["dst"][0], "ground": inst["dst"][1]},
                       "map": inst["map"]}, handle)
        ctx["bundles"].append((path, inst))
    return ctx


def _queries_round(rng, r: int, ctx):
    ops = []
    for kind in QUERY_KINDS:
        argv, q = QUERY_KINDS[kind][0](rng, ctx)
        ops.append({"kind": kind, "argv": argv, "q": q})
    rng.shuffle(ops)
    return ops


def _queries_execute(op, span):
    parser = cli.build_parser()
    with span("cli", "parse_args"):
        args = parser.parse_args(op["argv"])
    code, rep = cli.run(args)
    return code, report.dumps_stable(rep)


def _queries_check(op, out):
    code, text = out
    doc = json.loads(text)
    body = doc["body"]
    need(doc["header"]["subcommand"] == op["argv"][0], "header names another subcommand")
    checker = QUERY_KINDS[op["kind"]][1]
    if op["kind"] in CODE_AWARE:
        checker(op["q"], body, code)
        return
    need(code == 0, f"exit code {code}: {body.get('error')}")
    checker(op["q"], body)


class Workload:
    """``cycle`` rounds hold the whole mix; a run always ends on a whole cycle."""

    def __init__(self, name, make_round, execute, check, setup=None, cycle=1):
        self.name = name
        self.make_round = make_round
        self.execute = execute
        self.check = check
        self.setup = setup or (lambda rng, workdir: None)
        self.cycle = cycle


WORKLOADS = {
    "replay": Workload("replay", _replay_round, _replay_execute, _replay_check,
                       cycle=len(W_NMAX)),
    "sums": Workload("sums", _sums_round, _sums_execute, _sums_check),
    "queries": Workload("queries", _queries_round, _queries_execute, _queries_check,
                        _queries_setup, cycle=4),
}

