"""Property tests for the canonical classifiers against the conftest oracles.

Colorings come in two shapes: random tables over a small palette, and exact
patterns (constant, min, max, min-max, injective) with at most one value
perturbed, so that both classified and unclassified ground sets occur.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforge import (
    NatColoring,
    NatSet,
    PairColoring,
    classify_fs_on,
    classify_pairs_on,
    find_block_basis,
    find_canonical_subset,
)
from idealforge.canonical import high_bit, low_bit
from idealforge.errors import Incomplete, WindowExceeded

from conftest import (
    FS_CASES,
    PAIR_CASES,
    fs_flags_oracle,
    naive_find_block_basis,
    naive_find_canonical,
    pair_flags_oracle,
    random_block_basis,
    subset_sum_counts,
)

SETTINGS = settings(max_examples=150, deadline=None)

PAIR_KEYS = {
    "const": lambda p: 0,
    "min": lambda p: p[0],
    "max": lambda p: p[1],
    "inj": lambda p: p,
}
FS_KEYS = {
    "const": lambda x: 0,
    "min": low_bit,
    "max": high_bit,
    "minmax": lambda x: (low_bit(x), high_bit(x)),
    "inj": lambda x: x,
}
shapes = st.sampled_from(["table"] + sorted(PAIR_KEYS))
fs_shapes = st.sampled_from(["table"] + sorted(FS_KEYS))


def _colors(rng, points, shape, keys):
    """Colors of the points: a random table over 0..3, or a pattern's keys
    sent injectively to naturals, then perhaps one value perturbed."""
    if shape == "table":
        return {p: rng.randint(0, 3) for p in points}
    key = keys[shape]
    labels = sorted({key(p) for p in points})
    rho = dict(zip(labels, rng.sample(range(10 ** 6), len(labels))))
    colors = {p: rho[key(p)] for p in points}
    if rng.random() < 0.5:
        colors[rng.choice(list(points))] = rng.randint(0, 3)
    return colors


def _pair_coloring(rng, n, shape):
    table = _colors(rng, list(itertools.combinations(range(n), 2)), shape, PAIR_KEYS)
    return PairColoring.from_table(n, table)


def _nat_coloring(rng, elements, shape, window):
    colors = _colors(rng, sorted(subset_sum_counts(elements)), shape, FS_KEYS)
    return NatColoring(window, fn=lambda x: colors.get(x, 0))


def _expected(flags, cases):
    alive = [c for c in cases if flags[c]]
    assert len(alive) <= 1
    return alive[0] if alive else None


@SETTINGS
@given(st.integers(3, 7), shapes, st.randoms(use_true_random=False))
def test_classify_pairs_matches_the_pairwise_scan(n, shape, rng):
    phi = _pair_coloring(rng, n, shape)
    T = sorted(rng.sample(range(n), rng.randint(3, n)))
    pairs = list(itertools.combinations(T, 2))
    flags = pair_flags_oracle(pairs, [phi(p) for p in pairs])
    assert classify_pairs_on(phi, NatSet(T)) is _expected(flags, PAIR_CASES)


@SETTINGS
@given(st.integers(3, 7), shapes, st.randoms(use_true_random=False))
def test_find_canonical_subset_matches_enumeration(n, shape, rng):
    phi = _pair_coloring(rng, n, shape)
    for m in range(3, n + 1):
        assert find_canonical_subset(phi, m) == naive_find_canonical(phi, m)
    with pytest.raises(ValueError, match=f"m = {n + 1} exceeds the ground size {n}"):
        find_canonical_subset(phi, n + 1)


@SETTINGS
@given(st.integers(3, 5), fs_shapes, st.randoms(use_true_random=False))
def test_classify_fs_matches_the_pairwise_scan(size, shape, rng):
    C = random_block_basis(rng, size)
    phi = _nat_coloring(rng, C.elements, shape, sum(C.elements) + 1)
    points = sorted(subset_sum_counts(C.elements))
    flags = fs_flags_oracle(points, [phi(x) for x in points])
    assert classify_fs_on(phi, C) is _expected(flags, FS_CASES)


@SETTINGS
@given(st.integers(3, 6), fs_shapes, st.randoms(use_true_random=False))
def test_find_block_basis_matches_enumeration(size, shape, rng):
    pool = random_block_basis(rng, size)
    phi = _nat_coloring(rng, pool.elements, shape, sum(pool.elements) + 1)
    for m in range(3, size + 1):
        assert find_block_basis(phi, pool, m) == naive_find_block_basis(phi, pool, m)
    with pytest.raises(ValueError, match=f"m = {size + 1} exceeds the pool size {size}"):
        find_block_basis(phi, pool, size + 1)


@SETTINGS
@given(st.integers(3, 5), st.randoms(use_true_random=False))
def test_small_windows_raise_on_the_least_finite_sum_outside(size, rng):
    C = random_block_basis(rng, size)
    window = rng.randint(1, sum(C.elements))
    x = min(p for p in subset_sum_counts(C.elements) if p >= window)
    message = f"finite sum {x} outside coloring window \\[0, {window}\\)"
    with pytest.raises(WindowExceeded, match=message):
        classify_fs_on(NatColoring.identity(window), C)

    # the search classifies the least three elements first
    first = C.elements[:3]
    window = rng.randint(1, sum(first))
    x = min(p for p in subset_sum_counts(first) if p >= window)
    message = f"finite sum {x} outside coloring window \\[0, {window}\\)"
    with pytest.raises(WindowExceeded, match=message):
        find_block_basis(NatColoring.identity(window), C, rng.randint(3, size))


def _outcome(phi, point):
    try:
        return phi(point)
    except (ValueError, WindowExceeded) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_a_table_coloring_is_the_same_coloring_given_as_fn(n, rng):
    # negative values are allowed in both forms and rejected when queried
    values = {x: rng.randint(-1, 3) for x in range(n)}
    nat_table = NatColoring.from_table(n, values)
    nat_fn = NatColoring(n, fn=lambda x: values[x])
    for x in range(-1, n + 1):
        assert _outcome(nat_table, x) == _outcome(nat_fn, x)
    if n < 2:
        return
    colors = {p: rng.randint(-1, 3) for p in itertools.combinations(range(n), 2)}
    table = {(p if rng.random() < 0.5 else p[::-1]): v for p, v in colors.items()}
    pair_table = PairColoring.from_table(n, table)
    pair_fn = PairColoring(n, fn=lambda i, j: colors[i, j])
    for p in itertools.product(range(-1, n + 1), repeat=2):
        assert _outcome(pair_table, p) == _outcome(pair_fn, p)


@SETTINGS
@given(st.integers(-1, 6), st.randoms(use_true_random=False))
def test_table_errors_come_in_order_size_pair_totality(n, rng):
    pairs = list(itertools.combinations(range(max(n, 0)), 2))
    items = [(p, 0) for p in pairs if rng.random() < 0.8]
    for bad in rng.sample([(1, 1), (0, n), (n + 1, 0)], rng.randint(0, 2)):
        items.insert(rng.randint(0, len(items)), (bad, 0))
    table = dict(items)
    bad = [(i, j) for i, j in table if i == j or not (0 <= i < n and 0 <= j < n)]
    missing = [p for p in pairs if p not in table]
    if n < 2:
        with pytest.raises(ValueError, match="pair coloring needs n >= 2"):
            PairColoring.from_table(n, table)
    elif bad:
        i, j = bad[0]
        with pytest.raises(ValueError, match=re.escape(f"bad pair ({i},{j}) for n={n}")):
            PairColoring.from_table(n, table)
    elif missing:
        with pytest.raises(Incomplete) as exc:
            PairColoring.from_table(n, table)
        assert exc.value.missing == missing
    else:
        assert PairColoring.from_table(n, table).n == n

    points = [x for x in range(max(n, 0)) if rng.random() < 0.8]
    if n <= 0:
        with pytest.raises(ValueError, match="window must be > 0"):
            NatColoring.from_table(n, dict.fromkeys(points, 0))
    elif len(points) < n:
        with pytest.raises(Incomplete) as exc:
            NatColoring.from_table(n, dict.fromkeys(points, 0))
        assert exc.value.missing == [x for x in range(n) if x not in points]


NAT_BUILTINS = {
    "identity": NatColoring.identity,
    "min-alpha": NatColoring.min_alpha,
    "max-alpha": NatColoring.max_alpha,
    "minmax-alpha": NatColoring.minmax_alpha,
}
PAIR_BUILTINS = {
    "minimum": PairColoring.minimum,
    "maximum": PairColoring.maximum,
    "pairing": PairColoring.pairing,
}


def _result(call):
    try:
        return "ok", call()
    except (WindowExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _builtin_nat(rng, family, window):
    if family == "table":
        return NatColoring.from_table(window, {x: rng.randrange(1 << rng.randint(1, 40))
                                               for x in range(window)})
    if family == "const":
        return NatColoring.constant(window, rng.randint(0, 64))
    return NAT_BUILTINS[family](window)


def _builtin_pair(rng, family, n):
    if family == "table":
        return PairColoring.from_table(n, {p: rng.randrange(1 << rng.randint(1, 40))
                                           for p in itertools.combinations(range(n), 2)})
    if family == "const":
        return PairColoring.constant(n, rng.randint(0, 64))
    return PAIR_BUILTINS[family](n)


@SETTINGS
@given(st.data(), st.integers(2, 40), st.randoms(use_true_random=False))
def test_bulk_values_equal_the_per_point_loop(data, size, rng):
    """values(points) gives the values, or the first error, of querying the
    points one by one, on arbitrary lists: unsorted and repeated points,
    points below and past the window, swapped, degenerate and out-of-range
    pairs, and planted negative values; when it gives the values, the
    evaluator ran once on each point."""
    kind = data.draw(st.sampled_from(["nat", "pair"]))
    coord = st.integers(0, size - 1)
    outside = st.sampled_from([-2, -1, size, size + 1])
    if kind == "nat":
        family = data.draw(st.sampled_from(sorted(NAT_BUILTINS) + ["const", "table"]))
        phi = _builtin_nat(rng, family, size)
        inside, strays = coord, outside
    else:
        family = data.draw(st.sampled_from(sorted(PAIR_BUILTINS) + ["const", "table"]))
        phi = _builtin_pair(rng, family, size)
        inside = st.tuples(coord, coord)
        strays = (st.tuples(coord, outside) | st.tuples(outside, coord)
                  | st.tuples(outside, outside) | coord.map(lambda i: (i, i)))
    # points in the domain, with a few strays at random places among them
    points = data.draw(st.lists(inside, max_size=30))
    for stray in data.draw(st.lists(strays, max_size=3)):
        points.insert(data.draw(st.integers(0, len(points))), stray)
    planted = data.draw(st.sets(st.sampled_from(points), max_size=3)) if points else set()
    negative = {p if kind == "nat" else (min(p), max(p)) for p in planted}
    fn, calls = phi._fn, []

    def counted(*args):
        calls.append(args)
        if (args[0] if kind == "nat" else args) in negative:
            return -1 - len(calls) % 5
        return fn(*args)

    phi = type(phi)(size, fn=counted)
    got = _result(lambda: phi.values(points))
    bulk_calls, calls[:] = len(calls), []
    assert got == _result(lambda: [phi(p) for p in points])
    if got[0] == "ok":
        assert bulk_calls == len(points)


@pytest.mark.parametrize("phi,points", [
    (NatColoring.identity(5), [0, 4, -1]), (NatColoring.identity(5), [5, 0]),
    (NatColoring(5, fn=lambda x: 3 - x), [0, 4, 5]),
    (NatColoring.identity(5), range(2, 6)), (NatColoring.identity(5), range(-1, 3)),
    (NatColoring.identity(5), range(4, -1, -2)), (NatColoring(5, fn=lambda x: 3 - x), range(5)),
    (PairColoring.pairing(5), [(0, 1), (-1, 3)]), (PairColoring.pairing(5), [(4, 5)]),
    (PairColoring.pairing(5), [(3, 1), (2, 2)]), (PairColoring.pairing(5), [(1, 2, 3)]),
    (PairColoring(5, fn=lambda i, j: 2 - j), [(0, 4), (5, 1)]),
], ids=["nat below", "nat past", "nat negative before past", "range past", "range below",
        "range descending", "range negative", "pair below", "pair past",
        "pair degenerate", "pair of three", "pair negative first"])
def test_bulk_values_at_the_edge_of_the_domain(phi, points):
    assert _result(lambda: phi.values(points)) == _result(lambda: [phi(p) for p in points])
