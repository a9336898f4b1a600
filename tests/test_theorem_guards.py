"""Known Ramsey-theory values, checked with the library's own oracles.

Each guard is a finite theorem the positivity oracles must agree with: a
2-colouring of [0, W(2,3)) = [0, 9) always has a class holding a 3-term
progression, and one of [1, 8] may have no class holding {a, b, a + b} with
a != b, the weak Schur number WS(2) = 8.  An oracle that misses or invents a
progression or a finite-sums basis breaks an exact count below.  A colouring
of [0, W(r, k) - 1) with no progression, found by a search that uses no
library code, guards the oracle's edge: every progression that point
W(r, k) - 1 then closes ends at its class's top point.
"""

import itertools
import random

import pytest

from idealforge import IdealId, NatSet, ScaleParams, is_positive


def colourings(points, r=2):
    """Every r-colouring of points, as its r colour classes."""
    for colours in itertools.product(range(r), repeat=len(points)):
        yield [NatSet(x for x, c in zip(points, colours) if c == k) for k in range(r)]


def some_class_positive(classes, ideal, params):
    return any(is_positive(A, ideal, params) for A in classes)


VDW3 = ScaleParams(ap_len=3, window=9)
HINDMAN2 = ScaleParams(fs_size=2)


def test_every_two_colouring_of_nine_points_has_a_three_term_progression():
    # W(2, 3) = 9: [0, 9) forces one; of the 256 colourings of [0, 8), exactly
    # 6 (3 up to swapping the colours) avoid one.
    assert all(some_class_positive(c, IdealId.VDW, VDW3) for c in colourings(range(9)))
    free = [c for c in colourings(range(8)) if not some_class_positive(c, IdealId.VDW, VDW3)]
    assert len(free) == 6


def test_every_two_colouring_of_one_to_nine_has_a_sum_of_two_distinct_points():
    # WS(2) = 8: [1, 9] forces a class holding a, b and a + b with a != b;
    # [1, 8] has exactly 2 colourings (one up to swapping) that avoid it.
    assert all(some_class_positive(c, IdealId.HINDMAN, HINDMAN2)
               for c in colourings(range(1, 10)))
    free = [c for c in colourings(range(1, 9))
            if not some_class_positive(c, IdealId.HINDMAN, HINDMAN2)]
    assert len(free) == 2


@pytest.mark.parametrize("r, k, w", [(2, 4, 35), (3, 3, 27), (4, 3, 76)])
def test_random_colourings_below_the_van_der_waerden_number_have_a_progression(r, k, w):
    # W(r, k) = w: every r-colouring of [0, w) has a class holding a k-term
    # progression, so seeded random ones do.
    rng = random.Random(w)
    params = ScaleParams(ap_len=k, window=w)
    for _ in range(40):
        colours = [rng.randrange(r) for _ in range(w)]
        classes = [NatSet(x for x in range(w) if colours[x] == c) for c in range(r)]
        assert some_class_positive(classes, IdealId.VDW, params), colours


def ap_free_colouring(r, k, n):
    """The least r-colouring of [0, n), as its list of colours in
    lexicographic order, with no k-term progression in one colour; found by
    backtracking, None if there is none."""
    colours = []

    def closes(x, c):  # colour c at x ends a k-term progression of colour c
        return any(all(colours[x - j * d] == c for j in range(1, k))
                   for d in range(1, x // (k - 1) + 1))

    def extend():
        x = len(colours)
        if x == n:
            return True
        for c in range(r):
            if not closes(x, c):
                colours.append(c)
                if extend():
                    return True
                colours.pop()
        return False

    return colours if extend() else None


@pytest.mark.parametrize("r, k, w", [(2, 4, 35), (3, 3, 27)])
def test_an_extremal_colouring_gains_a_progression_at_the_van_der_waerden_number(r, k, w):
    # W(r, k) = w: some r-colouring of [0, w - 1) has no class holding a
    # k-term progression, and since every r-colouring of [0, w) has one,
    # giving w - 1 any colour closes a progression that ends at w - 1.
    colours = ap_free_colouring(r, k, w - 1)
    assert colours is not None
    params = ScaleParams(ap_len=k, window=w)
    classes = [[x for x, c in enumerate(colours) if c == colour] for colour in range(r)]
    assert not some_class_positive([NatSet(A) for A in classes], IdealId.VDW, params)
    for A in classes:
        assert is_positive(NatSet(A + [w - 1]), IdealId.VDW, params), A
