import random

import pytest
from hypothesis import given, settings, strategies as st

from klyachko.lattice import UnboundedRegionError, lattice_fibers, normalize_row


def brute(rows, d, width=12):
    out = []
    def walk(prefix):
        if len(prefix) == d:
            if all(sum(c * x for c, x in zip(coeffs, prefix)) >= b
                   for coeffs, b in rows):
                out.append(tuple(prefix))
            return
        for v in range(-width, width + 1):
            walk(prefix + [v])
    walk([])
    return sorted(out)


def points(rows, d):
    """The integer points of the system, expanded from its fibers in walk order."""
    return [prefix + (t,) for prefix, lo, hi in lattice_fibers(rows, d)
            for t in range(lo, hi + 1)]


def test_normalize_row_divides_by_gcd():
    # 2x + 4y >= 3 has the same integer solutions as x + 2y >= 2
    assert normalize_row((2, 4), 3) == ((1, 2), 2)
    assert normalize_row((3, -6), -4) == ((1, -2), -1)  # ceil(-4/3) = -1
    assert normalize_row((0, 5), 5) == ((0, 1), 1)


def test_normalize_row_ceiling_matches_brute():
    rng = random.Random(3)
    for _ in range(100):
        coeffs = tuple(rng.randint(-4, 4) for _ in range(2))
        if not any(coeffs):
            continue
        b = rng.randint(-9, 9)
        norm_c, norm_b = normalize_row(coeffs, b)
        for x in range(-8, 9):
            for y in range(-8, 9):
                orig = coeffs[0] * x + coeffs[1] * y >= b
                new = norm_c[0] * x + norm_c[1] * y >= norm_b
                assert orig == new, (coeffs, b, x, y)


def test_enumerate_square():
    rows = [((1, 0), 0), ((-1, 0), -2), ((0, 1), 0), ((0, -1), -2)]
    pts = points(rows, 2)
    assert pts == [(x, y) for x in range(3) for y in range(3)]
    assert len(points(rows, 2)) == 9


def test_enumerate_triangle():
    # x, y >= 0, x + y <= 2
    rows = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)]
    pts = points(rows, 2)
    assert pts == brute(rows, 2)
    assert len(pts) == 6


def test_enumerate_empty():
    rows = [((1,), 3), ((-1,), -1)]  # x >= 3 and x <= 1
    assert points(rows, 1) == []
    assert len(points(rows, 1)) == 0


def test_enumerate_unbounded():
    with pytest.raises(UnboundedRegionError):
        points([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(UnboundedRegionError):
        len(points([((1,), 0)], 1))


def test_enumerate_simplex_3d():
    rows = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -3)]
    pts = points(rows, 3)
    assert len(pts) == 20  # binomial(6, 3)
    assert pts == brute(rows, 3, width=5)
    assert len(points(rows, 3)) == 20


@st.composite
def boxed_systems(draw):
    d = draw(st.integers(1, 3))
    coeffs = st.tuples(*[st.integers(-3, 3)] * d)
    rows = draw(st.lists(st.tuples(coeffs, st.integers(-6, 6)),
                         min_size=2, max_size=5))
    # keep the region inside a box so it is bounded
    for i in range(d):
        unit = tuple(1 if j == i else 0 for j in range(d))
        rows.append((unit, -7))
        rows.append((tuple(-x for x in unit), -7))
    return rows, d


@settings(max_examples=40)
@given(boxed_systems())
def test_enumerate_random_vs_brute(case):
    rows, d = case
    pts = points(rows, d)
    assert pts == brute(rows, d, width=9)
    assert len(points(rows, d)) == len(pts)


def test_skewed_lattice_region():
    # x - y >= 0, y >= 1, x + y <= 5
    rows = [((1, -1), 0), ((0, 1), 1), ((-1, -1), -5)]
    pts = points(rows, 2)
    assert pts == brute(rows, 2)
    assert (2, 2) in pts and (1, 2) not in pts
