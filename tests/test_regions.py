import itertools

import pytest
from hypothesis import given, settings, strategies as st

from klyachko import (Cell, InfiniteRegionError, InputError, LatticeRegion,
                      count_region_points, projective_space, region_points)
from klyachko.regions import section_fibers

CONE = (0, 1)
# Random bounds lie in [-3, 6] and differences move them by one, so every
# nonempty cell below has a corner in [-4, 7] on each ray: two regions
# agree on this window exactly when they are the same set.
SPAN = range(-4, 8)


def members(region):
    return {y for y in itertools.product(SPAN, repeat=len(region.cone))
            if region.contains_values(dict(zip(region.cone, y)))}


def intervals():
    # (None, None) leaves the ray unconstrained
    bound = st.one_of(st.none(), st.integers(-3, 4))
    return st.tuples(bound, st.one_of(st.none(), st.integers(-3, 6)))


def regions(cone=CONE, max_cells=3):
    cell = st.fixed_dictionaries({ray: intervals() for ray in cone}).map(Cell)
    return st.lists(cell, max_size=max_cells).map(
        lambda cells: LatticeRegion(cone, cells))


@st.composite
def region_pairs(draw):
    cone = draw(st.sampled_from([CONE, (0, 1, 2)]))
    return draw(regions(cone)), draw(regions(cone))


def test_cell_normalization():
    cell = Cell({1: (None, None), 0: (2, None)})
    assert cell.bounds == ((0, (2, None)),)
    assert cell.interval(1) == (None, None)
    assert not cell.is_empty()
    assert Cell({0: (3, 1)}).is_empty()
    with pytest.raises(InputError):
        Cell([(0, (1, 2)), (0, (0, 5))])
    with pytest.raises(InputError):
        Cell([(0, (None, None)), (0, (0, 5))])


@pytest.mark.parametrize("bounds", [
    {0: (True, "3")}, {0: (1.7, None)}, {0: (None, "2")}, {"0": (1, 2)},
    {False: (0, 1)}])
def test_cell_refuses_non_integers(bounds):
    with pytest.raises(InputError):
        Cell(bounds)


def test_region_refuses_cells_outside_its_cone():
    with pytest.raises(InputError):
        LatticeRegion((0, 1), [Cell({2: (0, 1)})])


@pytest.mark.parametrize("key", ["01", "00", "+1", " 1", "1_0", "\u0661", "-1", "x"])
def test_cell_json_ray_key_must_be_exact(key):
    # read by int(), "01" would name ray 1 and silently replace its bounds
    with pytest.raises(InputError, match="ray"):
        Cell.from_json({"1": [0, 0], key: [5, 5]})
    assert Cell.from_json({"1": [0, 0], "10": [5, 5]}) == Cell({1: (0, 0), 10: (5, 5)})


def test_cell_contains_values():
    cell = Cell({0: (0, 2), 1: (1, None)})
    assert cell.contains_values({0: 1, 1: 5})
    assert not cell.contains_values({0: 3, 1: 5})
    assert not cell.contains_values({0: 1, 1: 0})


@settings(max_examples=160)
@given(region_pairs())
def test_region_set_operations_match_pointwise(pair):
    a, b = pair
    ma, mb = members(a), members(b)
    union = LatticeRegion(a.cone, a.cells + b.cells)
    assert members(union) == ma | mb
    assert members(a - b) == ma - mb
    assert members(a - (a - b)) == ma & mb
    cell = a.difference(b)
    assert (cell is None) == (ma == mb)
    if cell is not None:
        inside = members(LatticeRegion(a.cone, [cell]))
        assert inside and (inside <= ma - mb or inside <= mb - ma)
    rebuilt = LatticeRegion(a.cone, (a - b).cells + (a - (a - b)).cells)
    assert (rebuilt.difference(a) is None) == (members(rebuilt) == ma)


def test_region_difference_unbounded_below():
    # full plane minus an upper half strip leaves a region unbounded below
    full = LatticeRegion.full(CONE)
    strip = LatticeRegion(CONE, [Cell({0: (1, None)})])
    rest = full - strip
    assert members(rest) == {y for y in itertools.product(SPAN, repeat=2)
                             if y[0] <= 0}


def test_empty_cells_are_dropped():
    region = LatticeRegion(CONE, [Cell({0: (5, 2)}), Cell({0: (0, 1)})])
    assert len(region.cells) == 1
    assert LatticeRegion.empty(CONE).is_empty()


BOUNDED_FANS = [projective_space(2), projective_space(3)]


@st.composite
def bounded_regions(draw):
    """A maximal cone of P2 or P3 and a region of up to four bounded cells.

    Lower bounds lie in [-3, 4] and hi - lo in [-1, 3], so cells overlap
    often and are now and then empty.
    """
    fan = draw(st.sampled_from(BOUNDED_FANS))
    cone = draw(st.sampled_from(fan.max_cones))
    interval = st.tuples(st.integers(-3, 4), st.integers(-1, 3)).map(
        lambda lo_width: (lo_width[0], lo_width[0] + lo_width[1]))
    cell = st.fixed_dictionaries({ray: interval for ray in cone}).map(Cell)
    return fan, LatticeRegion(cone, draw(st.lists(cell, max_size=4)))


@settings(max_examples=80)
@given(bounded_regions())
def test_region_points_match_a_membership_scan(case):
    fan, region = case
    points = region_points(fan, region)
    assert count_region_points(fan, region) == len(points)
    # every bound lies in [-3, 7], so the window holds every member
    window = itertools.product(range(-3, 8), repeat=len(region.cone))
    assert points == sorted(fan.character(region.cone, y) for y in window
                            if region.contains_values(dict(zip(region.cone, y))))


def test_equivalent_ignores_presentation():
    one = LatticeRegion(CONE, [Cell({0: (0, 1)})])
    two = LatticeRegion(CONE, [Cell({0: (0, 0)}), Cell({0: (1, 1)})])
    assert one.difference(two) is None
    assert one.difference(LatticeRegion(CONE, [Cell({0: (0, 2)})])) == Cell({0: (2, 2)})


def test_cone_mismatch_raises():
    a = LatticeRegion((0, 1), [Cell({0: (0, 0)})])
    b = LatticeRegion((0, 2), [Cell({0: (0, 0)})])
    with pytest.raises(InputError):
        _ = a - b


def test_shift_translates_membership(p2):
    region = LatticeRegion((1, 2), [Cell({1: (0, 2), 2: (1, 1)})])
    vector = (3, -1)
    shifted = region.shift(p2, vector)
    for m in itertools.product(range(-5, 6), repeat=2):
        before = region.contains(p2, (m[0] - vector[0], m[1] - vector[1]))
        assert shifted.contains(p2, m) == before


def test_region_points_on_max_cone(p2):
    region = LatticeRegion((1, 2), [Cell({1: (0, 2), 2: (1, 1)})])
    pts = region_points(p2, region)
    assert pts == [(0, 1), (1, 1), (2, 1)]
    assert count_region_points(p2, region) == 3


def test_region_points_overlapping_cells_counted_once(p2):
    region = LatticeRegion((1, 2), [Cell({1: (0, 2), 2: (0, 0)}),
                                    Cell({1: (1, 4), 2: (0, 0)})])
    assert count_region_points(p2, region) == 5
    assert len(region_points(p2, region)) == 5


def test_region_points_skewed_cone(p2):
    # cone (0, 2) has rays (-1,-1) and (0,1): pairings are (-m1-m2, m2)
    region = LatticeRegion((0, 2), [Cell({0: (0, 0), 2: (0, 1)})])
    pts = region_points(p2, region)
    assert pts == sorted([(0, 0), (-1, 1)])


def test_region_points_infinite_raises(p2):
    region = LatticeRegion((1, 2), [Cell({1: (0, None), 2: (0, 0)})])
    for walk in (region_points, count_region_points):
        with pytest.raises(InfiniteRegionError) as err:
            walk(p2, region)
        assert err.value.witness == region.cells[0]


def test_region_points_requires_max_cone(p2):
    region = LatticeRegion((1,), [Cell({1: (0, 1)})])
    for walk in (region_points, count_region_points):
        with pytest.raises(InputError):
            walk(p2, region)


def test_polytope_points_p2(p2):
    # sections of degree-3 hyperplane class: 10 monomials
    def size(divisor):
        return sum(hi - lo + 1 for _, lo, hi in section_fibers(p2, divisor))
    assert size((3, 0, 0)) == 10
    assert size((1, 1, 1)) == 10
    assert list(section_fibers(p2, (0, 0, 0))) == [((0,), 0, 0)]
    assert list(section_fibers(p2, (-1, 0, 0))) == []
