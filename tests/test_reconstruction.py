import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from klyachko import (Cell, InputError, KlyachkoDiagram, LatticeRegion,
                      MonomialIdeal, SearchBoxError, compute_diagram,
                      compute_grading, graded_basis, hilbert_oracle, hirzebruch,
                      local_cohomology_h1, minimal_generator_exponents,
                      monomials_of_degree, product_of_projective_spaces,
                      projective_space, reconstruct_generators, saturate_oracle)
from klyachko.diagram import exponent_caps

# already-saturated running example on the plane: (x0*x2, x1*x2, x0*x1^2)
P2_SAT = [(1, 0, 1), (0, 1, 1), (1, 2, 0)]
H3_GENS = [(0, 1, 0, 0), (3, 0, 0, 1)]


def diagram_from_max_gaps(fan, s, max_gaps):
    """A diagram from explicit maximal-cone gap regions; missing ones are empty."""
    return KlyachkoDiagram(fan, s, {cone: max_gaps.get(cone, LatticeRegion.empty(cone))
                                    for cone in fan.max_cones})


@pytest.fixture(scope="module")
def p2_given(p2):
    # gaps in pairing coordinates: two cells over (1,2), one point elsewhere
    gaps = {
        (1, 2): LatticeRegion((1, 2), [Cell({1: (0, 0), 2: (0, 0)}),
                                       Cell({1: (1, 1), 2: (0, 0)})]),
        (0, 2): LatticeRegion((0, 2), [Cell({0: (0, 0), 2: (0, 0)})]),
        (0, 1): LatticeRegion((0, 1), [Cell({0: (0, 0), 1: (0, 0)})]),
    }
    return diagram_from_max_gaps(p2, (0, 0, 0), gaps)


@pytest.fixture(scope="module")
def p3_given(p3):
    gaps = {
        (1, 2, 3): LatticeRegion((1, 2, 3), [
            Cell({1: (0, 0), 2: (0, 0), 3: (0, None)}),
            Cell({1: (0, 0), 2: (1, 1), 3: (0, 0)}),
        ]),
    }
    return diagram_from_max_gaps(p3, (0, 0, 0, 0), gaps)


@pytest.fixture(scope="module")
def h3_given(h3):
    gaps = {(1, 3): LatticeRegion((1, 3), [Cell({1: (0, 0), 3: (0, 0)})])}
    return diagram_from_max_gaps(h3, (0, 0, 0, 0), gaps)


def test_given_diagrams_match_computed(p2, h3, p2_given, h3_given):
    cases = [(p2, p2_given, P2_SAT), (h3, h3_given, H3_GENS)]
    for fan, given, gens in cases:
        computed = compute_diagram(fan, MonomialIdeal(gens))
        for cone in fan.max_cones:
            assert given.gaps(cone).difference(computed.gaps(cone)) is None


def test_p3_given_diagram_same_monomial_cut(p3, p3_grading, p3_given):
    # the given gap data is empty over (0,1,2), while the ideal's own gap
    # set there is the strip {y1 = y2 = 0, y0 >= 0}.  The strip only cuts
    # monomials in x0 and x3, and those are already excluded over the
    # opposite cone, so every graded piece comes out the same.
    computed = compute_diagram(p3, MonomialIdeal([(0, 1, 0, 0), (0, 0, 2, 0),
                                                  (0, 0, 1, 1)]))
    for cone in [(1, 2, 3), (0, 2, 3), (0, 1, 3)]:
        assert p3_given.gaps(cone).difference(computed.gaps(cone)) is None
    strip = LatticeRegion((0, 1, 2), [Cell({0: (0, None), 1: (0, 0),
                                            2: (0, 0)})])
    assert computed.gaps((0, 1, 2)).difference(strip) is None
    assert p3_given.gaps((0, 1, 2)).difference(strip) is not None
    for a in range(0, 6):
        lift = p3_grading.canonical_lift((a,))
        assert graded_basis(p3_grading, p3_given, lift).characters == \
            graded_basis(p3_grading, computed, lift).characters


def test_graded_basis_p2_degree_two(p2, p2_grading, p2_given):
    piece = graded_basis(p2_grading, p2_given, p2_grading.canonical_lift((2,)))
    assert piece.degree == (2,)
    assert set(piece.monomials()) == {(1, 0, 1), (0, 1, 1)}
    ideal = MonomialIdeal(P2_SAT)
    assert piece.dimension == 6 - hilbert_oracle(ideal, p2_grading, (2,))


def test_graded_basis_low_degrees_empty(p2_grading, p2_given):
    for u in [(0,), (1,)]:
        piece = graded_basis(p2_grading, p2_given, p2_grading.canonical_lift(u))
        assert piece.dimension == 0
        assert piece.monomials() == []


def test_graded_basis_h3(h3, h3_grading):
    diag = compute_diagram(h3, MonomialIdeal(H3_GENS))
    piece = graded_basis(h3_grading, diag, h3_grading.canonical_lift((0, 1)))
    assert set(piece.monomials()) == {(3, 0, 0, 1), (2, 1, 0, 1),
                                      (1, 2, 0, 1), (0, 3, 0, 1)}


def test_graded_basis_bad_divisor(p2_grading, p2_given):
    with pytest.raises(InputError):
        graded_basis(p2_grading, p2_given, (1, 0))
    with pytest.raises(InputError):
        local_cohomology_h1(p2_grading, MonomialIdeal(P2_SAT), (1, 0),
                            diag=p2_given)


def test_span_set_p3_degree_two(p3_grading, p3_given):
    # the multiples of x1 are four of the six degree-two monomials of I^sat
    piece = graded_basis(p3_grading, p3_given, (2, 0, 0, 0))
    assert piece.dimension == 6
    h1 = local_cohomology_h1(p3_grading, MonomialIdeal([(0, 1, 0, 0)]),
                             (2, 0, 0, 0), diag=p3_given)
    assert set(h1.monomial_strings()) == {"x2^2", "x2*x3"}


def test_exponent_caps_bound_generators(p2, p2_given):
    caps = exponent_caps(p2, p2_given)
    assert all(c >= s for c, s in zip(caps, p2_given.min_exponents))
    _, found = minimal_generator_exponents(p2, p2_given)
    for k in found:
        assert all(s <= e <= c for e, s, c in
                   zip(k, p2_given.min_exponents, caps))


def test_minimal_generator_exponents(p2, h3, p2_given, h3_given):
    _, found = minimal_generator_exponents(p2, p2_given)
    assert set(found) == set(P2_SAT)
    _, found = minimal_generator_exponents(h3, h3_given)
    assert set(found) == {(0, 1, 0, 0), (0, 0, 0, 1)}


def test_reconstruct_p2(p2_grading, p2_given):
    result = reconstruct_generators(p2_grading, p2_given)
    assert result == MonomialIdeal(P2_SAT)


def test_reconstruct_p3(p3_grading, p3_given):
    result = reconstruct_generators(p3_grading, p3_given)
    assert result == MonomialIdeal([(0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 1, 1)])


def test_reconstruct_h3(h3, h3_grading, h3_given):
    # the diagram pins the ideal only up to saturation, and (x1, x0^3*y1)
    # is not saturated: y1*(x0*y1)^3 = (x0^3*y1)*y1^3 lies in it while
    # x0*y1 generates part of the irrelevant ideal, so y1 belongs to the
    # saturation.  The reconstruction returns the saturated ideal.
    result = reconstruct_generators(h3_grading, h3_given)
    expected = saturate_oracle(MonomialIdeal(H3_GENS), h3)
    assert result == expected == MonomialIdeal([(0, 0, 0, 1), (0, 1, 0, 0)])


def test_reconstruct_principal(p2, p2_grading):
    diag = compute_diagram(p2, MonomialIdeal([(2, 1, 0)]))
    assert reconstruct_generators(p2_grading, diag) == MonomialIdeal([(2, 1, 0)])


PROPERTY_FANS = [projective_space(2), hirzebruch(3),
                 product_of_projective_spaces(1, 1), projective_space(3)]


@st.composite
def fans_and_ideals(draw):
    fan = draw(st.sampled_from(PROPERTY_FANS))
    exponents = st.tuples(*[st.integers(0, 3)] * fan.nrays)
    gens = draw(st.lists(exponents, min_size=1, max_size=4))
    return fan, MonomialIdeal(gens)


@settings(max_examples=60)
@given(fans_and_ideals(), st.data())
def test_reconstruct_roundtrip_random(case, data):
    fan, ideal = case
    grading = compute_grading(fan)
    diag = compute_diagram(fan, ideal)
    result = reconstruct_generators(grading, diag)
    assert result == saturate_oracle(ideal, fan)
    classes = [grading.degree(g) for g in result.gens]
    box = [(min(c[i] for c in classes) - 1, max(c[i] for c in classes) + 1)
           for i in range(grading.rank)]
    assert reconstruct_generators(grading, diag, search_box=box) == result
    # cut one generator's class out of the box, below or above it
    u = data.draw(st.sampled_from(classes))
    i = data.draw(st.integers(0, grading.rank - 1))
    lo, hi = box[i]
    box[i] = data.draw(st.sampled_from([(lo, u[i] - 1), (u[i] + 1, hi)]))
    with pytest.raises(SearchBoxError):
        reconstruct_generators(grading, diag, search_box=box)


@st.composite
def hand_built_diagrams(draw):
    fan = draw(st.sampled_from(PROPERTY_FANS))
    s = draw(st.tuples(*[st.integers(0, 2)] * fan.nrays))
    # an interval (lo, lo + width) on a ray; None leaves a side open
    lows = st.one_of(st.integers(-1, 4), st.none())
    widths = st.one_of(st.integers(0, 3), st.none())
    interval = st.tuples(lows, widths).map(
        lambda p: (p[0], None if p[1] is None else (p[0] or 0) + p[1]))
    gaps = {}
    for cone in fan.max_cones:
        cells = draw(st.lists(st.dictionaries(st.sampled_from(cone), interval,
                                              min_size=1),
                              max_size=4))
        gaps[cone] = LatticeRegion(cone, [Cell(bounds) for bounds in cells])
    return fan, diagram_from_max_gaps(fan, s, gaps)


@settings(max_examples=150)
@given(hand_built_diagrams())
def test_generator_scan_matches_full_box(case):
    fan, diag = case
    s = diag.min_exponents
    caps = exponent_caps(fan, diag)

    def member(k):
        values = dict(enumerate(k))
        return not any(diag.gaps(cone).contains_values(values)
                       for cone in fan.max_cones)

    expected = []
    for k in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(s, caps))):
        if member(k) and not any(k[r] > s[r] and member(k[:r] + (k[r] - 1,) + k[r + 1:])
                                 for r in range(fan.nrays)):
            expected.append(k)
    assert minimal_generator_exponents(fan, diag) == (caps, expected)


def full_box_scan(fan, diag):
    """Minimal generator exponents by testing every point of the box [s, K]."""
    s = diag.min_exponents
    box = list(itertools.product(*(range(lo, hi + 1)
                                   for lo, hi in zip(s, exponent_caps(fan, diag)))))
    member = {k: not any(diag.gaps(cone).contains_values(dict(enumerate(k)))
                         for cone in fan.max_cones)
              for k in box}
    return [k for k in box
            if member[k] and not any(k[r] > s[r] and member[k[:r] + (k[r] - 1,) + k[r + 1:]]
                                     for r in range(fan.nrays))]


@pytest.mark.parametrize("fan, ngens, max_exp", [
    (product_of_projective_spaces(1, 2), 5, 5),
    (projective_space(4), 4, 3),
    (product_of_projective_spaces(2, 2), 6, 3),
], ids=["P1xP2", "P4", "P2xP2"])
def test_generator_scan_matches_full_box_on_random_ideals(fan, ngens, max_exp):
    # sized as in the saturate benchmark: every variable reaches both 0 and max_exp,
    # so the exponent box has its full width
    rng = random.Random(ngens * 100 + max_exp)
    for _ in range(12):
        count = rng.randint(2, ngens)
        gens = [[rng.randint(0, max_exp) for _ in range(fan.nrays)] for _ in range(count)]
        for var in range(fan.nrays):
            top, bottom = rng.sample(range(count), 2)
            gens[top][var], gens[bottom][var] = max_exp, 0
        diag = compute_diagram(fan, MonomialIdeal([tuple(g) for g in gens]))
        caps, found = minimal_generator_exponents(fan, diag)
        assert caps == exponent_caps(fan, diag)
        assert found == full_box_scan(fan, diag)


def test_generator_scan_tests_no_point(monkeypatch):
    # a breakpoint grid of 419,904 points; the scan paints cells, it probes no point
    fan = product_of_projective_spaces(2, 2)
    rng = random.Random(30)
    ideal = MonomialIdeal([tuple(rng.randint(0, 8) for _ in range(6)) for _ in range(30)])
    diag = compute_diagram(fan, ideal)
    calls = []
    for cls in (Cell, LatticeRegion):
        probe = cls.contains_values
        monkeypatch.setattr(cls, "contains_values",
                            lambda self, values, probe=probe: calls.append(1) or probe(self, values))
    _, found = minimal_generator_exponents(fan, diag)
    assert calls == []
    monkeypatch.undo()
    assert MonomialIdeal(found, nvars=fan.nrays) == saturate_oracle(ideal, fan)


def test_reconstruct_explicit_box(p2_grading, p2_given, h3_grading, h3_given):
    assert reconstruct_generators(p2_grading, p2_given, search_box=[(0, 6)]) \
        == MonomialIdeal(P2_SAT)
    assert reconstruct_generators(h3_grading, h3_given,
                                  search_box=[(-4, 2), (-1, 2)]) \
        == MonomialIdeal([(0, 0, 0, 1), (0, 1, 0, 0)])


def test_reconstruct_box_boundary_detected(p2_grading, p2_given,
                                           h3_grading, h3_given):
    with pytest.raises(SearchBoxError):
        reconstruct_generators(p2_grading, p2_given, search_box=[(2, 3)])
    with pytest.raises(SearchBoxError):
        reconstruct_generators(h3_grading, h3_given,
                               search_box=[(-3, 1), (0, 1)])


def test_reconstruct_box_without_generators(p2_grading, p2_given):
    with pytest.raises(SearchBoxError):
        reconstruct_generators(p2_grading, p2_given, search_box=[(0, 1)])


def test_reconstruct_box_validation(p2_grading, p2_given):
    with pytest.raises(InputError):
        reconstruct_generators(p2_grading, p2_given, search_box=[(0, 2), (0, 2)])
    with pytest.raises(InputError):
        reconstruct_generators(p2_grading, p2_given, search_box=[(3, 1)])
    with pytest.raises(InputError, match="must be an integer"):
        reconstruct_generators(p2_grading, p2_given, search_box=[(0.5, 6)])


def test_h1_of_saturated_ideal_vanishes(p2, p2_grading):
    ideal = MonomialIdeal(P2_SAT)
    diag = compute_diagram(p2, ideal)
    for a in range(-1, 6):
        piece = local_cohomology_h1(p2_grading, ideal, (a, 0, 0), diag=diag)
        assert piece.dimension == 0


def test_h1_detects_missing_socle(p2, p2_grading):
    # x0 times the irrelevant ideal saturates to (x0); the quotient is
    # one-dimensional, sitting in degree 1
    ideal = MonomialIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
    dims = [local_cohomology_h1(p2_grading, ideal, (a, 0, 0)).dimension
            for a in range(0, 4)]
    assert dims == [0, 1, 0, 0]
    piece = local_cohomology_h1(p2_grading, ideal, (1, 0, 0))
    assert piece.monomial_strings() == ["x0"]


def test_h1_frozen_example(p2, p2_grading):
    ideal = MonomialIdeal([(3, 1, 0), (1, 1, 2), (0, 0, 3), (0, 3, 0)])
    dims = [local_cohomology_h1(p2_grading, ideal, (a, 0, 0)).dimension
            for a in range(0, 7)]
    assert dims == [0, 1, 3, 5, 4, 1, 0]
    piece = local_cohomology_h1(p2_grading, ideal, (2, 0, 0))
    assert set(piece.monomial_strings()) == {"x0*x1", "x1^2", "x1*x2"}


def test_h1_degreewise_count(p2, p2_grading):
    ideal = MonomialIdeal([(3, 1, 0), (1, 1, 2), (0, 0, 3), (0, 3, 0)])
    diag = compute_diagram(p2, ideal)
    for a in range(0, 7):
        lift = (a, 0, 0)
        total = graded_basis(p2_grading, diag, lift).dimension
        inside = sum(1 for e in monomials_of_degree(p2_grading, (a,))
                     if e in ideal)
        h1 = local_cohomology_h1(p2_grading, ideal, lift, diag=diag).dimension
        assert total == inside + h1


def test_h1_zero_iff_saturated(p2, p2_grading, h3, h3_grading):
    cases = [
        (p2, p2_grading, P2_SAT, [(a, 0, 0) for a in range(0, 6)]),
        (h3, h3_grading, H3_GENS,
         [h3_grading.canonical_lift((a, b)) for a in range(-4, 4)
          for b in range(0, 3)]),
    ]
    for fan, grading, gens, lifts in cases:
        ideal = MonomialIdeal(gens)
        saturated = saturate_oracle(ideal, fan) == ideal
        seen = any(local_cohomology_h1(grading, ideal, lift).dimension
                   for lift in lifts)
        assert seen == (not saturated)


def test_h1_rejects_zero_ideal(p2_grading):
    with pytest.raises(InputError):
        local_cohomology_h1(p2_grading, MonomialIdeal([], nvars=3), (1, 0, 0))


def test_h1_rejects_ideal_of_wrong_length(p2_grading, p2_given):
    for gens in ([(1, 1)], [(1, 1, 0, 0)]):
        with pytest.raises(InputError):
            local_cohomology_h1(p2_grading, MonomialIdeal(gens), (2, 0, 0),
                                diag=p2_given)
