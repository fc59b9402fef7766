import pytest
from hypothesis import given, settings, strategies as st

from klyachko import (InputError, MonomialIdeal, compute_diagram, compute_grading,
                      constant_hilbert_poly, graded_basis, hilbert_oracle,
                      hilbert_value, hilbert_value_general, hirzebruch,
                      local_cohomology_h1, monomials_of_degree,
                      product_of_projective_spaces, projective_space,
                      ring_dimension, saturate_oracle)
from klyachko.monomials import degree_window

P2_GENS = [(0, 0, 2), (1, 0, 1), (1, 1, 0)]
P3_GENS = [(1, 1, 0, 0), (0, 1, 1, 2), (0, 0, 2, 0)]


def test_ring_dimension(p2_grading, p3_grading, h3_grading):
    assert [ring_dimension(p2_grading, (a,)) for a in range(4)] == [1, 3, 6, 10]
    assert ring_dimension(p2_grading, (-1,)) == 0
    assert ring_dimension(p3_grading, (2,)) == 10
    assert ring_dimension(h3_grading, (0, 1)) == 5


def test_hilbert_value_p2_example(p2, p2_grading):
    diag = compute_diagram(p2, MonomialIdeal(P2_GENS))
    values = [hilbert_value(p2_grading, diag, (a,)) for a in range(-1, 5)]
    assert values == [0, 1, 3, 3, 3, 3]
    assert constant_hilbert_poly(p2, diag) == (3, None)


def test_hilbert_value_stabilizes(p2, p2_grading):
    diag = compute_diagram(p2, MonomialIdeal(P2_GENS))
    for a in range(3, 11):
        assert hilbert_value(p2_grading, diag, (a,)) == 3


def test_hilbert_value_p3_example(p3, p3_grading):
    diag = compute_diagram(p3, MonomialIdeal(P3_GENS))
    assert [hilbert_value(p3_grading, diag, (a,)) for a in range(3)] == [1, 4, 8]
    for a in range(3, 9):
        assert hilbert_value(p3_grading, diag, (a,)) == 3 * (a + 1)


def test_constancy_requires_bounded_gaps(p3, p3_grading):
    diag = compute_diagram(p3, MonomialIdeal(P3_GENS))
    value, reason = constant_hilbert_poly(p3, diag)
    assert value is None
    assert "unbounded" in reason


def test_constancy_requires_zero_floor(p2):
    diag = compute_diagram(p2, MonomialIdeal([(1, 1, 0), (1, 0, 1)]))
    value, reason = constant_hilbert_poly(p2, diag)
    assert value is None
    assert "ray 0" in reason


def test_unit_ideal_quotient_vanishes(p2, p2_grading):
    diag = compute_diagram(p2, MonomialIdeal([(0, 0, 0)]))
    assert all(hilbert_value(p2_grading, diag, (a,)) == 0 for a in range(-1, 4))
    assert constant_hilbert_poly(p2, diag) == (0, None)


def test_general_route_factored_example(p2, p2_grading):
    # x0*(x1, x2) has the common factor x0
    ideal = MonomialIdeal([(1, 1, 0), (1, 0, 1)])
    assert hilbert_value_general(p2_grading, ideal, (1,)) == 3
    sat = saturate_oracle(ideal, p2)
    diag = compute_diagram(p2, ideal)
    for a in range(-1, 6):
        general = hilbert_value_general(p2_grading, ideal, (a,))
        assert general == hilbert_value(p2_grading, diag, (a,))
        assert general == hilbert_oracle(sat, p2_grading, (a,))


def test_general_route_matches_oracle(p2, p2_grading, h3, h3_grading):
    cases = [
        (p2, p2_grading, P2_GENS),
        (p2, p2_grading, [(2, 1, 0), (0, 3, 2)]),
        (h3, h3_grading, [(1, 1, 1, 0), (1, 0, 1, 1)]),
        (h3, h3_grading, [(0, 1, 0, 0), (3, 0, 0, 1)]),
    ]
    for fan, grading, gens in cases:
        ideal = MonomialIdeal(gens)
        sat = saturate_oracle(ideal, fan)
        for degree in degree_window(grading, ideal):
            assert hilbert_value_general(grading, ideal, degree) == \
                hilbert_oracle(sat, grading, degree)


def test_diagram_route_matches_oracle(p2, p2_grading):
    ideal = MonomialIdeal([(0, 2, 0), (1, 0, 1), (0, 1, 2)])
    sat = saturate_oracle(ideal, p2)
    diag = compute_diagram(p2, ideal)
    for a in range(-1, 7):
        assert hilbert_value(p2_grading, diag, (a,)) == \
            hilbert_oracle(sat, p2_grading, (a,))


def test_general_route_rejects_zero_ideal(p2_grading):
    with pytest.raises(InputError):
        hilbert_value_general(p2_grading, MonomialIdeal([], nvars=3), (1,))


def test_large_degrees_are_counted(p2, p2_grading, p3, p3_grading):
    # far beyond what listing the section polytope's points could reach
    plane = compute_diagram(p2, MonomialIdeal(P2_GENS))
    assert hilbert_value(p2_grading, plane, (5000,)) == 3
    space = compute_diagram(p3, MonomialIdeal(P3_GENS))
    assert hilbert_value(p3_grading, space, (120,)) == 3 * 121
    assert ring_dimension(p2_grading, (1000,)) == 1001 * 1002 // 2


def test_h1_large_degrees(p2_grading, p3_grading):
    # the pieces vanish far out; listing the degree-5000 monomials of the
    # plane alone would take 12.5 million points
    socle = MonomialIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1)])  # x0*(x0, x1, x2)
    piece = local_cohomology_h1(p2_grading, socle, p2_grading.canonical_lift((5000,)))
    assert piece.dimension == 0
    piece = local_cohomology_h1(p3_grading, MonomialIdeal(P3_GENS),
                                p3_grading.canonical_lift((120,)))
    assert piece.dimension == 0


PROPERTY_FANS = [projective_space(2), hirzebruch(3),
                 product_of_projective_spaces(1, 1), projective_space(3),
                 product_of_projective_spaces(2, 2)]


@st.composite
def fans_and_ideals(draw):
    fan = draw(st.sampled_from(PROPERTY_FANS))
    top = 2 if fan.nrays > 4 else 3
    exponents = st.tuples(*[st.integers(0, top)] * fan.nrays)
    gens = draw(st.lists(exponents, min_size=1, max_size=3))
    return fan, MonomialIdeal(gens)


@settings(max_examples=30)
@given(fans_and_ideals())
def test_hilbert_value_matches_oracle(case):
    fan, ideal = case
    grading = compute_grading(fan)
    diag = compute_diagram(fan, ideal)
    sat = saturate_oracle(ideal, fan)
    classes = [grading.degree(g) for g in ideal.gens]
    top = tuple(max(c[i] for c in classes) for i in range(grading.rank))
    degrees = degree_window(grading, ideal) + [tuple(k * x for x in top) for k in (2, 3)]
    for degree in degrees:
        assert hilbert_value(grading, diag, degree) == \
            hilbert_oracle(sat, grading, degree), degree


@settings(max_examples=30)
@given(fans_and_ideals())
def test_h1_matches_oracle(case):
    fan, ideal = case
    grading = compute_grading(fan)
    diag = compute_diagram(fan, ideal)
    sat = saturate_oracle(ideal, fan)
    for degree in degree_window(grading, ideal):
        lift = grading.canonical_lift(degree)
        in_sat = [e for e in monomials_of_degree(grading, degree) if e in sat]
        h1 = local_cohomology_h1(grading, ideal, lift, diag=diag)
        assert sorted(h1.monomials()) == \
            sorted(e for e in in_sat if e not in ideal), degree
        assert sorted(graded_basis(grading, diag, lift).monomials()) == \
            sorted(in_sat), degree
