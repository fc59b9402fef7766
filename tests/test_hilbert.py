import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import klyachko.hilbert as hilbert
from klyachko import (InputError, MonomialIdeal, compute_diagram, compute_grading,
                      constant_hilbert_poly, graded_basis, hilbert_oracle,
                      hilbert_value, hilbert_value_general, hilbert_values,
                      hirzebruch, local_cohomology_h1, monomials_of_degree,
                      named_fan, product_of_projective_spaces, projective_space,
                      ring_dimension, saturate_oracle)
from klyachko.hilbert import EulerCharacteristic, euler_characteristic, walk_fibers
from klyachko.monomials import degree_window, k_polynomial, lcm_exponents

from conftest import blown_up_fans, star_subdivide

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
    assert hilbert_value(p2_grading, plane, (10 ** 9,)) == 3
    space = compute_diagram(p3, MonomialIdeal(P3_GENS))
    assert hilbert_value(p3_grading, space, (120,)) == 3 * 121
    assert hilbert_value(p3_grading, space, (10 ** 9,)) == 3 * (10 ** 9 + 1)
    assert ring_dimension(p2_grading, (1000,)) == 1001 * 1002 // 2


@pytest.mark.parametrize("name, gens, value", [
    # R/(y0) on H3: (a + 1) + 3b monomials x0^i x1^j y1^b in class (a, b)
    ("H3", [(0, 0, 1, 0)], 10 ** 6 + 1 + 3 * 10 ** 6),
    # R/(x0) on P1xP2: the monomials of P2 of degree b
    ("P1xP2", [(1, 0, 0, 0, 0)], comb(10 ** 6 + 2, 2)),
    # R/(x0*y0) on P2xP2: dim R_(a,b) - dim R_(a-1,b-1)
    ("P2xP2", [(1, 0, 0, 1, 0, 0)],
     comb(10 ** 6 + 2, 2) ** 2 - comb(10 ** 6 + 1, 2) ** 2),
], ids=["H3", "P1xP2", "P2xP2"])
def test_large_classes_are_counted_on_the_nef_cone(name, gens, value):
    # a fiber walk would list about 10^12 monomials; chi answers in closed form
    fan = named_fan(name)
    grading = compute_grading(fan)
    diag = compute_diagram(fan, MonomialIdeal(gens))
    assert hilbert_value(grading, diag, (10 ** 6, 10 ** 6)) == value


def test_hilbert_command_reaches_degree_400_promptly(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"gens": [[2, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 3]]}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "klyachko.cli", "hilbert", "P3",
                             str(path), "--degrees", "0..400"],
                            env=env, capture_output=True, text=True, timeout=10)
    assert result.returncode == 0, result.stderr
    values = json.loads(result.stdout)["values"]
    assert len(values) == 401
    assert values[-1] == {"degree": [400], "value": 807}


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


def walk_count(grading, diag, degree):
    """h_{R/I^sat} by the fiber walk: each fiber's length minus its members of I^sat."""
    lift = grading.canonical_lift(degree)
    return sum(hi - lo + 1 - sum(b - a + 1 for a, b in sat)
               for _, lo, hi, sat, _ in walk_fibers(grading.fan, diag, lift))


CATALOG = ["P2", "P3", "P4", "H3", "P1xP1", "P1xP2", "P2xP2"]


def class_box(grading):
    """Classes around the origin, with non-effective and effective non-nef ones."""
    lo, hi = (-3, 6) if grading.rank == 2 else (-3, 12)
    return list(itertools.product(range(lo, hi + 1), repeat=grading.rank))


@pytest.mark.parametrize("name", CATALOG)
def test_numerator_route_matches_the_fiber_walk(name):
    fan = named_fan(name)
    grading = compute_grading(fan)
    rng = random.Random(name)
    top = 2 if fan.nrays > 4 else 3
    degrees = class_box(grading)
    for _ in range(3):
        gens = [tuple(rng.randint(0, top) for _ in range(fan.nrays))
                for _ in range(rng.randint(1, 4))]
        diag = compute_diagram(fan, MonomialIdeal(gens))
        walked = [walk_count(grading, diag, u) for u in degrees]
        assert hilbert_values(grading, diag, degrees) == walked, gens


def test_effective_classes_off_the_nef_cone_are_walked(h3_grading):
    chi = euler_characteristic(h3_grading)
    effective = [u for u in class_box(h3_grading) if ring_dimension(h3_grading, u)]
    off_nef = [u for u in effective if not chi.is_nef(u)]
    # the box holds classes like the negative section y1, of class (-3, 1)
    assert (-3, 1) in off_nef and len(off_nef) >= 10
    assert all(chi(u) != ring_dimension(h3_grading, u) for u in [(-3, 1), (-2, 3)])
    for u in off_nef:
        assert chi.dimension(u) == ring_dimension(h3_grading, u)


@pytest.mark.parametrize("name", CATALOG)
def test_euler_characteristic_interpolates_the_nef_classes(name):
    grading = compute_grading(named_fan(name))
    chi = euler_characteristic(grading)
    assert chi.terms is not None
    assert euler_characteristic(grading) is chi
    box = class_box(grading)
    nef = [u for u in box if chi.is_nef(u)]
    assert nef and all(chi(u) == ring_dimension(grading, u) for u in nef)
    # the box holds classes that an effective row shows to have no monomials
    assert any(sum(map(mul, row, u)) < 0 for row in chi.effective_rows for u in box)
    assert [chi.dimension(u) for u in box] == [ring_dimension(grading, u) for u in box]


@settings(max_examples=15)
@given(blown_up_fans(), st.randoms(use_true_random=False))
def test_dimension_is_ring_dimension_on_blown_up_fans(fan, rng):
    grading = compute_grading(fan)
    chi = EulerCharacteristic(grading)
    for _ in range(40):
        v = tuple(rng.randint(-3, 4) for _ in range(grading.rank))
        assert chi.dimension(v) == ring_dimension(grading, v), v


def test_euler_characteristic_falls_back_without_samples(monkeypatch, p2_grading):
    monkeypatch.setattr(hilbert, "_SAMPLE_CANDIDATES", 0)
    chi = EulerCharacteristic(p2_grading)
    assert chi.terms is None
    monkeypatch.setitem(hilbert._CHARACTERISTICS,
                        (p2_grading.fan, p2_grading.deg_matrix), chi)
    diag = compute_diagram(p2_grading.fan, MonomialIdeal(P2_GENS))
    assert hilbert_values(p2_grading, diag, [(a,) for a in range(-1, 6)]) == \
        [0, 1, 3, 3, 3, 3, 3]


def test_values_are_walked_where_no_nef_samples_determine_chi():
    # P2 blown up four times (rank 5): the first candidate classes hold no
    # unisolvent set of nef samples, so every value is walked
    fan = projective_space(2)
    for face in [(1, 2), (0, 1), (0, 2), (1, 3)]:
        fan = star_subdivide(fan, face)
    grading = compute_grading(fan)
    assert euler_characteristic(grading).terms is None
    rng = random.Random(4)
    degrees = [tuple(rng.randint(-1, 3) for _ in range(grading.rank)) for _ in range(40)]
    for gens in [[(1, 0, 0, 0, 0, 0, 1)], [(2, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0)]]:
        diag = compute_diagram(fan, MonomialIdeal(gens))
        assert hilbert_values(grading, diag, degrees) == \
            [walk_count(grading, diag, u) for u in degrees]


def taylor_numerator(gens):
    """K(R/J) by inclusion-exclusion over subsets of the generators."""
    poly = {}
    for k in range(len(gens) + 1):
        for subset in itertools.combinations(gens, k):
            a = tuple([0] * len(gens[0]))
            for g in subset:
                a = lcm_exponents(a, g)
            poly[a] = poly.get(a, 0) + (-1) ** k
    return {a: c for a, c in poly.items() if c}


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6)))
def test_k_polynomial_matches_inclusion_exclusion(gens):
    minimal = list(MonomialIdeal(gens).gens)
    assert k_polynomial(gens) == taylor_numerator(minimal)


def test_k_polynomial_examples():
    # (x, y): 1 - x - y + xy; the pure power x^2 is never a pivot
    assert k_polynomial([(1, 0), (0, 1)]) == {(0, 0): 1, (1, 0): -1, (0, 1): -1,
                                              (1, 1): 1}
    assert k_polynomial([(2, 0), (1, 1)]) == {(0, 0): 1, (2, 0): -1, (1, 1): -1,
                                              (2, 1): 1}
    assert k_polynomial([(0, 0, 0)]) == {}


def finite_colength_ideal(rng, fan):
    """Random generators plus, per maximal cone, a pure power of each of its
    variables times variables off the cone: a zero-dimensional subscheme."""
    gens = [tuple(rng.randint(0, 2) for _ in range(fan.nrays))
            for _ in range(rng.randint(0, 2))]
    for cone in fan.max_cones:
        for ray in cone:
            gens.append(tuple(rng.randint(1, 3) if r == ray else
                              0 if r in cone else rng.randint(0, 1)
                              for r in range(fan.nrays)))
    return MonomialIdeal(gens)


def hilbert_polynomial(grading, diag):
    """P(u) = sum of c_a chi(u - deg a) over the numerator of the saturation."""
    numerator = k_polynomial(diag.saturation_exponents)
    chi = euler_characteristic(grading)
    return lambda u: sum(c * chi(tuple(x - y for x, y in zip(u, grading.degree(a))))
                         for a, c in numerator.items())


@pytest.mark.parametrize("name", CATALOG)
def test_constant_hilbert_poly_matches_the_hilbert_polynomial(name):
    fan = named_fan(name)
    grading = compute_grading(fan)
    # a polynomial of degree <= dim is constant iff it is constant on the
    # simplex {k >= 0, |k| <= dim}, which is unisolvent for that degree
    simplex = [k for k in itertools.product(range(fan.dim + 1), repeat=grading.rank)
               if sum(k) <= fan.dim]
    rng = random.Random(f"constant-{name}")
    verdicts = set()
    for case in range(30):
        if case % 3:
            top = 2 if fan.nrays > 4 else 3
            ideal = MonomialIdeal([tuple(rng.randint(0, top) for _ in range(fan.nrays))
                                   for _ in range(rng.randint(1, 4))])
        else:
            ideal = finite_colength_ideal(rng, fan)
        diag = compute_diagram(fan, ideal)
        poly = hilbert_polynomial(grading, diag)
        values = {poly(k) for k in simplex}
        constant, note = constant_hilbert_poly(fan, diag)
        if len(values) == 1:
            assert (constant, note) == (values.pop(), None), ideal
        else:
            assert constant is None and note, ideal
        verdicts.add(constant is not None)
    assert verdicts == {True, False}
