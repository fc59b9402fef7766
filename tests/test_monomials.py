import itertools
import math
import random

import pytest
from conftest import blown_up_fans
from hypothesis import given, settings, strategies as st

from klyachko import (InputError, MonomialIdeal, compute_grading, hilbert_oracle,
                      ideal_intersect, ideal_sum, minimalize, monomial_str,
                      monomials_of_degree, named_fan, saturate_oracle)
from klyachko.monomials import colon_var_saturate, degree_window, divides


def brute_monomials_of_degree(grading, degree, cap=12):
    """Independent slow scan of a plain exponent box.

    ``cap`` bounds every exponent, or, as a tuple, each ray's exponent.
    """
    caps = [cap] * grading.fan.nrays if isinstance(cap, int) else cap
    out = [k for k in itertools.product(*(range(c + 1) for c in caps))
           if grading.degree(k) == tuple(degree)]
    return sorted(out)


def positive_relation(fan):
    """Weights lam >= 1 with sum_rho lam_rho * rho = 0.

    For each ray, -rho lies in a maximal cone, with nonnegative coordinates
    c_tau = <m_tau, -rho> in the dual basis m_tau of that cone, so
    rho + sum_tau c_tau tau = 0; the sum of these relations over all rays
    has every weight positive.
    """
    lam = [1] * fan.nrays
    for i in range(fan.nrays):
        for cone in fan.max_cones:
            duals = [fan.character(cone, [int(k == j) for k in range(fan.dim)])
                     for j in range(fan.dim)]
            coords = [-fan.pairing(m, i) for m in duals]
            if min(coords) >= 0:
                break
        for ray, c in zip(cone, coords):
            lam[ray] += c
    return lam


def class_caps(grading, lam, degree):
    """Per-ray exponent caps above every monomial of the class.

    lam kills the principal divisors, so lam . a is the same for every
    monomial a of the class, namely lam . (its canonical lift); a negative
    value means the class has no monomial, and the box is then empty.
    """
    total = sum(w * x for w, x in zip(lam, grading.canonical_lift(degree)))
    return tuple(total // w if total >= 0 else -1 for w in lam)


def test_divides_and_minimalize():
    assert divides((1, 0), (2, 5))
    assert not divides((1, 3), (2, 2))
    assert minimalize([(2, 0), (1, 0), (1, 0), (0, 3), (1, 4)]) == ((0, 3), (1, 0))
    assert minimalize([]) == ()
    # seeded comparison with the definition: no other generator divides a kept one
    rng = random.Random(3)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 4) for _ in range(nvars))
                for _ in range(rng.randint(0, 12))]
        unique = set(gens)
        expected = sorted(g for g in unique
                          if not any(h != g and divides(h, g) for h in unique))
        assert minimalize(gens) == tuple(expected)


def test_ideal_normalization():
    ideal = MonomialIdeal([(2, 0, 0), (1, 0, 0), (1, 1, 1)])
    assert ideal.gens == ((1, 0, 0),)
    assert (3, 2, 1) in ideal and (0, 5, 5) not in ideal
    assert ideal.min_exponents() == (1, 0, 0)
    assert not ideal.is_zero() and not ideal.is_unit()


def test_zero_and_unit_ideals():
    zero = MonomialIdeal([], nvars=3)
    assert zero.is_zero()
    with pytest.raises(InputError):
        MonomialIdeal([])
    with pytest.raises(InputError):
        zero.min_exponents()
    unit = MonomialIdeal([(0, 0, 0), (1, 2, 0)])
    assert unit.is_unit() and unit.gens == ((0, 0, 0),)


def test_ideal_rejects_bad_generators():
    with pytest.raises(InputError):
        MonomialIdeal([(1, -1)])
    with pytest.raises(InputError):
        MonomialIdeal([(1, 0), (1, 0, 0)])


@pytest.mark.parametrize("gen", [(1.9, 0, 0), (True, 0, 1), ("2", 0, 1)])
def test_ideal_refuses_non_integer_exponents(gen):
    # refused, not truncated by int() to an integer exponent
    with pytest.raises(InputError, match="exponent must be an integer"):
        MonomialIdeal([gen])


def test_colon_var_saturate():
    ideal = MonomialIdeal([(2, 1), (0, 3)])
    assert colon_var_saturate(ideal, 0).gens == ((0, 1),)
    assert colon_var_saturate(ideal, 1).gens == ((0, 0),)


def test_ideal_intersect_and_sum():
    x = MonomialIdeal([(1, 0)])
    y = MonomialIdeal([(0, 1)])
    assert ideal_intersect(x, y).gens == ((1, 1),)
    assert ideal_sum(x, y).gens == ((0, 1), (1, 0))
    zero = MonomialIdeal([], nvars=2)
    assert ideal_intersect(x, zero).is_zero()
    # (x^2, xy) n (y) = (xy)
    a = MonomialIdeal([(2, 0), (1, 1)])
    assert ideal_intersect(a, y).gens == ((1, 1),)


def test_saturate_oracle_p2_fixpoint(p2):
    ideal = MonomialIdeal([(0, 0, 2), (1, 0, 1), (1, 1, 0)])
    assert saturate_oracle(ideal, p2) == ideal


def test_saturate_oracle_irrelevant_becomes_unit(p2):
    B = MonomialIdeal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert saturate_oracle(B, p2).is_unit()
    # x0 * B saturates to (x0)
    xB = MonomialIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert saturate_oracle(xB, p2).gens == ((1, 0, 0),)


def test_saturate_oracle_h3(h3):
    # y1 * (x0 y1)^3 = (x0^3 y1) * y1^3, so y1 enters the saturation
    ideal = MonomialIdeal([(0, 1, 0, 0), (3, 0, 0, 1)])
    sat = saturate_oracle(ideal, h3)
    assert sat.gens == ((0, 0, 0, 1), (0, 1, 0, 0))


def test_saturate_oracle_idempotent(p3):
    ideal = MonomialIdeal([(1, 1, 0, 0), (0, 1, 1, 2), (0, 0, 2, 0)])
    sat = saturate_oracle(ideal, p3)
    assert saturate_oracle(sat, p3) == sat


def test_saturate_oracle_rejects_zero(p2):
    with pytest.raises(InputError):
        saturate_oracle(MonomialIdeal([], nvars=3), p2)


def test_monomials_of_degree_p2(p2_grading):
    got = monomials_of_degree(p2_grading, (2,))
    assert len(got) == 6
    assert got == brute_monomials_of_degree(p2_grading, (2,))
    assert monomials_of_degree(p2_grading, (-1,)) == []
    assert monomials_of_degree(p2_grading, (0,)) == [(0, 0, 0)]


def test_monomials_of_degree_h3(h3_grading):
    got = monomials_of_degree(h3_grading, (0, 1))
    expected = sorted([(0, 0, 1, 0),  # y0
                       (3, 0, 0, 1), (2, 1, 0, 1), (1, 2, 0, 1), (0, 3, 0, 1)])
    assert got == expected
    assert got == brute_monomials_of_degree(h3_grading, (0, 1))
    # a class with negative first coordinate
    assert monomials_of_degree(h3_grading, (-3, 1)) == [(0, 0, 0, 1)]


@pytest.mark.parametrize("entry", [2.5, 2.0, True, "2"])
def test_degree_entries_are_not_coerced(p2_grading, entry):
    # refused as the diagram route refuses them, not truncated by int()
    ideal = MonomialIdeal([(1, 0, 0)])
    with pytest.raises(InputError, match="degree entry must be an integer"):
        monomials_of_degree(p2_grading, (entry,))
    with pytest.raises(InputError, match="degree entry must be an integer"):
        hilbert_oracle(ideal, p2_grading, (entry,))


def test_degree_of_wrong_length_is_refused(h3_grading):
    with pytest.raises(InputError, match="has length 1, expected 2"):
        monomials_of_degree(h3_grading, (1,))


def check_against_box_scan(fan, rng, draws=24, box=20000):
    """The listing and the oracle equal the box scan on seeded classes.

    The classes are (-1, ..., -1) and those of random small monomials,
    moved by up to two steps in every class coordinate, so some are
    negative, some off the nef cone and some empty; a class whose box has
    more than ``box`` points is skipped, to keep the scan small.  The
    ideals are the unit ideal, the squares of the variables and random
    generators.  Returns the number of nonempty classes compared.
    """
    grading = compute_grading(fan)
    lam = positive_relation(fan)
    r = fan.nrays
    ideals = [MonomialIdeal([(0,) * r]),
              MonomialIdeal([tuple(2 if k == i else 0 for k in range(r)) for i in range(r)]),
              MonomialIdeal([tuple(rng.randint(0, 2) for _ in range(r))
                             for _ in range(rng.randint(1, 4))])]
    degrees = {(-1,) * grading.rank}
    for _ in range(draws):
        seed = grading.degree([rng.randint(0, 1) for _ in range(r)])
        degrees.add(tuple(x + rng.randint(-2, 2) for x in seed))
    nonempty = 0
    for degree in sorted(degrees):
        caps = class_caps(grading, lam, degree)
        if math.prod(c + 1 for c in caps) > box:
            continue
        expected = brute_monomials_of_degree(grading, degree, caps)
        assert monomials_of_degree(grading, degree) == expected, degree
        for ideal in ideals:
            assert hilbert_oracle(ideal, grading, degree) == sum(
                1 for k in expected if k not in ideal), (degree, ideal)
        nonempty += bool(expected)
    return nonempty


@pytest.mark.parametrize("name", ["P1", "P2", "H0", "H1", "H3", "P1xP1", "P3", "P1xP2",
                                  "P2xP2", "P4"])
def test_listing_and_oracle_match_the_box_scan(name):
    assert check_against_box_scan(named_fan(name), random.Random(name)) >= 3


@settings(max_examples=15)
@given(blown_up_fans(), st.randoms(use_true_random=False))
def test_listing_and_oracle_match_the_box_scan_on_blown_up_fans(fan, rng):
    check_against_box_scan(fan, rng)


def test_hilbert_oracle_p2(p2_grading):
    ideal = MonomialIdeal([(0, 0, 2), (1, 0, 1), (1, 1, 0)])
    values = [hilbert_oracle(ideal, p2_grading, (a,)) for a in range(-1, 4)]
    assert values == [0, 1, 3, 3, 3]


def test_hilbert_oracle_counts_quotient(p2_grading):
    ideal = MonomialIdeal([(1, 0, 0)])  # quotient is k[x1, x2]
    assert [hilbert_oracle(ideal, p2_grading, (a,)) for a in range(4)] == [1, 2, 3, 4]


def test_degree_window_contains_generator_classes(h3_grading):
    ideal = MonomialIdeal([(0, 1, 0, 0), (3, 0, 0, 1)])
    window = degree_window(h3_grading, ideal, pad=1)
    assert (0, 0) in window
    assert (1, 0) in window and (0, 1) in window
    assert len(window) == len(set(window))


def test_monomial_str():
    assert monomial_str((0, 0, 0)) == "1"
    assert monomial_str((2, 1, 0)) == "x0^2*x1"
    assert monomial_str((1, 0, 3), names=("a", "b", "c")) == "a*c^3"


def test_ideal_json_roundtrip():
    ideal = MonomialIdeal([(1, 2), (3, 0)])
    again = MonomialIdeal.from_json(ideal.to_json())
    assert again == ideal
    with pytest.raises(InputError):
        MonomialIdeal.from_json({"nope": []})
