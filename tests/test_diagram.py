import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from klyachko import (InputError, KlyachkoDiagram, LatticeRegion,
                      MonomialIdeal, compute_diagram, gaps_by_definition,
                      hirzebruch, ideal_sum, named_fan, product_of_projective_spaces,
                      projective_space, regions, shift_diagram, sum_diagram)

# running example on the projective plane: I = (x2^2, x0*x2, x0*x1)
P2_GENS = [(0, 0, 2), (1, 0, 1), (1, 1, 0)]

WINDOW2 = list(itertools.product(range(-8, 9), repeat=2))


def gap_chars(fan, region):
    return {m for m in WINDOW2 if region.contains(fan, m)}


@pytest.fixture(scope="module")
def p2_diag(p2):
    return compute_diagram(p2, MonomialIdeal(P2_GENS))


def test_p2_example_gap_sets(p2, p2_diag):
    assert p2_diag.min_exponents == (0, 0, 0)
    assert gap_chars(p2, p2_diag.gaps((1, 2))) == {(0, 0)}
    assert gap_chars(p2, p2_diag.gaps((0, 2))) == {(0, 0), (-1, 1)}
    assert gap_chars(p2, p2_diag.gaps((0, 1))) == set()


def test_entries_cover_every_cone(p2, p2_diag):
    assert set(p2_diag.entries) == set(p2.cones)
    # the trivial cone carries the whole lattice and no gaps
    assert p2_diag.gaps(()).is_empty()
    assert p2_diag.support(()).equivalent(LatticeRegion.full(()))
    for cone in p2.cones:
        if len(cone) == 1:
            assert p2_diag.gaps(cone).is_empty()


def test_member_and_member_values(p2, p2_diag):
    assert not p2_diag.member((1, 2), (0, 0))
    assert p2_diag.member((1, 2), (1, 1))
    assert not p2_diag.member((1, 2), (-1, 0))


@pytest.mark.parametrize("fan_name,gens", [
    ("p2", P2_GENS),
    ("p2", [(3, 0, 0), (0, 2, 1)]),
    ("p3", [(1, 1, 0, 0), (0, 1, 1, 2), (0, 0, 2, 0)]),
    ("h3", [(0, 1, 0, 0), (3, 0, 0, 1)]),
    ("h3", [(2, 0, 1, 0), (0, 3, 0, 2), (1, 1, 1, 1)]),
])
def test_gaps_match_definition(request, fan_name, gens):
    fan = request.getfixturevalue(fan_name)
    ideal = MonomialIdeal(gens)
    diag = compute_diagram(fan, ideal)
    for cone in fan.cones:
        assert diag.gaps(cone).equivalent(gaps_by_definition(fan, ideal, cone))


def test_gaps_match_definition_random(p2, h3):
    rng = random.Random(7)
    for fan in (p2, h3):
        for _ in range(25):
            gens = [tuple(rng.randint(0, 4) for _ in range(fan.nrays))
                    for _ in range(rng.randint(1, 4))]
            ideal = MonomialIdeal(gens)
            diag = compute_diagram(fan, ideal)
            for cone in fan.cones:
                assert diag.gaps(cone).equivalent(
                    gaps_by_definition(fan, ideal, cone))


def test_principal_ideal(p2):
    diag = compute_diagram(p2, MonomialIdeal([(2, 1, 0)]))
    assert diag.min_exponents == (2, 1, 0)
    for cone in p2.max_cones:
        assert diag.gaps(cone).is_empty()


def test_not_principal(p2, p2_diag):
    assert any(not p2_diag.gaps(cone).is_empty() for cone in p2.max_cones)


def test_sum_matches_direct_computation(p2, h3):
    cases = [
        (p2, P2_GENS, [(0, 2, 0), (1, 0, 2)]),
        (p2, [(3, 0, 0)], [(0, 0, 2)]),
        (h3, [(0, 1, 0, 0), (3, 0, 0, 1)], [(1, 0, 2, 0)]),
    ]
    for fan, ga, gb in cases:
        a, b = MonomialIdeal(ga), MonomialIdeal(gb)
        combined = sum_diagram(fan, compute_diagram(fan, a),
                               compute_diagram(fan, b))
        direct = compute_diagram(fan, ideal_sum(a, b))
        assert combined.same_memberships(direct)


@pytest.mark.parametrize("a", [2, 5])
def test_shift_translates_gaps(p2, p2_diag, a):
    shifted = shift_diagram(p2, p2_diag, (a, 0, 0))
    entry = shifted[(0, 2)]
    found = {m for m in WINDOW2 if entry.gaps.contains(p2, m)}
    assert found == {(a, 0), (a - 1, 1)}
    # support moves the same way: the corner sits at the shifted origin
    assert entry.support.contains(p2, (a, 0))
    assert not entry.support.contains(p2, (a + 1, 0))


def test_shift_rejects_bad_divisor(p2, p2_diag):
    with pytest.raises(InputError):
        shift_diagram(p2, p2_diag, (1, 0))


def test_same_memberships(p2, p2_diag):
    reversed_ties = compute_diagram(p2, MonomialIdeal(P2_GENS), tie_reverse=True)
    assert p2_diag.same_memberships(reversed_ties)
    other = compute_diagram(p2, MonomialIdeal([(1, 1, 0), (0, 0, 2)]))
    assert not p2_diag.same_memberships(other)


def test_tie_order_does_not_matter(p2):
    # two generators share the exponent on the last ray of each cone
    ideal = MonomialIdeal([(2, 0, 1), (0, 2, 1), (1, 1, 0)])
    forward = compute_diagram(p2, ideal)
    backward = compute_diagram(p2, ideal, tie_reverse=True)
    assert forward.same_memberships(backward)


def test_json_roundtrip(p2, p2_diag):
    blob = p2_diag.to_json()
    again = KlyachkoDiagram.from_json(p2, blob)
    assert again.same_memberships(p2_diag)
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(blob, sort_keys=True)


def test_json_rejects_malformed(p2, p2_diag):
    with pytest.raises(InputError):
        KlyachkoDiagram.from_json(p2, {"cones": {}})
    blob = p2_diag.to_json()
    blob["cones"]["5,7"] = blob["cones"]["1,2"]
    with pytest.raises(InputError):
        KlyachkoDiagram.from_json(p2, blob)


def test_rejects_bad_input(p2):
    with pytest.raises(InputError):
        compute_diagram(p2, MonomialIdeal([], nvars=3))
    with pytest.raises(InputError):
        compute_diagram(p2, MonomialIdeal([(1, 0, 0, 0)]))


CANONICAL_FANS = [projective_space(2), hirzebruch(3),
                  product_of_projective_spaces(1, 1), projective_space(3),
                  product_of_projective_spaces(2, 2)]


@st.composite
def fans_ideal_pairs(draw):
    fan = draw(st.sampled_from(CANONICAL_FANS))
    exponents = st.tuples(*[st.integers(0, 3)] * fan.nrays)
    first, second = (MonomialIdeal(draw(st.lists(exponents, min_size=1, max_size=4)))
                     for _ in range(2))
    divisor = draw(st.tuples(*[st.integers(-3, 3)] * fan.nrays))
    return fan, first, second, divisor


@settings(max_examples=40)
@given(fans_ideal_pairs())
def test_built_regions_are_canonical(case):
    # compute, sum and shift skip the prune; rebuilding through the pruning
    # constructor must give back the same cells
    fan, first, second, divisor = case
    diags = [compute_diagram(fan, first), compute_diagram(fan, second)]
    diags.append(sum_diagram(fan, *diags))
    entries = [e for d in diags for e in d.entries.values()]
    entries += shift_diagram(fan, diags[-1], divisor).values()
    for entry in entries:
        for region in entry:
            assert LatticeRegion(region.cone, region.cells).cells == region.cells


# cells offered to the prune, for compute + sum + shift on these ideals:
# 565 on P2xP2 and 374 on P4, where pruning every region built offered 4,946
# and 2,816
PRUNE_CASES = [
    ("P2xP2", [(2, 0, 1, 0, 3, 1), (0, 3, 1, 2, 0, 0), (1, 1, 0, 0, 2, 2), (3, 2, 2, 1, 1, 0)],
     [(0, 2, 2, 1, 0, 3), (2, 1, 0, 3, 1, 1), (1, 0, 3, 0, 2, 0), (0, 0, 1, 2, 3, 2)],
     (1, -2, 0, 3, -1, 2), 700),
    ("P4", [(2, 0, 1, 3, 0), (0, 3, 1, 0, 2), (1, 1, 0, 2, 2), (3, 2, 2, 0, 1)],
     [(0, 2, 3, 1, 0), (2, 1, 0, 2, 3), (1, 0, 2, 3, 1), (0, 3, 1, 1, 2)],
     (2, -1, 0, 1, -3), 470),
]


@pytest.mark.parametrize("name,first,second,divisor,bound", PRUNE_CASES,
                         ids=[case[0] for case in PRUNE_CASES])
def test_prune_work_is_bounded(monkeypatch, name, first, second, divisor, bound):
    offered = []
    prune = regions._prune

    def counting(cells):
        offered.append(len(cells))
        return prune(cells)

    monkeypatch.setattr(regions, "_prune", counting)
    fan = named_fan(name)
    total = sum_diagram(fan, compute_diagram(fan, MonomialIdeal(first)),
                        compute_diagram(fan, MonomialIdeal(second)))
    shift_diagram(fan, total, divisor)
    assert sum(offered) <= bound
