import hashlib
import itertools
import json
import random

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from klyachko import (Cell, Fan, InputError, KlyachkoDiagram, LatticeRegion,
                      MonomialIdeal, compute_diagram, compute_grading,
                      gaps_by_definition, hilbert_value, hirzebruch, ideal_sum,
                      named_fan, product_of_projective_spaces, projective_space,
                      reconstruct_generators, saturate_oracle, shift_diagram,
                      sum_diagram)
import klyachko.diagram as diagram
import klyachko.reconstruction as reconstruction
from klyachko.checks import random_ideal
from conftest import blown_up_fans

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
    with pytest.raises(TypeError):
        p2_diag.entries[(0,)] = p2_diag.entries[(1,)]
    # the trivial cone carries the whole lattice and no gaps
    assert p2_diag.gaps(()).is_empty()
    assert p2_diag.support(()).difference(LatticeRegion.full(())) is None
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
        assert diag.gaps(cone).difference(gaps_by_definition(fan, ideal, cone)) is None


def test_gaps_match_definition_random(p2, h3):
    rng = random.Random(7)
    for fan in (p2, h3):
        for _ in range(25):
            gens = [tuple(rng.randint(0, 4) for _ in range(fan.nrays))
                    for _ in range(rng.randint(1, 4))]
            ideal = MonomialIdeal(gens)
            diag = compute_diagram(fan, ideal)
            for cone in fan.cones:
                assert diag.gaps(cone).difference(
                    gaps_by_definition(fan, ideal, cone)) is None


def test_principal_ideal(p2):
    diag = compute_diagram(p2, MonomialIdeal([(2, 1, 0)]))
    assert diag.min_exponents == (2, 1, 0)
    for cone in p2.max_cones:
        assert diag.gaps(cone).is_empty()


def test_not_principal(p2, p2_diag):
    assert any(not p2_diag.gaps(cone).is_empty() for cone in p2.max_cones)


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
    other = compute_diagram(p2, MonomialIdeal([(1, 1, 0), (0, 0, 2)]))
    # x0 is inverted over the cone (1, 2): x0*x2 puts x2 in the first ideal only
    assert p2_diag.difference(other) == ((1, 2), "gaps", Cell({1: (0, 0), 2: (1, 1)}))


def test_json_roundtrip(p2, p2_diag):
    blob = p2_diag.to_json()
    again = KlyachkoDiagram.from_json(p2, blob)
    assert again.difference(p2_diag) is None
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(blob, sort_keys=True)


def test_json_rejects_malformed(p2, p2_diag):
    with pytest.raises(InputError):
        KlyachkoDiagram.from_json(p2, {"s": [0, 0, 0], "gaps": {}})
    blob = p2_diag.to_json()
    blob["gaps"]["5,7"] = blob["gaps"]["1,2"]
    with pytest.raises(InputError, match="'5,7'"):
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
@example((projective_space(2), MonomialIdeal(P2_GENS),
          MonomialIdeal([(0, 2, 0), (1, 0, 2)]), (0, 0, 0)))
@example((projective_space(2), MonomialIdeal([(3, 0, 0)]),
          MonomialIdeal([(0, 0, 2)]), (0, 0, 0)))
@example((hirzebruch(3), MonomialIdeal([(0, 1, 0, 0), (3, 0, 0, 1)]),
          MonomialIdeal([(1, 0, 2, 0)]), (0, 0, 0, 0)))
def test_sum_matches_direct_computation(case):
    fan, first, second, _ = case
    combined = sum_diagram(fan, compute_diagram(fan, first),
                           compute_diagram(fan, second))
    direct = compute_diagram(fan, ideal_sum(first, second))
    assert combined.difference(direct) is None


def test_sum_refuses_a_diagram_without_members(p2):
    # a gap over the whole floor orthant of one maximal cone leaves no monomial
    diag = compute_diagram(p2, MonomialIdeal([(1, 1, 0)]))
    s = diag.min_exponents
    gaps = {cone: diag.gaps(cone) for cone in p2.max_cones}
    gaps[(1, 2)] = LatticeRegion((1, 2), [Cell({1: (s[1], None), 2: (s[2], None)})])
    covered = KlyachkoDiagram(p2, s, gaps)
    for pair in ((covered, diag), (diag, covered)):
        with pytest.raises(InputError, match="not the diagram of a nonzero ideal"):
            sum_diagram(p2, *pair)


def test_sum_refuses_diagrams_on_another_fan(p2, h3):
    diag = compute_diagram(h3, MonomialIdeal([(0, 1, 0, 0), (3, 0, 0, 1)]))
    for pair in ((diag, diag), (diag, compute_diagram(p2, MonomialIdeal(P2_GENS)))):
        with pytest.raises(InputError, match="different fans"):
            sum_diagram(p2, *pair)


CATALOG = ("P1", "P2", "H3", "P1xP1", "P3", "P1xP2", "P2xP2", "P4")


def catalog_ideals(fan):
    exponents = st.tuples(*[st.integers(0, 3)] * fan.nrays)
    return st.lists(exponents, min_size=1, max_size=4).map(MonomialIdeal)


def diagram_text(diag):
    return json.dumps(diag.to_json(), sort_keys=True)


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=15, report_multiple_bugs=False,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_cells_depend_only_on_the_saturation(name, data):
    # an ideal shares its localization at every maximal cone with its
    # saturation, and the cells are built from those localizations alone;
    # no shrinking, since each step reruns the oracle and four diagram
    # builds, so a failure is reported as first drawn
    fan = named_fan(name)
    first, second = data.draw(catalog_ideals(fan)), data.draw(catalog_ideals(fan))
    diag = compute_diagram(fan, first)
    assert diagram_text(diag) == diagram_text(compute_diagram(fan, saturate_oracle(first, fan)))
    assert (diagram_text(sum_diagram(fan, diag, compute_diagram(fan, second)))
            == diagram_text(compute_diagram(fan, ideal_sum(first, second))))


@settings(max_examples=40)
@given(fans_ideal_pairs())
def test_face_gaps_agree_over_every_maximal_cone(case):
    # a face's gaps are derived from the first maximal cone through it; every
    # other maximal cone through it gives the same cells
    fan, first, second, _ = case
    diags = [compute_diagram(fan, first), compute_diagram(fan, second)]
    diags.append(sum_diagram(fan, *diags))
    for diag in diags:
        for face in fan.cones:
            for sigma in fan.max_cones:
                if not set(face) <= set(sigma):
                    continue
                cells = [Cell({ray: iv for ray, iv in cell.bounds if ray in face})
                         for cell in diag.gaps(sigma).cells
                         if all(cell.interval(ray)[1] is None
                                for ray in sigma if ray not in face)]
                assert LatticeRegion(face, cells).difference(diag.gaps(face)) is None


def test_faces_are_not_listed():
    # only entries and the membership check list every face
    p3 = projective_space(3)
    fan = Fan(p3.dim, p3.rays, p3.max_cones)
    grading = compute_grading(fan)
    ideal = MonomialIdeal([(1, 1, 0, 0), (0, 1, 1, 2), (0, 0, 2, 0)])
    diag = compute_diagram(fan, ideal)
    total = sum_diagram(fan, diag, compute_diagram(fan, MonomialIdeal([(0, 0, 0, 3)])))
    shift_diagram(fan, total, (1, -2, 0, 3))
    reconstruct_generators(grading, total)
    hilbert_value(grading, total, (4,))
    KlyachkoDiagram.from_json(fan, json.loads(json.dumps(total.to_json())))
    assert "cones" not in fan.__dict__
    assert len(fan.cones) == 1 + 4 + 6 + 4 and "cones" in fan.__dict__


@settings(max_examples=40)
@given(fans_ideal_pairs())
def test_built_regions_are_canonical(case):
    # compute, sum and shift skip the constructor; rebuilding through it,
    # which drops empty cells and sorts, must give back the same cells
    fan, first, second, divisor = case
    diags = [compute_diagram(fan, first), compute_diagram(fan, second)]
    diags.append(sum_diagram(fan, *diags))
    entries = [e for d in diags for e in d.entries.values()]
    entries += shift_diagram(fan, diags[-1], divisor).values()
    for entry in entries:
        for region in entry:
            assert LatticeRegion(region.cone, region.cells).cells == region.cells


# total gap cells over the maximal cones of 20 seeded ideals per fan (up to
# 8 generators, exponents up to 5), so that a builder cutting more cells fails
GAP_CELL_BOUNDS = {"P1": 0, "P2": 44, "H3": 52, "P1xP1": 47, "P3": 237,
                   "P1xP2": 297, "P2xP2": 1458, "P4": 717}


@pytest.mark.parametrize("name", CATALOG)
def test_gap_cells_are_bounded(name):
    fan = named_fan(name)
    rng = random.Random(name)
    total = 0
    for _ in range(20):
        diag = compute_diagram(fan, random_ideal(rng, fan.nrays, max_gens=8, max_exp=5))
        total += sum(len(diag.gaps(cone).cells) for cone in fan.max_cones)
    assert total <= GAP_CELL_BOUNDS[name]


# sha256 prefixes of the builder's JSON, stored key and cell order, for 20
# seeded ideals per fan and the sums of consecutive ones, so that any change
# of a cell or of the cell order fails
BUILDER_DIGESTS = {"P1": "c9be3e2c149b94a6", "P2": "a0b9b653f09d8679",
                   "H3": "04989bffc4cfe149", "P1xP1": "88108569875484c3",
                   "P3": "6381d1fff1e6fcf2", "P1xP2": "0c8ab772874b02c4",
                   "P2xP2": "dac06652cc354992", "P4": "9912d168a05b1af2"}


@pytest.mark.parametrize("name", CATALOG)
def test_builder_output_is_pinned(name):
    fan = named_fan(name)
    rng = random.Random(f"digest-{name}")
    diags = [compute_diagram(fan, random_ideal(rng, fan.nrays, max_gens=8, max_exp=5))
             for _ in range(20)]
    diags += [sum_diagram(fan, a, b) for a, b in zip(diags, diags[1:])]
    text = "\n".join(json.dumps(d.to_json()) for d in diags)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BUILDER_DIGESTS[name]


@pytest.mark.parametrize("name", CATALOG)
def test_one_minimalize_per_maximal_cone(name, monkeypatch):
    # the bands of a cone grow one minimal set; only the localization at
    # each maximal cone is minimalized from scratch
    original, calls = diagram.minimalize, []

    def counting(gens):
        calls.append(1)
        return original(gens)

    fan = named_fan(name)
    rng = random.Random(f"sweep-{name}")
    ideals = [random_ideal(rng, fan.nrays, max_gens=8, max_exp=5) for _ in range(20)]
    monkeypatch.setattr(diagram, "minimalize", counting)
    for ideal in ideals:
        calls.clear()
        compute_diagram(fan, ideal)
        assert len(calls) == len(fan.max_cones), ideal


@pytest.mark.parametrize("name", CATALOG)
def test_sum_sweeps_the_cone_generators(name, monkeypatch):
    # a sum of built diagrams scans no saturation: it minimalizes the two
    # diagrams' generators once per maximal cone, and a sum of the same
    # diagrams read back from JSON, which scans them, has the same text
    counts = {"scan": 0, "minimalize": 0}

    def counting(key, original):
        def counted(*args):
            counts[key] += 1
            return original(*args)
        return counted

    fan = named_fan(name)
    rng = random.Random(f"sum-{name}")
    diags = [compute_diagram(fan, random_ideal(rng, fan.nrays, max_gens=8, max_exp=5))
             for _ in range(10)]
    read = [KlyachkoDiagram.from_json(fan, json.loads(json.dumps(d.to_json())))
            for d in diags]
    monkeypatch.setattr(diagram, "minimal_generator_exponents",
                        counting("scan", diagram.minimal_generator_exponents))
    for module in (diagram, reconstruction):
        monkeypatch.setattr(module, "minimalize",
                            counting("minimalize", module.minimalize))
    for pair, again in zip(zip(diags, diags[1:]), zip(read, read[1:])):
        counts.update(scan=0, minimalize=0)
        total = sum_diagram(fan, *pair)
        assert counts == {"scan": 0, "minimalize": len(fan.max_cones)}
        assert diagram_text(sum_diagram(fan, *again)) == diagram_text(total)


@pytest.mark.parametrize("name", CATALOG)
def test_cells_are_swept_only_when_read(name, monkeypatch):
    # reconstruction and sums work from the cone generators and make no Cell;
    # the first read of the cells sweeps every maximal cone once, a second
    # read sweeps nothing
    counts = {"cells": 0, "sweeps": 0}
    make, sweep = Cell._of, diagram._sweep

    def counted_cell(bounds):
        counts["cells"] += 1
        return make(bounds)

    def counted_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    fan = named_fan(name)
    grading = compute_grading(fan)
    rng = random.Random(f"lazy-{name}")
    ideals = [random_ideal(rng, fan.nrays, max_gens=8, max_exp=5) for _ in range(10)]
    monkeypatch.setattr(Cell, "_of", staticmethod(counted_cell))
    monkeypatch.setattr(diagram, "_sweep", counted_sweep)
    for first, second in zip(ideals, ideals[1:]):
        counts.update(cells=0, sweeps=0)
        diags = [compute_diagram(fan, first), compute_diagram(fan, second)]
        total = sum_diagram(fan, *diags)
        for diag in diags + [total]:
            reconstruct_generators(grading, diag)
        assert counts == {"cells": 0, "sweeps": 0}
        text = diagram_text(total)
        assert counts["sweeps"] == 1
        counts.update(cells=0, sweeps=0)
        assert diagram_text(total) == text
        for cone in fan.max_cones:
            total.gaps(cone)
        assert counts == {"cells": 0, "sweeps": 0}


@settings(max_examples=25, report_multiple_bugs=False)
@given(data=st.data())
def test_builder_on_blown_up_fans(data):
    # the plane staircase and the band sweep against the definition, and the
    # sum against the diagram of the summed ideal, on fans off the catalog
    fan = data.draw(blown_up_fans())
    first, second = data.draw(catalog_ideals(fan)), data.draw(catalog_ideals(fan))
    diag = compute_diagram(fan, first)
    for cone in fan.max_cones:
        assert diag.gaps(cone).difference(gaps_by_definition(fan, first, cone)) is None
    assert (diagram_text(sum_diagram(fan, diag, compute_diagram(fan, second)))
            == diagram_text(compute_diagram(fan, ideal_sum(first, second))))
