import random

import pytest
from conftest import star_subdivide

from klyachko import (KlyachkoDiagram, MonomialIdeal, compute_diagram, projective_space,
                      saturate_oracle)
from klyachko.checks import (PROPERTY_NAMES, check_hilbert, check_ideal,
                             check_membership_identity, check_roundtrip,
                             check_saturation_invariance, random_ideal, run_suite)
from klyachko.regions import Cell, LatticeRegion
import klyachko.diagram as diagram

GOOD = [(0, 0, 2), (1, 0, 1), (1, 1, 0)]


def test_random_ideal_seeded():
    a = random_ideal(random.Random(5), 3)
    b = random_ideal(random.Random(5), 3)
    assert a == b
    assert not a.is_zero()
    assert a.nvars == 3
    for g in random_ideal(random.Random(1), 4, max_exp=2).gens:
        assert all(0 <= e <= 2 for e in g)


def test_all_checks_pass_on_good_ideal(p2, p2_grading):
    ideal = MonomialIdeal(GOOD)
    outcome = check_ideal(p2, p2_grading, ideal)
    assert set(outcome) == set(PROPERTY_NAMES)
    assert all(v is None for v in outcome.values())


def tampered_diagram(fan, ideal, cone, gaps):
    """The ideal's diagram with the gaps of one maximal cone replaced."""
    diag = compute_diagram(fan, ideal)
    return KlyachkoDiagram(fan, diag.min_exponents,
                           {c: gaps if c == cone else diag.gaps(c) for c in fan.max_cones})


def test_membership_check_catches_tampering(p2):
    ideal = MonomialIdeal(GOOD)
    # erase the gap cells over one cone: membership grows illegally
    broken = tampered_diagram(p2, ideal, (1, 2), LatticeRegion.empty((1, 2)))
    message = check_membership_identity(p2, ideal, broken)
    assert message is not None and "cone (1, 2)" in message
    assert "character" in message


def test_far_away_gap_cell_is_caught(p2):
    # a gap cell far outside any window sized by the generator exponents
    ideal = MonomialIdeal(GOOD)
    gaps = compute_diagram(p2, ideal).gaps((1, 2))
    far = LatticeRegion((1, 2), gaps.cells + (Cell({1: (40, 40), 2: (40, 40)}),))
    broken = tampered_diagram(p2, ideal, (1, 2), far)
    message = check_membership_identity(p2, ideal, broken)
    assert message is not None and "cone (1, 2)" in message
    assert "pairings (40, 40) (character (40, 40))" in message
    message = check_saturation_invariance(p2, ideal, broken)
    assert message is not None and "gaps regions differ at pairings (40, 40)" in message


def test_membership_check_catches_support_tampering(p2):
    ideal = MonomialIdeal(GOOD)
    # lower the floor on ray 1: every support through that ray grows by a slab
    diag = compute_diagram(p2, ideal)
    broken = KlyachkoDiagram(p2, (0, -1, 0), {c: diag.gaps(c) for c in p2.max_cones})
    message = check_membership_identity(p2, ideal, broken)
    assert message == "cone (1,): membership differs at pairings (-1,)"


def test_saturation_check_catches_tampering(p2):
    ideal = MonomialIdeal(GOOD)
    extra = LatticeRegion((0, 1), [Cell({0: (0, 1), 1: (0, 1)})])
    broken = tampered_diagram(p2, ideal, (0, 1), extra)
    message = check_saturation_invariance(p2, ideal, broken)
    assert message is not None and "differ" in message


def test_roundtrip_check_catches_tampering(p2, p2_grading):
    ideal = MonomialIdeal(GOOD)
    # shrink a gap set: the reconstruction picks up monomials outside I^sat
    broken = tampered_diagram(p2, ideal, (0, 2),
                              LatticeRegion((0, 2), [Cell({0: (0, 0), 2: (0, 0)})]))
    message = check_roundtrip(p2, p2_grading, ideal, broken)
    assert message is not None and "oracle" in message
    assert message.startswith("reconstruction from the diagram gives")


def test_roundtrip_check_names_the_cell_route(p2, p2_grading, monkeypatch):
    # a built diagram scans its generators, a diagram file its cells; break
    # the cells only, and the check still fails, naming the cell route
    ideal = MonomialIdeal(GOOD)
    assert check_roundtrip(p2, p2_grading, ideal) is None
    sweep = diagram._sweep

    def shrunk(*args):
        regions = sweep(*args)
        regions[(0, 2)] = LatticeRegion((0, 2), [Cell({0: (0, 0), 2: (0, 0)})])
        return regions

    monkeypatch.setattr(diagram, "_sweep", shrunk)
    message = check_roundtrip(p2, p2_grading, ideal)
    assert message is not None and message.startswith("reconstruction from its cells")


def test_hilbert_check_catches_tampering(p2, p2_grading):
    ideal = MonomialIdeal(GOOD)
    bigger = LatticeRegion((1, 2), [Cell({1: (0, 1), 2: (0, 1)})])
    broken = tampered_diagram(p2, ideal, (1, 2), bigger)
    message = check_hilbert(p2, p2_grading, ideal, broken)
    assert message is not None and "oracle counts" in message


def test_run_suite_structure(p2):
    report = run_suite(p2, seed=3, count=10)
    assert report["fan"] == "P2"
    assert report["cases"] == 10
    assert report["seed"] == 3
    assert [p["name"] for p in report["properties"]] == list(PROPERTY_NAMES)
    for prop in report["properties"]:
        assert prop["status"] == "pass"
        assert prop["failures"] == []


@pytest.mark.parametrize("base,faces", [
    (2, [(1, 2), (0, 1)]),   # P2 blown up at two points: class group of rank 3
    (3, [(0, 1)]),           # P3 blown up along a line
])
def test_run_suite_on_blown_up_fans(base, faces):
    fan = projective_space(base)
    for face in faces:
        fan = star_subdivide(fan, face)
    assert fan.validate() == []
    report = run_suite(fan, seed=5, count=10, max_gens=4, max_exp=3)
    assert report["fan"] == fan.name
    assert [p["status"] for p in report["properties"]] == ["pass"] * len(PROPERTY_NAMES)


def test_run_suite_reports_failures(p2, monkeypatch):
    import klyachko.checks as checks

    def always_wrong(fan, ideal, diag=None, sat=None):
        return "forced witness"

    monkeypatch.setattr(checks, "check_saturation_invariance", always_wrong)
    report = checks.run_suite(p2, seed=0, count=3)
    saturation = [p for p in report["properties"] if p["name"] == "saturation"][0]
    assert saturation["status"] == "fail"
    assert len(saturation["failures"]) == 3
    assert saturation["failures"][0]["witness"] == "forced witness"
    assert saturation["failures"][0]["case"] == 0


def test_one_saturation_per_ideal(p2, monkeypatch):
    # check_ideal computes the oracle saturation once and shares it
    import klyachko.checks as checks
    calls = []

    def counted(ideal, fan):
        calls.append(ideal)
        return saturate_oracle(ideal, fan)

    monkeypatch.setattr(checks, "saturate_oracle", counted)
    report = checks.run_suite(p2, count=5)
    assert len(calls) == 5
    assert [p["status"] for p in report["properties"]] == ["pass"] * len(PROPERTY_NAMES)
