import itertools
import json

import pytest
from conftest import blown_up_fans, star_subdivide
from hypothesis import given, settings

from klyachko import (Fan, InputError, KlyachkoDiagram, MonomialIdeal,
                      compute_diagram, compute_grading, hirzebruch, load_fan,
                      named_fan, product_of_projective_spaces,
                      projective_space, validate_fan)
from klyachko.hilbert import walk_fibers
from klyachko.linalg import unimodular_inverse
from klyachko.regions import section_fibers


def test_projective_plane_shape(p2):
    assert p2.dim == 2
    assert p2.rays == ((-1, -1), (1, 0), (0, 1))
    assert p2.max_cones == ((0, 1), (0, 2), (1, 2))
    assert p2.validate() == []
    assert () in p2.cones and (0,) in p2.cones
    assert len(p2.cones) == 1 + 3 + 3


def test_p2_grading(p2_grading):
    assert p2_grading.rank == 1
    assert p2_grading.variable_degrees() == [(1,), (1,), (1,)]
    assert p2_grading.basis_rays == (0,)
    assert p2_grading.degree((1, 2, 0)) == (3,)
    assert p2_grading.canonical_lift((4,)) == (4, 0, 0)


def test_hirzebruch_grading(h3, h3_grading):
    assert h3.validate() == []
    assert h3_grading.rank == 2
    assert h3_grading.variable_degrees() == [(1, 0), (1, 0), (0, 1), (-3, 1)]
    assert h3_grading.basis_rays == (0, 2)
    lift = h3_grading.canonical_lift((-3, 1))
    assert lift == (-3, 0, 1, 0)
    assert h3_grading.degree(lift) == (-3, 1)


def test_product_grading(p1xp1):
    grading = compute_grading(p1xp1)
    assert p1xp1.validate() == []
    degs = grading.variable_degrees()
    assert sorted(degs) == [(0, 1), (0, 1), (1, 0), (1, 0)]


def test_grading_annihilates_rays(p2, p3, h3):
    for fan in (p2, p3, h3):
        grading = compute_grading(fan)
        # principal divisors have class zero
        for j in range(fan.dim):
            char = tuple(1 if i == j else 0 for i in range(fan.dim))
            image = tuple(fan.pairing(char, i) for i in range(fan.nrays))
            assert grading.degree(image) == (0,) * grading.rank


def test_degree_of_canonical_lift_roundtrips(h3_grading):
    for u in [(0, 0), (1, 0), (-3, 1), (2, 5), (-7, 3)]:
        assert h3_grading.degree(h3_grading.canonical_lift(u)) == u


def test_canonical_lift_rejects_bad_length(p2_grading):
    with pytest.raises(InputError):
        p2_grading.canonical_lift((1, 2))


def test_validate_fan_rejects_bad_input():
    # non-primitive ray
    fan = Fan(2, [(2, 0), (0, 1), (-2, -1)], [(0, 1), (1, 2), (0, 2)])
    assert any("primitive" in msg for msg in validate_fan(fan))
    # non-unimodular cone
    fan = Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert "maximal cone (0, 1) is not unimodular" in validate_fan(fan)
    # missing cone: fan is not complete
    fan = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (1, 2)])
    assert validate_fan(fan)
    # duplicate ray
    fan = Fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2)])
    assert any("coincide" in msg for msg in validate_fan(fan))


def test_tau_for_cone(p2):
    # on the cone spanned by e1, e2 the pairings are the coordinates
    assert p2.character((1, 2), (2, -3)) == (2, -3)
    tau = p2.character((0, 2), (5, 1))
    assert p2.pairing(tau, 0) == 5 and p2.pairing(tau, 2) == 1
    with pytest.raises(InputError):
        p2.character((1,), (0,))
    with pytest.raises(InputError):
        p2.character((1, 2), (0, 0, 0))
    skew = Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InputError, match="not unimodular"):
        skew.character((0, 1), (0, 0))


def _entry_points(p2, bad):
    grading = compute_grading(p2)
    diag = compute_diagram(p2, MonomialIdeal([(1, 1, 0)]))
    return {
        "fan ray": lambda: Fan(2, [(-1, -1), (1, bad), (0, 1)], p2.max_cones),
        "fan cone": lambda: Fan(2, p2.rays, [(0, 1), (0, 2), (1, bad)]),
        "canonical_lift": lambda: grading.canonical_lift((bad,)),
        "character": lambda: p2.character((1, 2), (0, bad)),
        "section_fibers": lambda: list(section_fibers(p2, (0, 0, bad))),
        "walk_fibers": lambda: list(walk_fibers(p2, diag, (0, 0, bad))),
        "diagram floor": lambda: KlyachkoDiagram(
            p2, (bad, 0, 0), {cone: diag.gaps(cone) for cone in p2.max_cones}),
    }


@pytest.mark.parametrize("bad", [1.5, True, "1"])
@pytest.mark.parametrize("entry", ["fan ray", "fan cone", "canonical_lift", "character",
                                   "section_fibers", "walk_fibers", "diagram floor"])
def test_toric_layer_refuses_non_integers(p2, entry, bad):
    with pytest.raises(InputError, match="must be an integer"):
        _entry_points(p2, bad)[entry]()


def _is_grading_of(fan, grading):
    deg, basis = grading.deg_matrix, grading.basis_rays
    rank = fan.nrays - fan.dim
    assert grading.rank == rank
    for k, ray in enumerate(basis):
        assert [row[ray] for row in deg] == [int(i == k) for i in range(rank)]
    for row in deg:
        assert all(sum(d * ray[axis] for d, ray in zip(row, fan.rays)) == 0
                   for axis in range(fan.dim))
    for subset in itertools.combinations(range(fan.nrays), rank):
        rest = [fan.rays[i] for i in range(fan.nrays) if i not in subset]
        if subset == basis:
            assert unimodular_inverse(rest) is not None
            return
        assert unimodular_inverse(rest) is None


@settings(max_examples=60)
@given(blown_up_fans())
def test_grading_of_blown_up_fans(fan):
    assert fan.validate() == []
    _is_grading_of(fan, compute_grading(fan))


def test_blown_up_plane_grading():
    # P2 blown up at two torus-fixed points; rank 3
    fan = star_subdivide(star_subdivide(projective_space(2), (1, 2)), (0, 1))
    assert fan.rays == ((-1, -1), (1, 0), (0, 1), (1, 1), (0, -1))
    assert fan.validate() == []
    grading = compute_grading(fan)
    assert grading.basis_rays == (0, 1, 2)
    assert grading.deg_matrix == ((1, 0, 0, 1, 0), (0, 1, 0, -1, -1), (0, 0, 1, 0, 1))
    _is_grading_of(fan, grading)


def test_named_fan_catalog():
    assert named_fan("P2").rays == projective_space(2).rays
    assert named_fan("H3").rays == hirzebruch(3).rays
    assert named_fan("P1xP2").rays == product_of_projective_spaces(1, 2).rays
    assert named_fan("nonsense") is None
    assert named_fan("P0") is None


def test_load_fan_json_roundtrip(tmp_path, h3):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(h3.to_json()))
    loaded = load_fan(str(path))
    assert loaded == h3
    with pytest.raises(InputError):
        load_fan(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "rays": [[2, 0], [0, 1], [-2, -1]],
                               "max_cones": [[0, 1], [1, 2], [0, 2]]}))
    with pytest.raises(InputError):
        load_fan(str(bad))


def test_projective_space_sizes():
    for n in (1, 2, 3, 4):
        fan = projective_space(n)
        assert fan.nrays == n + 1
        assert len(fan.max_cones) == n + 1
        assert fan.validate() == []


def test_product_fan_valid():
    fan = product_of_projective_spaces(2, 2)
    assert fan.validate() == []
    assert fan.nrays == 6
    assert len(fan.max_cones) == 9
