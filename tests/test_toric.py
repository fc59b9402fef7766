import json

import pytest

from klyachko import (Fan, InputError, compute_grading, hirzebruch, load_fan,
                      named_fan, product_of_projective_spaces,
                      projective_space, validate_fan)
from klyachko.toric import tau_for_cone


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
    assert any("unimodular" in msg for msg in validate_fan(fan))
    # missing cone: fan is not complete
    fan = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (1, 2)])
    assert validate_fan(fan)
    # duplicate ray
    fan = Fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2)])
    assert any("coincide" in msg for msg in validate_fan(fan))


def test_tau_for_cone(p2):
    # on the cone spanned by e1, e2 the pairings are the coordinates
    assert tau_for_cone(p2, (1, 2), (7, 2, -3)) == (2, -3)
    tau = tau_for_cone(p2, (0, 2), (5, 0, 1))
    assert p2.pairing(tau, 0) == 5 and p2.pairing(tau, 2) == 1
    with pytest.raises(InputError):
        tau_for_cone(p2, (1,), (0, 0, 0))


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
