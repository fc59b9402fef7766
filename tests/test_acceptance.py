"""End-to-end acceptance checks, one numbered test per criterion.

Every expected value here was either verified against the brute-force
monomial oracle or frozen from an exact hand computation.  Nothing is
tuned to the implementation: if a test goes red, the engine is wrong.
"""

import json
import os
import subprocess
import sys
from itertools import product

import pytest

from klyachko import (Cell, InfiniteRegionError, KlyachkoDiagram, LatticeRegion,
                      MonomialIdeal, compute_diagram, constant_hilbert_poly,
                      count_region_points, hilbert_value, ideal_sum,
                      local_cohomology_h1, reconstruct_generators,
                      region_points, saturate_oracle, sum_diagram)
from klyachko.checks import run_suite

PLANE_GENS = [(0, 0, 2), (1, 0, 1), (1, 1, 0)]
SPACE_GENS = [(1, 1, 0, 0), (0, 1, 1, 2), (0, 0, 2, 0)]
SURFACE_GENS = [(0, 1, 0, 0), (3, 0, 0, 1)]  # (x1, x0^3*y1) on H_3


def gap_chars(fan, diag, cone):
    """The gap set over a maximal cone as a finite set of characters."""
    return set(region_points(fan, diag.gaps(cone)))


def test_criterion_01_plane_diagram(p2):
    diag = compute_diagram(p2, MonomialIdeal(PLANE_GENS))
    assert diag.min_exponents == (0, 0, 0)
    assert gap_chars(p2, diag, (1, 2)) == {(0, 0)}
    assert gap_chars(p2, diag, (0, 2)) == {(0, 0), (-1, 1)}
    assert diag.gaps((0, 1)).is_empty()


def test_criterion_02_sum_of_ideals(p2):
    left = MonomialIdeal([(0, 2, 4), (0, 3, 1), (0, 5, 0)])
    right = MonomialIdeal([(0, 0, 4), (0, 1, 3), (0, 4, 2)])
    d_left = compute_diagram(p2, left)
    d_right = compute_diagram(p2, right)
    assert d_left.min_exponents == (0, 2, 0)
    assert d_right.min_exponents == (0, 0, 2)
    assert gap_chars(p2, d_left, (1, 2)) == {(2, 0), (2, 1), (2, 2), (2, 3),
                                             (3, 0), (4, 0)}
    assert gap_chars(p2, d_right, (1, 2)) == {(0, 2), (0, 3), (1, 2), (2, 2),
                                              (3, 2)}

    direct = compute_diagram(p2, ideal_sum(left, right))
    assert direct.min_exponents == (0, 0, 0)
    assert gap_chars(p2, direct, (1, 2)) == {
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1),
        (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (4, 0)}
    assert direct.gaps((0, 2)).is_empty()
    assert direct.gaps((0, 1)).is_empty()
    assert sum_diagram(p2, d_left, d_right).difference(direct) is None


def test_criterion_03_space_diagram(p3):
    diag = compute_diagram(p3, MonomialIdeal(SPACE_GENS))
    assert diag.min_exponents == (0, 0, 0, 0)
    assert diag.gaps((0, 1, 3)).is_empty()

    # closed-form gap sets in character coordinates (d1, d2, d3)
    formulas = {
        (1, 2, 3): lambda d: (d[0] == 0 and 0 <= d[1] <= 1
                              and (0 <= d[2] <= 1 or d[2] >= 2)),
        (0, 2, 3): lambda d: ((d[0] == -d[1] - d[2]
                               and 0 <= d[1] <= 1 and 0 <= d[2] <= 1)
                              or (d[1] == 0 and d[0] == -d[2] and d[2] >= 2)),
        (0, 1, 2): lambda d: ((d[0] == 0 and 0 <= d[1] <= 1
                               and d[2] <= -d[1])
                              or (d[1] == 0 and d[2] == -d[0] and d[0] >= 0)),
    }
    for cone, inside in formulas.items():
        region = diag.gaps(cone)
        for m in product(range(-6, 7), repeat=3):
            assert region.contains(p3, m) == inside(m), (cone, m)

    # (1,2,3) is unbounded too, through its d3 >= 2 branch
    for cone in [(0, 2, 3), (0, 1, 2), (1, 2, 3)]:
        with pytest.raises(InfiniteRegionError) as err:
            count_region_points(p3, diag.gaps(cone))
        assert err.value.witness is not None


def test_criterion_04_hirzebruch_diagram(h3, h3_grading):
    assert h3_grading.degree((0, 0, 0, 1)) == (-3, 1)
    diag = compute_diagram(h3, MonomialIdeal(SURFACE_GENS))
    assert diag.min_exponents == (0, 0, 0, 0)
    assert gap_chars(h3, diag, (1, 3)) == {(0, 0)}
    for cone in [(0, 2), (0, 3), (1, 2)]:
        assert diag.gaps(cone).is_empty()


# each case gives a diagram by its maximal-cone gap cells (pairing
# coordinates) together with the generating set it must reconstruct to
RECONSTRUCTION_CASES = {
    "plane": ("p2", (0, 0, 0),
              {(1, 2): [{1: (0, 0), 2: (0, 0)}, {1: (1, 1), 2: (0, 0)}],
               (0, 2): [{0: (0, 0), 2: (0, 0)}],
               (0, 1): [{0: (0, 0), 1: (0, 0)}]},
              {(1, 0, 1), (0, 1, 1), (1, 2, 0)}),
    "space": ("p3", (0, 0, 0, 0),
              {(1, 2, 3): [{1: (0, 0), 2: (0, 0), 3: (0, None)},
                           {1: (0, 0), 2: (1, 1), 3: (0, 0)}]},
              {(0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 1, 1)}),
    # the diagram of (x1, x0^3*y1) from criterion 4.  A diagram determines
    # its ideal only up to B-saturation, so this reads back to (x1, y1):
    # y1 times any product of three irrelevant generators lies in the
    # ideal, e.g. y1*(x0*y1)^3 = (x0^3*y1)*y1^3, so y1 is in the saturation
    "surface": ("h3", (0, 0, 0, 0),
                {(1, 3): [{1: (0, 0), 3: (0, 0)}]},
                {(0, 1, 0, 0), (0, 0, 0, 1)}),
}


@pytest.mark.parametrize("case", ["plane", "space", "surface"])
def test_criterion_05_reconstruction(request, case):
    fixture, s, gap_cells, expected = RECONSTRUCTION_CASES[case]
    fan = request.getfixturevalue(fixture)
    grading = request.getfixturevalue(fixture + "_grading")
    diag = KlyachkoDiagram(fan, s, {
        cone: LatticeRegion(cone, [Cell(b) for b in gap_cells.get(cone, [])])
        for cone in fan.max_cones})
    result = reconstruct_generators(grading, diag)
    assert set(result.gens) == expected
    # the pins themselves are saturated, by the independent colon oracle
    assert set(saturate_oracle(MonomialIdeal(expected), fan).gens) == expected
    if case == "surface":
        source = MonomialIdeal(SURFACE_GENS)
        assert diag.difference(compute_diagram(fan, source)) is None
        assert set(saturate_oracle(source, fan).gens) == expected


def test_criterion_06_first_local_cohomology(p2_grading):
    ideal = MonomialIdeal([(3, 1, 0), (1, 1, 2), (0, 0, 3), (0, 3, 0)])
    dims = [local_cohomology_h1(p2_grading, ideal, (a, 0, 0)).dimension
            for a in range(7)]
    assert dims == [0, 1, 3, 5, 4, 1, 0]
    piece = local_cohomology_h1(p2_grading, ideal, (2, 0, 0))
    assert set(piece.monomial_strings()) == {"x0*x1", "x1^2", "x1*x2"}


def test_criterion_07_hilbert_values(p2, p2_grading, p3, p3_grading):
    plane = compute_diagram(p2, MonomialIdeal(PLANE_GENS))
    values = [hilbert_value(p2_grading, plane, (a,)) for a in range(-1, 5)]
    assert values == [0, 1, 3, 3, 3, 3]
    total, note = constant_hilbert_poly(p2, plane)
    assert note is None
    assert total == 3
    assert total == sum(count_region_points(p2, plane.gaps(c))
                        for c in p2.max_cones)

    space = compute_diagram(p3, MonomialIdeal(SPACE_GENS))
    assert [hilbert_value(p3_grading, space, (a,)) for a in range(3)] \
        == [1, 4, 8]
    for a in range(3, 9):
        assert hilbert_value(p3_grading, space, (a,)) == 3 * (a + 1)
    total, note = constant_hilbert_poly(p3, space)
    assert total is None
    assert "unbounded" in note


@pytest.mark.parametrize("fixture", ["p2", "p3", "h3"])
def test_criterion_08_random_oracle_suite(request, fixture):
    fan = request.getfixturevalue(fixture)
    report = run_suite(fan, seed=2026, count=100)
    assert report["cases"] == 100
    failing = [p for p in report["properties"] if p["status"] != "pass"]
    assert failing == []


def _cli_output(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-m", "klyachko.cli"] + args,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_09_byte_determinism(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"gens": [list(g) for g in PLANE_GENS]}))
    jobs = [
        ["diagram", "P2", str(path)],
        ["saturate", "P2", str(path)],
        ["hilbert", "P2", str(path), "--degrees", "-1..4"],
        ["h1", "P2", str(path), "--degrees", "0..4"],
    ]
    for args in jobs:
        first = _cli_output(args, "0")
        second = _cli_output(args, "1")
        assert first == second
        assert json.loads(first) is not None
