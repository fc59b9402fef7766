"""Randomized cross-validation of the diagram pipelines against brute force.

The membership check compares every cone's support and gaps, derived faces
included, with the regions of the definition; the saturation check takes
the ``KlyachkoDiagram.difference`` of the computed diagram from that of the
saturation.  Each is decided exactly over all of ``M``, not on a finite
window.  The witness is a corner of the difference cell, in the cone's
pairing coordinates and, on maximal cones, as a character.  The Hilbert
check compares values on the generator classes padded by a couple of steps
in every class coordinate.  The roundtrip check reads the saturation both
from the built diagram and from the same diagram given by its cells, so it
covers both scans of ``minimal_generator_exponents``.  ``check_ideal``
computes the diagram and the oracle saturation (``saturate_oracle``) of an
ideal once, and the roundtrip, Hilbert and saturation checks share that
one saturation.
``check_report`` reports all four properties over a list of ideals, for
the random suite and for ``klyachko check FAN IDEAL`` alike.
"""

import random

from .diagram import (KlyachkoDiagram, compute_diagram, gaps_by_definition,
                      support_region)
from .hilbert import hilbert_values
from .monomials import MonomialIdeal, degree_window, hilbert_oracle, saturate_oracle
from .reconstruction import reconstruct_generators
from .toric import compute_grading


def random_ideal(rng, nvars, max_gens=5, max_exp=5):
    """A random nonzero monomial ideal with bounded exponents."""
    count = rng.randint(1, max_gens)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(nvars))
            for _ in range(count)]
    return MonomialIdeal(gens, nvars=nvars)


def _spot(fan, cone, cell):
    """A corner of a difference cell: pairings and, on maximal cones, the character m."""
    y = tuple(lo if lo is not None else hi if hi is not None else 0
              for lo, hi in map(cell.interval, cone))
    spot = f"pairings {y}"
    if len(cone) == fan.dim:
        spot += f" (character {fan.character(cone, y)})"
    return spot


def _witness(fan, diag, reference):
    """(cone, part, spot) where two diagrams differ, or None if they agree."""
    found = diag.difference(reference)
    if found is None:
        return None
    cone, part, cell = found
    return cone, part, _spot(fan, cone, cell)


def check_membership_identity(fan, ideal, diag=None):
    """Computed filtration membership == union of the generators' orthants.

    On every cone, faces included, the diagram's support must be the orthant
    of the ideal's exponent floor and its gaps the support minus the
    generators' orthants.  Returns None on success, a witness message on
    the first discrepancy.
    """
    if diag is None:
        diag = compute_diagram(fan, ideal)
    s = ideal.min_exponents()
    for cone in fan.cones:
        for ours, truth in ((diag.support(cone), support_region(fan, s, cone)),
                            (diag.gaps(cone), gaps_by_definition(fan, ideal, cone))):
            cell = ours.difference(truth)
            if cell is not None:
                return f"cone {cone}: membership differs at {_spot(fan, cone, cell)}"
    return None


def check_roundtrip(fan, grading, ideal, diag=None, sat=None):
    """reconstruct(diagram(I)) == brute-force saturation of I, by both scans.

    The saturation is read from the diagram and from the same diagram given
    by its maximal cones' cells, as ``klyachko saturate DIAGRAM.json``
    reads a file; a built diagram scans its generators, the other its
    cells.  The witness names the route that disagreed.
    """
    if diag is None:
        diag = compute_diagram(fan, ideal)
    if sat is None:
        sat = saturate_oracle(ideal, fan)
    given = KlyachkoDiagram(fan, diag.min_exponents,
                            {cone: diag.gaps(cone) for cone in fan.max_cones})
    for route, source in (("the diagram", diag), ("its cells", given)):
        rebuilt = reconstruct_generators(grading, source)
        if rebuilt != sat:
            return (f"reconstruction from {route} gives {sorted(rebuilt.gens)}, "
                    f"oracle gives {sorted(sat.gens)}")
    return None


def check_hilbert(fan, grading, ideal, diag=None, pad=None, sat=None):
    """Diagram Hilbert values == counting monomials outside the saturation."""
    if diag is None:
        diag = compute_diagram(fan, ideal)
    if sat is None:
        sat = saturate_oracle(ideal, fan)
    if sat.is_unit():
        degrees = degree_window(grading, ideal, pad=1)
    else:
        if pad is None:
            pad = 2 if grading.rank == 1 else 1
        degrees = degree_window(grading, sat, pad=pad)
    for alpha, ours in zip(degrees, hilbert_values(grading, diag, degrees)):
        truth = hilbert_oracle(sat, grading, alpha)
        if ours != truth:
            return f"degree {alpha}: diagram says {ours}, oracle counts {truth}"
    return None


def check_saturation_invariance(fan, ideal, diag=None, sat=None):
    """Diagram of I == diagram of its saturation, as sets of characters."""
    if diag is None:
        diag = compute_diagram(fan, ideal)
    if sat is None:
        sat = saturate_oracle(ideal, fan)
    reference = compute_diagram(fan, sat)
    found = _witness(fan, diag, reference)
    if found is None:
        return None
    cone, part, spot = found
    return f"cone {cone}: {part} regions differ at {spot}"


PROPERTY_NAMES = ("membership", "roundtrip", "hilbert", "saturation")


def check_ideal(fan, grading, ideal):
    """All four properties on one ideal; dict of property -> witness or None.

    The diagram and the oracle saturation are computed once and shared.
    """
    diag = compute_diagram(fan, ideal)
    sat = saturate_oracle(ideal, fan)
    return {
        "membership": check_membership_identity(fan, ideal, diag),
        "roundtrip": check_roundtrip(fan, grading, ideal, diag, sat=sat),
        "hilbert": check_hilbert(fan, grading, ideal, diag, sat=sat),
        "saturation": check_saturation_invariance(fan, ideal, diag, sat=sat),
    }


def check_report(fan, ideals, seed=None):
    """All four properties over numbered ideals, as a JSON-ready report dict."""
    grading = compute_grading(fan)
    failures = {name: [] for name in PROPERTY_NAMES}
    for case, ideal in enumerate(ideals):
        outcome = check_ideal(fan, grading, ideal)
        for name in PROPERTY_NAMES:
            if outcome[name] is not None:
                failures[name].append(
                    {"case": case, "gens": [list(g) for g in ideal.gens],
                     "witness": outcome[name]})
    return {
        "fan": fan.name or "custom",
        "cases": len(ideals),
        "seed": seed,
        "properties": [
            {"name": name,
             "status": "pass" if not failures[name] else "fail",
             "failures": failures[name]}
            for name in PROPERTY_NAMES
        ],
    }


def run_suite(fan, seed=0, count=100, max_gens=5, max_exp=5):
    """Seeded random-ideal suite; returns a JSON-ready report dict."""
    rng = random.Random(seed)
    ideals = [random_ideal(rng, fan.nrays, max_gens=max_gens, max_exp=max_exp)
              for _ in range(count)]
    return check_report(fan, ideals, seed=seed)
