"""Randomized cross-validation of the diagram pipelines against brute force.

The region identities behind the package are decided exactly in the
region algebra: two regions agree when both differences ``a - b`` and
``b - a`` are empty, so every check is a proof over all of ``M``, not
evidence on a finite window.  When two regions disagree, the witness is a
corner of the first cell of a nonempty difference, given in the cone's
pairing coordinates and, on maximal cones, as a character.  The Hilbert
check compares values on the generator classes padded by a couple of steps
in every class coordinate.
"""

import random

from .diagram import compute_diagram, gaps_by_definition, support_region
from .hilbert import hilbert_value
from .monomials import MonomialIdeal, degree_window, hilbert_oracle, saturate_oracle
from .reconstruction import reconstruct_generators
from .toric import compute_grading


def random_ideal(rng, nvars, max_gens=5, max_exp=5):
    """A random nonzero monomial ideal with bounded exponents."""
    count = rng.randint(1, max_gens)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(nvars))
            for _ in range(count)]
    return MonomialIdeal(gens, nvars=nvars)


def _difference(a, b):
    """The first cell of ``a - b`` or of ``b - a``; None if the regions agree."""
    if a.cells == b.cells:
        # regions are stored pruned and sorted, so this is the common case
        return None
    for rest in (a - b, b - a):
        if rest.cells:
            return rest.cells[0]
    return None


def _witness(fan, a, b):
    """Where two regions over one cone differ, or None if they agree.

    The witness is a corner of a difference cell: pairings and, on maximal
    cones, the character m.
    """
    cell = _difference(a, b)
    if cell is None:
        return None
    y = []
    for ray in a.cone:
        lo, hi = cell.interval(ray)
        y.append(lo if lo is not None else hi if hi is not None else 0)
    y = tuple(y)
    if len(a.cone) == fan.dim:
        return f"pairings {y} (character {fan.character(a.cone, y)})"
    return f"pairings {y}"


def check_membership_identity(fan, ideal, diag=None):
    """Computed filtration membership == union of the generators' orthants.

    On every cone the computed support must be the orthant of the exponent
    floor and the computed gaps the support minus the generators' orthants.
    Returns None on success, a witness message on the first discrepancy.
    """
    if diag is None:
        diag = compute_diagram(fan, ideal)
    s = ideal.min_exponents()
    for cone in fan.cones:
        if not cone:
            continue
        for mine, truth in ((diag.gaps(cone), gaps_by_definition(fan, ideal, cone)),
                            (diag.support(cone), support_region(fan, s, cone))):
            spot = _witness(fan, mine, truth)
            if spot is not None:
                return f"cone {cone}: membership differs at {spot}"
    return None


def check_roundtrip(fan, grading, ideal, diag=None):
    """reconstruct(diagram(I)) == brute-force saturation of I."""
    if diag is None:
        diag = compute_diagram(fan, ideal)
    rebuilt = reconstruct_generators(grading, diag)
    oracle = saturate_oracle(ideal, fan)
    if rebuilt != oracle:
        return (f"reconstruction gives {sorted(rebuilt.gens)}, "
                f"oracle gives {sorted(oracle.gens)}")
    return None


def check_hilbert(fan, grading, ideal, diag=None, pad=None):
    """Diagram Hilbert values == counting monomials outside the saturation."""
    if diag is None:
        diag = compute_diagram(fan, ideal)
    sat = saturate_oracle(ideal, fan)
    if sat.is_unit():
        degrees = degree_window(grading, ideal, pad=1)
    else:
        if pad is None:
            pad = 2 if grading.rank == 1 else 1
        degrees = degree_window(grading, sat, pad=pad)
    for alpha in degrees:
        ours = hilbert_value(grading, diag, alpha)
        truth = hilbert_oracle(sat, grading, alpha)
        if ours != truth:
            return f"degree {alpha}: diagram says {ours}, oracle counts {truth}"
    return None


def check_saturation_invariance(fan, ideal, diag=None):
    """Diagram of I == diagram of its saturation, as sets of characters."""
    sat = saturate_oracle(ideal, fan)
    if diag is None:
        diag = compute_diagram(fan, ideal)
    diag_sat = compute_diagram(fan, sat)
    if diag.min_exponents != diag_sat.min_exponents:
        return (f"exponent floors differ: {diag.min_exponents} vs "
                f"{diag_sat.min_exponents}")
    for cone in fan.cones:
        if not cone:
            continue
        for part in ("support", "gaps"):
            spot = _witness(fan, getattr(diag, part)(cone),
                            getattr(diag_sat, part)(cone))
            if spot is not None:
                return f"cone {cone}: {part} regions differ at {spot}"
    return None


def check_tie_order(fan, ideal, diag=None):
    """Gap sets must not depend on how equal generator levels are ordered."""
    if diag is None:
        diag = compute_diagram(fan, ideal)
    other = compute_diagram(fan, ideal, tie_reverse=True)
    for cone in fan.cones:
        if not cone:
            continue
        spot = _witness(fan, diag.gaps(cone), other.gaps(cone))
        if spot is not None:
            return f"cone {cone}: gap sets disagree at {spot}"
    return None


PROPERTY_NAMES = ("membership", "roundtrip", "hilbert", "saturation", "ties")


def check_ideal(fan, grading, ideal):
    """All five properties on one ideal; dict of property -> witness or None."""
    diag = compute_diagram(fan, ideal)
    return {
        "membership": check_membership_identity(fan, ideal, diag),
        "roundtrip": check_roundtrip(fan, grading, ideal, diag),
        "hilbert": check_hilbert(fan, grading, ideal, diag),
        "saturation": check_saturation_invariance(fan, ideal, diag),
        "ties": check_tie_order(fan, ideal, diag),
    }


def run_suite(fan, seed=0, count=100, max_gens=5, max_exp=5):
    """Seeded random-ideal suite; returns a JSON-ready report dict."""
    rng = random.Random(seed)
    grading = compute_grading(fan)
    failures = {name: [] for name in PROPERTY_NAMES}
    for case in range(count):
        ideal = random_ideal(rng, fan.nrays, max_gens=max_gens, max_exp=max_exp)
        outcome = check_ideal(fan, grading, ideal)
        for name in PROPERTY_NAMES:
            if outcome[name] is not None:
                failures[name].append(
                    {"case": case, "gens": [list(g) for g in ideal.gens],
                     "witness": outcome[name]})
    return {
        "fan": fan.name or "custom",
        "cases": count,
        "seed": seed,
        "properties": [
            {"name": name,
             "status": "pass" if not failures[name] else "fail",
             "failures": failures[name]}
            for name in PROPERTY_NAMES
        ],
    }
