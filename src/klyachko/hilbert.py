"""Multigraded Hilbert functions evaluated from Klyachko diagrams.

A monomial of class u is a character m of the section polytope of a lift D
of u, with exponents <m, rho> + D_rho.  It lies in the B-saturation I^sat
exactly when its exponents clear the floor s of the diagram and miss the
gap cells of every maximal cone.  Along a fiber of the polytope (the first
dim - 1 coordinates of m fixed) every exponent is affine in the last
coordinate t, so the floor, each gap cell and each generator of an ideal
cut out one interval of t.  ``walk_fibers`` yields, per fiber, the members
of I^sat as the floor interval minus the union of the gap intervals, and
the members of the ideal as the union of the generator intervals.
``hilbert_value`` sums their lengths; the graded pieces and H^1 of
``reconstruction`` expand them.  No route lists the polytope's points.
"""

from operator import mul

from .diagram import compute_diagram
from .errors import InfiniteRegionError, InputError, json_int
from .regions import count_region_points, section_fibers


def ring_dimension(grading, degree):
    """dim R_degree: lattice points of the section polytope of the lift."""
    lift = grading.canonical_lift(degree)
    return sum(hi - lo + 1 for _, lo, hi in section_fibers(grading.fan, lift))


def _clip(lo, hi, a, c, low, high):
    """Narrow [lo, hi] to the t with low <= a + c*t <= high; None = no bound."""
    if c > 0:
        if low is not None:
            lo = max(lo, -((a - low) // c))
        if high is not None:
            hi = min(hi, (high - a) // c)
    elif c < 0:
        if low is not None:
            hi = min(hi, (a - low) // -c)
        if high is not None:
            lo = max(lo, -((high - a) // -c))
    elif (low is not None and a < low) or (high is not None and a > high):
        return lo, lo - 1
    return lo, hi


def _cut(lo, hi, offsets, slopes, boxes):
    """Per box of (ray, (low, high)) bounds, the t in [lo, hi] inside it."""
    out = []
    for bounds in boxes:
        b_lo, b_hi = lo, hi
        for i, (low, high) in bounds:
            b_lo, b_hi = _clip(b_lo, b_hi, offsets[i], slopes[i], low, high)
            if b_lo > b_hi:
                break
        else:
            out.append((b_lo, b_hi))
    return out


def _merge(intervals):
    """Nonempty closed intervals as a sorted, disjoint list."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def interval_minus(intervals, holes):
    """Sorted disjoint intervals minus sorted disjoint holes, likewise."""
    out = []
    for lo, hi in intervals:
        for h_lo, h_hi in holes:
            if h_hi < lo:
                continue
            if h_lo > hi:
                break
            if h_lo > lo:
                out.append((lo, h_lo - 1))
            lo = h_hi + 1
        if lo <= hi:
            out.append((lo, hi))
    return out


def walk_fibers(fan, diag, divisor, gens=()):
    """Per fiber of the divisor's section polytope: (prefix, lo, hi, sat, ideal).

    The fiber holds the characters prefix + (t,) for lo <= t <= hi.  ``sat``
    is the sorted, disjoint t-intervals of the monomials in I^sat, ``ideal``
    the same for the multiples of the exponent vectors ``gens`` that clear
    the floor (all of them, for the generators of the diagram's ideal).
    The support of every maximal cone is taken to be the floor orthant
    {pairings >= s}, which is how ``compute_diagram`` and ``sum_diagram``
    build it.
    """
    slopes = [ray[-1] for ray in fan.rays]
    divisor = [json_int(x, "divisor entry") for x in divisor]
    floor = [[(i, (s, None)) for i, s in enumerate(diag.min_exponents)]]
    cells = [cell.bounds for cone in fan.max_cones for cell in diag.gaps(cone).cells]
    gens = [[(i, (x, None)) for i, x in enumerate(g)] for g in gens]
    for prefix, lo, hi in section_fibers(fan, divisor):
        offsets = [sum(map(mul, prefix, ray), d) for ray, d in zip(fan.rays, divisor)]
        sat, ideal = _cut(lo, hi, offsets, slopes, floor), []
        if sat:
            [(f_lo, f_hi)] = sat
            sat = interval_minus(sat, _merge(_cut(f_lo, f_hi, offsets, slopes, cells)))
            ideal = _merge(_cut(f_lo, f_hi, offsets, slopes, gens))
        yield prefix, lo, hi, sat, ideal


def hilbert_value(grading, diag, degree):
    """h_{R/I}(degree) for the B-saturated ideal I behind the diagram.

    Counted fiber by fiber: the fiber's length minus its members of I^sat.
    """
    lift = grading.canonical_lift(degree)
    return sum(hi - lo + 1 - sum(b - a + 1 for a, b in sat)
               for _, lo, hi, sat, _ in walk_fibers(grading.fan, diag, lift))


def hilbert_value_general(grading, ideal, degree):
    """h of R modulo the saturation of an arbitrary nonzero monomial ideal.

    The ideal's diagram is computed and ``hilbert_value`` counts on it; there
    is no second route.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal has no Hilbert function here")
    return hilbert_value(grading, compute_diagram(grading.fan, ideal), degree)


def constant_hilbert_poly(fan, diag):
    """The constant value of the Hilbert polynomial, when it is constant.

    Constant iff the exponent floor vanishes and every maximal cone's gap
    region is finite; the value is then the total gap count over maximal
    cones.  Returns (value, None) or (None, reason string).
    """
    bad_ray = next((i for i, x in enumerate(diag.min_exponents) if x != 0), None)
    if bad_ray is not None:
        return None, (f"exponent floor is {diag.min_exponents[bad_ray]} on ray "
                      f"{bad_ray}; the quotient grows along that direction")
    total = 0
    for cone in fan.max_cones:
        try:
            total += count_region_points(fan, diag.gaps(cone))
        except InfiniteRegionError as exc:
            return None, (f"gap region of cone {cone} has an unbounded cell "
                          f"{exc.witness!r}; the quotient grows inside it")
    return total, None
