"""Multigraded Hilbert functions evaluated from Klyachko diagrams.

A monomial of class u is a character m of the section polytope of the
canonical lift D of u, with exponents <m, rho> + D_rho.  It lies in the
B-saturation I^sat exactly when its exponents clear the floor s of the
diagram and miss the gap cells of every maximal cone.  Along a fiber of
the polytope (the first dim - 1 coordinates of m fixed) every exponent is
affine in the last coordinate t, so the floor and each gap cell cut out
one interval of t.  The fiber's members of I^sat are the floor interval
minus the union of the gap intervals, and the rest of the fiber counts
towards R/I^sat.  ``hilbert_value`` sums these counts in exact integer
arithmetic and never lists the polytope's points.
"""

from .diagram import compute_diagram
from .errors import InputError
from .regions import count_region_points, region_is_finite, section_fibers


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


def _union_length(intervals):
    """Number of integers in a union of nonempty closed intervals."""
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is not None and lo <= reach:
            lo = reach + 1
        if lo <= hi:
            total += hi - lo + 1
            reach = hi
    return total


def hilbert_value(grading, diag, degree):
    """h_{R/I}(degree) for the B-saturated ideal I behind the diagram.

    Counted fiber by fiber as the module docstring describes.  The support
    of every maximal cone is taken to be the floor orthant {pairings >= s},
    which is how ``compute_diagram`` and ``sum_diagram`` build it.
    """
    fan = grading.fan
    lift = grading.canonical_lift(degree)
    rays = range(fan.nrays)
    slopes = [ray[-1] for ray in fan.rays]
    floor = diag.min_exponents
    cells = [cell.bounds for cone in fan.max_cones for cell in diag.gaps(cone).cells]
    total = 0
    for prefix, lo, hi in section_fibers(fan, lift):
        offsets = [sum(p * x for p, x in zip(prefix, fan.rays[i])) + lift[i]
                   for i in rays]
        f_lo, f_hi = lo, hi
        for i in rays:
            f_lo, f_hi = _clip(f_lo, f_hi, offsets[i], slopes[i], floor[i], None)
        total += hi - lo + 1
        if f_lo > f_hi:
            continue
        gaps = []
        for bounds in cells:
            g_lo, g_hi = f_lo, f_hi
            for i, (low, high) in bounds:
                g_lo, g_hi = _clip(g_lo, g_hi, offsets[i], slopes[i], low, high)
                if g_lo > g_hi:
                    break
            else:
                gaps.append((g_lo, g_hi))
        # members of I^sat: the floor interval minus the union of the gaps
        total -= f_hi - f_lo + 1 - _union_length(gaps)
    return total


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
        finite, witness = region_is_finite(fan, diag.gaps(cone))
        if not finite:
            return None, (f"gap region of cone {cone} has an unbounded cell "
                          f"{witness!r}; the quotient grows inside it")
        total += count_region_points(fan, diag.gaps(cone))
    return total, None
