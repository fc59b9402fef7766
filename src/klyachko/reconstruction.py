"""From a Klyachko diagram back to the saturated ideal, and H^1 pieces.

The bridge between characters and monomials: a character m together with a
divisor lift D names the monomial with exponent vector <m, rho> + D_rho.
The minimal generators of the saturated ideal are read off the diagram by
one bitset over the breakpoint grid of the exponent box [s, K], the values
where some gap cell starts or ends: every gap cell is painted in as a box
of grid points by ``regions.box_mask``, the painter that the region
algebra uses too, and one shift per ray leaves the minimal members.  The
diagram of a sum is ``compute_diagram`` of the two saturations' generators
together, so it needs no region algebra of its own.  Graded pieces and
H^1 pieces are expanded from the member intervals of
``hilbert.walk_fibers``, one class at a time.
"""

from bisect import bisect_left, bisect_right

from .diagram import compute_diagram
from .errors import InputError, SearchBoxError, json_int
from .hilbert import interval_minus, walk_fibers
from .monomials import MonomialIdeal, monomial_str
from .regions import box_mask, grid_strides, mask_indices


class GradedPiece:
    """A monomial basis of one multigraded piece.

    ``characters`` are the lattice points m; the monomial behind m has
    exponents <m, rho> + lift[rho], always nonnegative here.
    """

    __slots__ = ("fan", "degree", "lift", "characters")

    def __init__(self, fan, degree, lift, characters):
        self.fan = fan
        self.degree = tuple(degree)
        self.lift = tuple(lift)
        self.characters = tuple(sorted(tuple(m) for m in characters))

    @property
    def dimension(self):
        return len(self.characters)

    def exponents(self, m):
        return tuple(self.fan.pairing(m, i) + self.lift[i]
                     for i in range(self.fan.nrays))

    def monomials(self):
        return [self.exponents(m) for m in self.characters]

    def monomial_strings(self, names=None):
        return [monomial_str(e, names) for e in self.monomials()]

    def __repr__(self):
        return (f"GradedPiece(degree={self.degree}, dim={self.dimension})")


def graded_basis(grading, diag, divisor):
    """Monomial basis of the saturated ideal's piece in the lift's class.

    A character m belongs iff its exponents <m, rho> + divisor[rho] are
    nonnegative, clear the floor s and avoid the gap region of every
    maximal cone.
    """
    kept = [prefix + (t,)
            for prefix, _, _, sat, _ in walk_fibers(grading.fan, diag, divisor)
            for lo, hi in sat for t in range(lo, hi + 1)]
    return GradedPiece(grading.fan, grading.degree(divisor), divisor, kept)


def exponent_caps(fan, diag):
    """Per-variable bound K on minimal generator exponents of the saturation.

    K_rho is the exponent floor unless some gap cell bounds the ray from
    above, in which case one past the largest such bound.  Any monomial with
    an exponent beyond K stays in the ideal after division by that variable:
    a gap cell capturing the divided exponent vector has no upper bound on
    the ray, so it would capture the original vector too.  Hence minimal
    generators live inside the box [s, K].
    """
    caps = list(diag.min_exponents)
    for cone in fan.max_cones:
        for cell in diag.gaps(cone).cells:
            for ray, (_, hi) in cell.bounds:
                if hi is not None:
                    caps[ray] = max(caps[ray], hi + 1)
    return tuple(caps)


def _breakpoints(fan, diag, caps):
    """Per ray, the sorted values in [s, K] at which membership can change.

    These are s_rho and every gap-cell bound lo or hi + 1 on the ray that
    falls in (s_rho, K_rho]; between two consecutive breakpoints no cell
    starts or ends, so membership is constant there.
    """
    s = diag.min_exponents
    points = [{s[r]} for r in range(fan.nrays)]
    for cone in fan.max_cones:
        for cell in diag.gaps(cone).cells:
            for ray, (lo, hi) in cell.bounds:
                for v in (lo, None if hi is None else hi + 1):
                    if v is not None and s[ray] < v <= caps[ray]:
                        points[ray].add(v)
    return [sorted(p) for p in points]


def minimal_generator_exponents(fan, diag):
    """Exponent vectors of the saturation's minimal generators.

    Reads them off one bitset over the breakpoint grid of the box [s, K],
    one bit per grid point in ``itertools.product`` order (last ray
    fastest).  Every gap cell of every maximal cone is painted in as a box
    of breakpoint-index ranges; the rest are the members.  A member is
    minimal when none of its lower neighbours, one breakpoint down on a
    single ray, is a member: one shift per ray finds them all, so the scan
    costs O(cells x grid / 64) word operations.  Exact because exponents
    >= s make support membership automatic, so membership is avoidance of
    every maximal cone's gaps.  A minimal generator sits on breakpoints
    (otherwise one step down keeps membership), and one step down from a
    breakpoint lands in the range of the previous one, so the result equals
    a scan of every point of the box.
    """
    caps = exponent_caps(fan, diag)
    grid = _breakpoints(fan, diag, caps)
    sizes = [len(points) for points in grid]
    strides = grid_strides(sizes)
    full = (1 << (strides[0] * sizes[0])) - 1

    gaps = 0
    for cone in fan.max_cones:
        for cell in diag.gaps(cone).cells:
            ranges = [(0, size) for size in sizes]
            for ray, (lo, hi) in cell.bounds:
                points = grid[ray]
                ranges[ray] = (0 if lo is None else bisect_left(points, lo),
                               sizes[ray] if hi is None else bisect_right(points, hi))
            if all(a < b for a, b in ranges):
                gaps |= box_mask(ranges, strides)
    members = full & ~gaps

    lower = 0
    for r in range(fan.nrays):
        # a shift by stride r steps every point one breakpoint up ray r; the band
        # (index >= 1 on ray r) drops the steps that wrapped into the next row
        band = box_mask([(1, size) if q == r else (0, size)
                         for q, size in enumerate(sizes)], strides)
        lower |= (members << strides[r]) & band
    minimal = members & ~lower

    found = [tuple(points[k] for points, k in zip(grid, index))
             for index in mask_indices(minimal, strides)]
    return caps, found


def check_search_box(grading, ideal, search_box):
    """Raise SearchBoxError unless every generator's class is strictly inside.

    ``search_box`` holds one (lo, hi) class range per class coordinate.
    """
    box = [(json_int(lo, "search box bound"), json_int(hi, "search box bound"))
           for lo, hi in search_box]
    if len(box) != grading.rank:
        raise InputError(f"search box has {len(box)} ranges, "
                         f"expected {grading.rank}")
    if any(lo > hi for lo, hi in box):
        raise InputError("empty search box range")
    for g in ideal.gens:
        u = grading.degree(g)
        if not all(lo < x < hi for x, (lo, hi) in zip(u, box)):
            raise SearchBoxError(
                f"a generator of class {u} is on or past the search box "
                "boundary; enlarge the box")


def _saturation_exponents(fan, diag):
    """The breakpoint scan's generators, refusing a diagram that has none."""
    _, found = minimal_generator_exponents(fan, diag)
    if not found:
        # the saturation of a nonzero ideal has a generator inside [s, K]
        raise InputError("the diagram's gaps cover every monomial above its "
                         "floor; it is not the diagram of a nonzero ideal")
    return found


def reconstruct_generators(grading, diag, search_box=None):
    """Minimal generators of the B-saturated ideal with the given diagram.

    Read off the breakpoint scan of ``minimal_generator_exponents``.  An
    explicit ``search_box`` of per-coordinate class ranges is a check on
    that exact answer, by ``check_search_box``.
    """
    fan = grading.fan
    result = MonomialIdeal(_saturation_exponents(fan, diag), nvars=fan.nrays)
    if search_box is not None:
        check_search_box(grading, result, search_box)
    return result


def sum_diagram(fan, diag_a, diag_b):
    """Diagram of I + J from the diagrams of I and J.

    A diagram depends only on the B-saturation of its ideal, and
    (I + J)^sat = (I^sat + J^sat)^sat, so the sum's diagram is that of the
    two saturations' generators together.
    """
    if diag_a.fan != fan or diag_b.fan != fan:
        raise InputError("diagrams live on different fans")
    gens = _saturation_exponents(fan, diag_a) + _saturation_exponents(fan, diag_b)
    return compute_diagram(fan, MonomialIdeal(gens, nvars=fan.nrays))


def local_cohomology_h1(grading, ideal, divisor, diag=None):
    """Basis of the degree-[divisor] piece of the first local cohomology.

    The piece is the saturation's piece minus the ideal's own monomials,
    which are the multiples of its generators.
    """
    fan = grading.fan
    if ideal.is_zero():
        raise InputError("the zero ideal has no local cohomology here")
    if ideal.nvars != fan.nrays:
        raise InputError("ideal and fan have different numbers of variables")
    if diag is None:
        diag = compute_diagram(fan, ideal)
    kept = [prefix + (t,)
            for prefix, _, _, sat, cut in walk_fibers(fan, diag, divisor, ideal.gens)
            for lo, hi in interval_minus(sat, cut) for t in range(lo, hi + 1)]
    return GradedPiece(fan, grading.degree(divisor), tuple(divisor), kept)
