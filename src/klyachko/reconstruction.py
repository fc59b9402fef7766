"""From a Klyachko diagram back to the saturated ideal, and H^1 pieces.

The bridge between characters and monomials: a character m together with a
divisor lift D names the monomial with exponent vector <m, rho> + D_rho.
The minimal generators of the saturated ideal are read off the diagram by
one scan of the exponent box [s, K], visiting only the breakpoints where
some gap cell starts or ends.  Graded pieces and H^1 pieces are expanded
from the member intervals of ``hilbert.walk_fibers``, one class at a time.
"""

import itertools

from .diagram import compute_diagram
from .errors import InputError, SearchBoxError, json_int
from .hilbert import interval_minus, walk_fibers
from .monomials import MonomialIdeal, monomial_str


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


def _membership_tables(fan, diag, grid):
    """Per maximal cone, a lookup from breakpoint indices to membership."""
    tables = {}
    for cone in fan.max_cones:
        gaps = diag.gaps(cone)
        tables[cone] = {
            idx: not gaps.contains_values({r: grid[r][i] for r, i in zip(cone, idx)})
            for idx in itertools.product(*(range(len(grid[r])) for r in cone))}
    return tables


def minimal_generator_exponents(fan, diag):
    """Exponent vectors of the saturation's minimal generators.

    Scans the breakpoint grid of the box [s, K] with the per-cone membership
    tables; a member is minimal when dividing by any single variable leaves
    the ideal.  Exact because exponents >= s make support membership
    automatic, so membership is avoidance of every maximal cone's gaps.  A
    minimal generator sits on breakpoints (otherwise one step down keeps
    membership), and one step down from a breakpoint lands in the range of
    the previous one, so the result equals a scan of every point of the box.
    """
    caps = exponent_caps(fan, diag)
    grid = _breakpoints(fan, diag, caps)
    tables = _membership_tables(fan, diag, grid)

    def member(idx):
        return all(tables[cone][tuple(idx[r] for r in cone)]
                   for cone in fan.max_cones)

    found = []
    for idx in itertools.product(*(range(len(points)) for points in grid)):
        if not member(idx):
            continue
        if not any(idx[r] > 0 and member(idx[:r] + (idx[r] - 1,) + idx[r + 1:])
                   for r in range(fan.nrays)):
            found.append(tuple(grid[r][i] for r, i in enumerate(idx)))
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


def reconstruct_generators(grading, diag, search_box=None):
    """Minimal generators of the B-saturated ideal with the given diagram.

    Read off the breakpoint scan of ``minimal_generator_exponents``.  An
    explicit ``search_box`` of per-coordinate class ranges is a check on
    that exact answer, by ``check_search_box``.
    """
    fan = grading.fan
    _, found = minimal_generator_exponents(fan, diag)
    if not found:
        # the saturation of a nonzero ideal has a generator inside [s, K]
        raise InputError("the diagram's gaps cover every monomial above its "
                         "floor; it is not the diagram of a nonzero ideal")
    result = MonomialIdeal(found, nvars=fan.nrays)
    if search_box is not None:
        check_search_box(grading, result, search_box)
    return result


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
