"""From a Klyachko diagram back to the saturated ideal, and H^1 pieces.

The bridge between characters and monomials: a character m together with a
divisor lift D names the monomial with exponent vector <m, rho> + D_rho.
The minimal generators of the saturated ideal are the diagram's own
breakpoint scan, ``KlyachkoDiagram.saturation_exponents``, run once per
diagram and shared with the Hilbert values and the CLI's check of a
diagram file.  For a built diagram the scan paints each maximal cone's
generator orthants and makes no cell; a diagram read from a file is
scanned from its gap cells.  The diagram of a sum keeps the two diagrams'
minimal localized generators together (``KlyachkoDiagram.cone_generators``),
so it needs no region algebra of its own and, for built diagrams, neither
a scan nor a cell until its cells are read.
Graded pieces and H^1 pieces list monomials, so they are expanded from the
member intervals of ``hilbert.walk_fibers``, one class at a time; Hilbert
values only count, and ``hilbert`` reads them off the K-polynomial of the
saturation instead.
"""

from .diagram import compute_diagram, diagram_from_cone_generators
# the breakpoint scan lives on the diagram; its names stay importable from here
from .diagram import exponent_caps, minimal_generator_exponents  # noqa: F401
from .errors import InputError, SearchBoxError, json_int
from .hilbert import interval_minus, walk_fibers
from .monomials import MonomialIdeal, minimalize, monomial_str


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
    result = MonomialIdeal(diag.saturation_exponents, nvars=fan.nrays)
    if search_box is not None:
        check_search_box(grading, result, search_box)
    return result


def sum_diagram(fan, diag_a, diag_b):
    """Diagram of I + J from the diagrams of I and J.

    The localization of I + J at a maximal cone is the sum of the two
    localizations, so the sum's generators there are the minimal ones
    among both diagrams' ``cone_generators``, one ``minimalize`` per
    maximal cone.  Its floor on a ray is the least exponent there; every
    ray lies in a maximal cone, and each one through it gives the same
    least exponent.  No saturation is scanned and no cell is made for
    diagrams that ``compute_diagram`` or ``sum_diagram`` built; the sum's
    cells are swept when they are first read.
    """
    if diag_a.fan != fan or diag_b.fan != fan:
        raise InputError("diagrams live on different fans")
    gens_a, gens_b = diag_a.cone_generators, diag_b.cone_generators
    cone_generators = {cone: minimalize(gens_a[cone] + gens_b[cone])
                       for cone in fan.max_cones}
    floor = [None] * fan.nrays
    for cone, gens in cone_generators.items():
        for ray, exponents in zip(cone, zip(*gens)):
            floor[ray] = min(exponents)
    return diagram_from_cone_generators(fan, floor, cone_generators)


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
