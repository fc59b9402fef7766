"""Klyachko diagrams of monomial ideals.

The diagram of a nonzero monomial ideal assigns to every cone of the fan a
pair of regions in pairing coordinates: the support cone (where the induced
filtration can be nonzero) and the gap set (the part of the support missing
from the filtration).  A diagram stores only the exponent floor and the gap
sets of the maximal cones, which together determine the saturation of the
ideal.  Every other entry is derived on demand: the support of a cone is
the orthant of the floor, and the gaps of a face are the limit of the gaps
of a maximal cone through it as the pairings off the face grow.  The JSON
form is that stored data, so a file grows with the maximal cones only.

``compute_diagram`` is the one builder of diagrams from generators, and
``shift_diagram`` translates one.  The minimal generators of the
saturation are read back by ``minimal_generator_exponents``: one bitset
over the breakpoint grid of the exponent box [s, K], the values where some
gap cell starts or ends, painted with ``regions.box_mask``.  A diagram
keeps that scan (``saturation_exponents``), so the Hilbert values, the
reconstruction, the diagram of a sum (``reconstruction.sum_diagram``) and
the CLI's check of a diagram file share one scan.  It also keeps the
numerator of the saturation's Hilbert series per grading
(``class_numerator``), so a Hilbert value at one class does not rerun the
recursion behind it.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .errors import InputError, json_int
from .monomials import k_polynomial, minimalize
from .regions import Cell, LatticeRegion, box_mask, grid_strides, mask_indices

ConeEntry = namedtuple("ConeEntry", ["support", "gaps"])


class KlyachkoDiagram:
    """The exponent floor vector plus the gap regions of the maximal cones."""

    def __init__(self, fan, min_exponents, gaps):
        self.fan = fan
        self.min_exponents = tuple(json_int(x, "exponent floor entry")
                                   for x in min_exponents)
        if len(self.min_exponents) != fan.nrays:
            raise InputError("exponent floor length does not match the ray count")
        try:
            self._gaps = {cone: gaps[cone] for cone in fan.max_cones}
        except KeyError as exc:
            raise InputError(f"diagram has no gaps over the maximal cone "
                             f"{exc.args[0]}") from exc
        self._supports = {}
        self._numerators = {}

    @cached_property
    def saturation_exponents(self):
        """The minimal generators of the saturation, scanned once per diagram.

        Read off ``minimal_generator_exponents``; a diagram whose gaps cover
        every monomial above its floor is refused, since the saturation of
        a nonzero ideal has a generator inside the box [s, K].
        """
        _, found = minimal_generator_exponents(self.fan, self)
        if not found:
            raise InputError("the diagram's gaps cover every monomial above its "
                             "floor; it is not the diagram of a nonzero ideal")
        return tuple(found)

    def class_numerator(self, grading):
        """K(R/I^sat) summed over classes, {u: c_u} without zero terms.

        The numerator of ``monomials.k_polynomial`` on the saturation's
        generators, with each exponent vector replaced by its class; kept
        per degree matrix, like the supports and the face gaps.
        """
        numerator = self._numerators.get(grading.deg_matrix)
        if numerator is None:
            numerator = {}
            for a, c in k_polynomial(self.saturation_exponents).items():
                u = grading.degree(a)
                numerator[u] = numerator.get(u, 0) + c
            numerator = self._numerators[grading.deg_matrix] = {
                u: c for u, c in numerator.items() if c}
        return numerator

    def support(self, cone):
        """The orthant of the exponent floor over the cone."""
        cone = tuple(cone)
        region = self._supports.get(cone)
        if region is None:
            region = self._supports[cone] = support_region(
                self.fan, self.min_exponents, cone)
        return region

    def gaps(self, cone):
        """The gap region over a cone; derived, and kept, for a face.

        The gaps of a face are the gap cells of the first maximal cone
        through it that have no upper bound on the maximal cone's other
        rays, with those rays' bounds dropped.
        """
        cone = tuple(cone)
        region = self._gaps.get(cone)
        if region is None:
            sigma = next((c for c in self.fan.max_cones if set(cone) <= set(c)), None)
            if sigma is None:
                raise InputError(f"{cone} is not a cone of the fan")
            cells = [Cell._of(tuple(b for b in cell.bounds if b[0] in cone))
                     for cell in self._gaps[sigma].cells
                     if all(cell.interval(ray)[1] is None
                            for ray in sigma if ray not in cone)]
            region = self._gaps[cone] = LatticeRegion(cone, cells)
        return region

    @property
    def entries(self):
        """Read-only view {cone: ConeEntry(support, gaps)} over every cone."""
        return MappingProxyType({cone: ConeEntry(self.support(cone), self.gaps(cone))
                                 for cone in self.fan.cones})

    def member(self, cone, m):
        """Whether the character m lies in the cone's filtration piece."""
        return (self.support(cone).contains(self.fan, m)
                and not self.gaps(cone).contains(self.fan, m))

    def difference(self, other):
        """The first (cone, part, cell) where two diagrams differ as sets, or None.

        ``part`` is "support" or "gaps"; ``cell`` is ``LatticeRegion.difference``.
        Only maximal cones are compared: every ray lies in one, and the
        entries of a face follow from the floor and the gaps of a maximal
        cone through it.
        """
        if self.fan != other.fan:
            raise InputError("diagrams live on different fans")
        for cone in self.fan.max_cones:
            for part in ConeEntry._fields:
                cell = getattr(self, part)(cone).difference(getattr(other, part)(cone))
                if cell is not None:
                    return cone, part, cell
        return None

    def to_json(self):
        """{"s": floor, "gaps": {"i,j,...": cells}}, one key per maximal cone."""
        gaps = {",".join(map(str, cone)): [c.to_json() for c in self._gaps[cone].cells]
                for cone in self.fan.max_cones}
        return {"s": list(self.min_exponents), "gaps": gaps}

    @classmethod
    def from_json(cls, fan, obj):
        """A diagram from its JSON form, the data of ``cls(fan, s, gaps)``.

        Each key of ``"gaps"`` names a maximal cone exactly, and every
        maximal cone needs one.
        """
        try:
            s = list(obj["s"])
            raw = obj["gaps"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed diagram data: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("malformed diagram data: \"gaps\" is not an object")
        names = {",".join(map(str, cone)): cone for cone in fan.max_cones}
        gaps = {}
        for key, cells in raw.items():
            if key not in names:
                raise InputError(f"diagram key {key!r} is not a maximal cone of the fan")
            if not isinstance(cells, list):
                raise InputError(f"malformed diagram data: gaps {key!r} is not a list")
            gaps[names[key]] = LatticeRegion(names[key], map(Cell.from_json, cells))
        return cls(fan, s, gaps)


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


def support_region(fan, min_exponents, cone):
    """{m : <m, rho> >= s_rho for rho in the cone}."""
    if not cone:
        return LatticeRegion.full(())
    return LatticeRegion.orthant(cone, {ray: min_exponents[ray] for ray in cone})


def compute_diagram(fan, ideal):
    """The Klyachko diagram of a nonzero monomial ideal.

    Works one maximal cone at a time on the minimal generators of the
    localization there (``minimalize`` of the restrictions to the cone's
    rays), slicing along the cone's last ray at their distinct levels: the
    slice of a band is the diagram, over the facet, of the minimal
    restrictions of the generators at or below the band.  An ideal and its
    saturation have the same localization at every maximal cone, so they
    get the same cells.

    Only the maximal cones are sliced; the diagram derives the faces.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal has no diagram")
    if ideal.nvars != fan.nrays:
        raise InputError("ideal and fan have different numbers of variables")
    s = ideal.min_exponents()
    memo = {}

    def delta(cone, gens):
        key = (cone, gens)
        if key in memo:
            return memo[key]
        if not cone:
            result = (LatticeRegion.full(()) if not gens
                      else LatticeRegion.empty(()))
        else:
            last = cone[-1]
            lows = sorted({s[last], *(g[-1] for g in gens)})
            cells = []
            for j, lo in enumerate(lows):
                band = (last, (lo, lows[j + 1] - 1 if j + 1 < len(lows) else None))
                inner = delta(cone[:-1], minimalize(g[:-1] for g in gens if g[-1] <= lo))
                cells.extend(Cell._of(c.bounds + (band,)) for c in inner.cells)
            # inner cells leave the last ray free, and the bands are disjoint on it
            result = LatticeRegion._of(cone, cells)
        memo[key] = result
        return result

    return KlyachkoDiagram(fan, s, {
        cone: delta(cone, minimalize(tuple(g[i] for i in cone) for g in ideal.gens))
        for cone in fan.max_cones})


def gaps_by_definition(fan, ideal, cone):
    """Gap set computed straight from the definition, for cross-checking.

    Support minus the union of the generators' orthants, in one subtraction;
    no recursion.
    """
    orthants = [cell for g in ideal.gens for cell in support_region(fan, g, cone).cells]
    return support_region(fan, ideal.min_exponents(), cone) - LatticeRegion(cone, orthants)


def shift_diagram(fan, diag, divisor):
    """Per maximal cone, the diagram regions of the twist by the divisor.

    On a maximal cone the twist translates the support and gap regions by
    minus the character that pairs to the divisor's coefficients on the
    cone's rays.

    Returns a dict mapping each maximal cone to its shifted ConeEntry.
    """
    if len(divisor) != fan.nrays:
        raise InputError("divisor length does not match the ray count")
    shifted = {}
    for cone in fan.max_cones:
        tau = fan.character(cone, [divisor[i] for i in cone])
        neg = tuple(-t for t in tau)
        shifted[cone] = ConeEntry(diag.support(cone).shift(fan, neg),
                                  diag.gaps(cone).shift(fan, neg))
    return shifted
