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

``compute_diagram`` builds a diagram from generators, and
``shift_diagram`` translates one.  The cells over a maximal cone depend
only on the minimal generators of the localization there, which the
builder minimalizes once per maximal cone and keeps on the diagram
(``cone_generators``), with the floor.  A built diagram makes no cell
until something reads them (``gaps``, ``to_json``, ``difference``,
``shift_diagram``, the renderers, ``hilbert.walk_fibers`` and
``constant_hilbert_poly``); the first read sweeps every maximal cone
once (``_sweep``).  The sweep buckets a cone's generators by their
exponent on the cone's last ray and goes up those bands: the minimal
generators of a slab only grow as the band rises, so each band updates
them instead of minimalizing afresh.  The recursion ends at a plane,
whose gaps are a staircase read off in closed form.  Inside it cells are
bare bound tuples; they are wrapped and sorted once per maximal cone.
The diagram of a sum (``reconstruction.sum_diagram``) is built from the
two diagrams' cone generators together, so it scans no saturation.
The minimal generators of the saturation are read back by
``minimal_generator_exponents``: one bitset over the breakpoint grid of
the exponent box [s, K], painted with ``regions.box_mask``.  For a built
diagram the breakpoints are the cone generators' exponents and each
maximal cone's members are the union of its generators' orthants (a
staircase is fixed by its corners), so the scan makes no cell.  A
diagram given by its cells, as ``from_json`` reads a file, paints its gap
cells instead, on the values where some cell starts or ends; that route
also serves gap sets that no ideal has.  A diagram keeps its scan
(``saturation_exponents``), so the Hilbert values, the reconstruction and
the CLI's check of a diagram file share one scan, and a diagram given by
its cells derives its cone generators from it.  It also keeps the
numerator of the saturation's Hilbert series per grading
(``class_numerator``), so a Hilbert value at one class does not rerun the
recursion behind it.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .errors import InputError, json_int
from .monomials import divides, k_polynomial, minimalize
from .regions import Cell, LatticeRegion, box_mask, grid_strides, mask_indices

ConeEntry = namedtuple("ConeEntry", ["support", "gaps"])


class KlyachkoDiagram:
    """The exponent floor vector plus the gap regions of the maximal cones."""

    # True for a diagram built from its cone generators: its members are the
    # union of their orthants, cone by cone.  A diagram given by its cells
    # may have gap sets that no ideal has.
    _built = False

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
    def _gaps(self):
        """{cone: gap region}, the maximal cones swept once, on first read.

        A diagram given by its cells sets this in ``__init__``; the faces'
        regions join it as ``gaps`` derives them.
        """
        return _sweep(self.fan, self.min_exponents, self.cone_generators)

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

    @cached_property
    def cone_generators(self):
        """Per maximal cone, the minimal generators of the localization there.

        Exponents on the cone's rays, sorted; the cells over a cone depend
        on these alone.  A built diagram keeps them; a diagram given by its
        cells derives them once from ``saturation_exponents``.
        """
        return _localize(self.fan, self.saturation_exponents)

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

    For a built diagram, K_rho is the largest exponent on the ray among
    the cone generators of the maximal cones through it: a member stays
    one when such an exponent grows, since the orthant that holds it
    holds its multiples.  For a diagram given by its cells, K_rho is the
    exponent floor unless some gap cell bounds the ray from above, in
    which case one past the largest such bound.  Any monomial with an
    exponent beyond K stays in the ideal after division by that variable:
    a gap cell capturing the divided exponent vector has no upper bound on
    the ray, so it would capture the original vector too.  Hence minimal
    generators live inside the box [s, K].
    """
    if diag._built:
        return tuple(map(max, _generator_values(diag)))
    caps = list(diag.min_exponents)
    for cone in fan.max_cones:
        for cell in diag.gaps(cone).cells:
            for ray, (_, hi) in cell.bounds:
                if hi is not None:
                    caps[ray] = max(caps[ray], hi + 1)
    return tuple(caps)


def _generator_values(diag):
    """Per ray, the floor and the cone generators' exponents on it, as a set."""
    values = [{x} for x in diag.min_exponents]
    for cone, gens in diag.cone_generators.items():
        for ray, exponents in zip(cone, zip(*gens)):
            values[ray].update(exponents)
    return values


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


def _orthant_members(fan, diag, grid, sizes, strides):
    """The grid points in some cone generator's orthant on every maximal cone."""
    members = (1 << (strides[0] * sizes[0])) - 1
    for cone, gens in diag.cone_generators.items():
        union = 0
        for g in gens:
            ranges = [(0, size) for size in sizes]
            for ray, x in zip(cone, g):
                ranges[ray] = (bisect_left(grid[ray], x), sizes[ray])
            union |= box_mask(ranges, strides)
        members &= union
    return members


def _gap_avoiders(fan, diag, grid, sizes, strides):
    """The grid points in no gap cell of any maximal cone."""
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
    return ((1 << (strides[0] * sizes[0])) - 1) & ~gaps


def minimal_generator_exponents(fan, diag):
    """Exponent vectors of the saturation's minimal generators.

    Reads them off one bitset over the breakpoint grid of the box [s, K],
    one bit per grid point in ``itertools.product`` order (last ray
    fastest).  For a built diagram the breakpoints are the cone
    generators' exponents, and a maximal cone's members are the union of
    its generators' orthants, one box per generator from its exponents up
    on the cone's rays; the members of the saturation are those of every
    maximal cone, so the paint costs O(generators x grid / 64) word
    operations and makes no cell.  For a diagram given by its cells, every
    gap cell of every maximal cone is painted in as a box of
    breakpoint-index ranges, and the rest are the members: O(cells x grid
    / 64).  That route is exact because exponents >= s make support
    membership automatic, so membership is avoidance of every maximal
    cone's gaps, and it also serves gap sets that no ideal has.  A member
    is minimal when none of its lower neighbours, one breakpoint down on a
    single ray, is a member: one shift per ray finds them all.  A minimal
    generator sits on breakpoints (otherwise one step down keeps
    membership), and one step down from a breakpoint lands in the range of
    the previous one, so the result equals a scan of every point of the
    box.
    """
    if diag._built:
        grid = [sorted(values) for values in _generator_values(diag)]
        caps, paint = tuple(points[-1] for points in grid), _orthant_members
    else:
        caps = exponent_caps(fan, diag)
        grid, paint = _breakpoints(fan, diag, caps), _gap_avoiders
    sizes = [len(points) for points in grid]
    strides = grid_strides(sizes)
    members = paint(fan, diag, grid, sizes, strides)

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
    localization there: ``minimalize`` of the restrictions to the cone's
    rays, the one call per maximal cone, kept as the diagram's
    ``cone_generators``.  An ideal and its saturation have the same
    localization at every maximal cone, so they get the same cells.  The
    diagram keeps them and sweeps its cells, for the maximal cones only,
    when they are first read; it derives the faces.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal has no diagram")
    if ideal.nvars != fan.nrays:
        raise InputError("ideal and fan have different numbers of variables")
    return diagram_from_cone_generators(fan, ideal.min_exponents(),
                                        _localize(fan, ideal.gens))


def _localize(fan, gens):
    """Per maximal cone, the minimal restrictions of gens to the cone's rays."""
    return {cone: minimalize(tuple(g[i] for i in cone) for g in gens)
            for cone in fan.max_cones}


def diagram_from_cone_generators(fan, s, cone_generators):
    """The diagram with floor s and these minimal localized generators.

    ``cone_generators`` maps each maximal cone to the sorted minimal
    generators of the localization there, as exponents on the cone's rays.
    The diagram keeps both, unchecked; its cells are swept by ``_sweep``
    when they are first read, and its saturation is scanned from the
    generators' orthants.
    """
    diag = object.__new__(KlyachkoDiagram)
    diag.fan, diag.min_exponents = fan, tuple(s)
    diag.cone_generators = cone_generators
    diag._built = True
    diag._supports, diag._numerators = {}, {}
    return diag


def _sweep(fan, s, cone_generators):
    """{maximal cone: gap region} of the floor s and these cone generators.

    Each cone is sliced along its last ray at the generators' distinct
    levels: the slice of a band is the diagram, over the facet, of the
    minimal projections of the generators at or below the band.  The
    generators are bucketed by level once, and the bands are swept upward:
    each level drops its new projections that a kept one divides, then the
    kept ones that a new projection divides, so the minimal set grows
    without being rebuilt.  The recursion stops at a plane, whose gaps are
    a staircase read off in closed form: going up the last ray, each band
    is cut on the other ray below the least exponent seen so far.  A cone
    of one ray, on a fan of dimension 1, is the staircase [s, m - 1] below
    its one generator.  Cells are bare bound tuples until the end; ``Cell``s
    are made and sorted by ``Cell.sort_key`` once per maximal cone, which
    gives the order a sort at every level would.
    """
    memo = {}

    def delta(cone, gens):
        """The gap cells' bound tuples over the cone, unsorted; gens are minimal, sorted."""
        if len(cone) == 1:
            (ray,), ((m,),) = cone, gens
            return [((ray, (s[ray], m - 1)),)] if m > s[ray] else []
        if len(cone) == 2:
            # sorted by the first ray, an antichain climbs the last ray; top is
            # m - 1 for the least first-ray exponent m seen so far
            a, last = cone
            result, lo, top = [], s[last], None
            for x, y in reversed(gens):
                if y > lo:
                    result.append(((a, (s[a], top)), (last, (lo, y - 1))))
                lo, top = y, x - 1
            if top != s[a] - 1:
                result.append(((a, (s[a], top)), (last, (lo, None))))
            return result
        key = (cone, gens)
        if key in memo:
            return memo[key]
        last = cone[-1]
        levels = {s[last]: []}
        for g in gens:
            levels.setdefault(g[-1], []).append(g[:-1])
        lows = sorted(levels)
        kept, result = [], []
        for j, lo in enumerate(lows):
            # gens are an antichain, so the projections of one level are too
            new = [p for p in levels[lo] if not any(divides(k, p) for k in kept)]
            kept = [k for k in kept if not any(divides(p, k) for p in new)] + new
            band = (last, (lo, lows[j + 1] - 1 if j + 1 < len(lows) else None))
            # inner cells leave the last ray free, and the bands are disjoint on it
            result.extend(c + (band,) for c in delta(cone[:-1], tuple(sorted(kept))))
        memo[key] = result
        return result

    return {cone: LatticeRegion._of(cone, map(Cell._of, delta(cone, gens)))
            for cone, gens in cone_generators.items()}


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
    minus the character tau that pairs to the divisor's coefficients on
    the cone's rays, so every bound on a ray rho of the cone moves by
    -D_rho; no character is solved for.

    Returns a dict mapping each maximal cone to its shifted ConeEntry.
    """
    if len(divisor) != fan.nrays:
        raise InputError("divisor length does not match the ray count")
    divisor = [json_int(d, "divisor entry") for d in divisor]
    shifted = {}
    for cone in fan.max_cones:
        move = {ray: -divisor[ray] for ray in cone}
        shifted[cone] = ConeEntry(diag.support(cone).translate(move),
                                  diag.gaps(cone).translate(move))
    return shifted
