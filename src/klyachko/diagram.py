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
``shift_diagram`` translates one.  The diagram of a sum is built from the
two saturations by ``reconstruction.sum_diagram``.
"""

from collections import namedtuple
from types import MappingProxyType

from .errors import InputError, json_int
from .monomials import minimalize
from .regions import Cell, LatticeRegion

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
