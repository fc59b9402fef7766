"""Unions of axis-aligned lattice boxes in pairing coordinates.

A diagram entry over a cone is a set of characters cut out by conditions on
the pairings <m, rho> with the cone's rays.  We represent such sets as
finite unions of cells, where each cell holds an interval per constrained
ray.  ``None`` means the side is unbounded; a ray that is absent from a
cell is unconstrained.  Lower bounds may be None as well: complements of
half-spaces show up when differences are taken, so the algebra has to be
closed under that.

Every region is canonical: its cells are nonempty, pairwise non-nested and
sorted by ``Cell.sort_key``.  ``LatticeRegion(cone, cells)`` establishes
this by pruning, as does ``-``, whose cells can nest.  ``LatticeRegion._of``
only sorts, for results that are canonical by construction: ``empty``,
``full`` and ``orthant`` (zero cells or one), ``shift`` (a translation),
and the pairwise disjoint bands of ``compute_diagram``.
``difference`` compares two regions exactly, over all of M.  Lattice points
over a maximal cone are listed and counted by one walk over disjoint cells.
"""

from itertools import product
from math import prod

from .errors import InfiniteRegionError, InputError, json_int
from .lattice import UnboundedRegionError, lattice_fibers

def _isect(a, b):
    lo = b[0] if a[0] is None else a[0] if b[0] is None else max(a[0], b[0])
    hi = b[1] if a[1] is None else a[1] if b[1] is None else min(a[1], b[1])
    return (lo, hi)


def _interval_empty(iv):
    lo, hi = iv
    return lo is not None and hi is not None and lo > hi


class Cell:
    """One box: a finite map ray index -> (lo, hi) interval of pairings."""

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        items = bounds.items() if isinstance(bounds, dict) else bounds
        cleaned = [(json_int(ray, "cell ray"),
                    tuple(None if v is None else json_int(v, "cell bound") for v in (lo, hi)))
                   for ray, (lo, hi) in items]
        if len({r for r, _ in cleaned}) != len(cleaned):
            raise InputError("cell constrains a ray twice")
        self.bounds = tuple(sorted(b for b in cleaned if b[1] != (None, None)))

    @classmethod
    def _of(cls, bounds):
        """A cell from ray-sorted bounds, none of them (None, None); no checks."""
        cell = object.__new__(cls)
        cell.bounds = bounds
        return cell

    @classmethod
    def _with(cls, bounds, ray, iv):
        """The cell of the ray -> interval map ``bounds`` with ``ray`` set to ``iv``."""
        merged = dict(bounds)
        merged[ray] = iv
        return cls._of(tuple(sorted(merged.items())))

    def interval(self, ray):
        for r, iv in self.bounds:
            if r == ray:
                return iv
        return (None, None)

    def rays(self):
        return tuple(r for r, _ in self.bounds)

    def is_empty(self):
        return any(_interval_empty(iv) for _, iv in self.bounds)

    def contains_values(self, value_at):
        """Membership given pairing values; value_at maps ray index -> int."""
        for ray, (lo, hi) in self.bounds:
            v = value_at[ray]
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

    def within(self, other):
        """Whether this box is contained in ``other``."""
        mine = dict(self.bounds)
        for ray, (lo, hi) in other.bounds:
            ilo, ihi = mine.get(ray, (None, None))
            if (lo is not None and (ilo is None or ilo < lo)
                    or hi is not None and (ihi is None or ihi > hi)):
                return False
        return True

    def intersect(self, other):
        merged = dict(self.bounds)
        for ray, iv in other.bounds:
            if ray in merged:
                iv = _isect(merged[ray], iv)
                if _interval_empty(iv):
                    return None
            merged[ray] = iv
        return Cell._of(tuple(sorted(merged.items())))

    def minus(self, other):
        """This box minus another, as a list of disjoint boxes."""
        if self.intersect(other) is None:
            return [self]
        pieces = []
        current = dict(self.bounds)
        for ray, (blo, bhi) in other.bounds:
            alo, ahi = current.get(ray, (None, None))
            if blo is not None:
                below = (alo, blo - 1 if ahi is None else min(ahi, blo - 1))
                if not _interval_empty(below):
                    pieces.append(Cell._with(current, ray, below))
            if bhi is not None:
                above = (bhi + 1 if alo is None else max(alo, bhi + 1), ahi)
                if not _interval_empty(above):
                    pieces.append(Cell._with(current, ray, above))
            current[ray] = _isect((alo, ahi), (blo, bhi))
        return pieces

    def sort_key(self):
        # a lower None (-infinity) sorts first, an upper None (+infinity) last
        return tuple((ray, lo is not None, lo or 0, hi is None, hi or 0)
                     for ray, (lo, hi) in self.bounds)

    def __eq__(self, other):
        return isinstance(other, Cell) and self.bounds == other.bounds

    def __hash__(self):
        return hash(self.bounds)

    def __repr__(self):
        parts = ", ".join(f"{ray}:[{lo},{hi}]" for ray, (lo, hi) in self.bounds)
        return "Cell(" + parts + ")"

    def to_json(self):
        return {str(ray): [lo, hi] for ray, (lo, hi) in self.bounds}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError(f"malformed cell data: {obj!r}")
        bounds = {}
        for key, iv in obj.items():
            # exactly str(ray): "01" would silently alias "1"
            if not (key.isascii() and key.isdigit() and key == str(int(key))):
                raise InputError(f"malformed cell data: ray {key!r}")
            if not isinstance(iv, list) or len(iv) != 2:
                raise InputError(f"malformed cell data: interval {iv!r}")
            bounds[int(key)] = iv
        return cls(bounds)


def _prune(cells):
    """Drop empty cells and cells contained in another cell."""
    kept = []
    cells = [c for c in cells if not c.is_empty()]
    for i, c in enumerate(cells):
        redundant = False
        for j, d in enumerate(cells):
            if i == j:
                continue
            if c.within(d) and not (d.within(c) and j > i):
                redundant = True
                break
        if not redundant:
            kept.append(c)
    return kept


class LatticeRegion:
    """A finite union of cells attached to a cone of the fan."""

    __slots__ = ("cone", "cells")

    def __init__(self, cone, cells):
        self.cone = tuple(cone)
        cells = list(cells)
        for cell in cells:
            if not set(cell.rays()) <= set(self.cone):
                raise InputError(f"cell {cell!r} constrains a ray outside "
                                 f"the cone {self.cone}")
        pruned = _prune(cells)
        pruned.sort(key=Cell.sort_key)
        self.cells = tuple(pruned)

    @classmethod
    def _of(cls, cone, cells):
        """A region from nonempty, pairwise non-nested cells: only sorts."""
        region = object.__new__(cls)
        region.cone = tuple(cone)
        region.cells = tuple(sorted(cells, key=Cell.sort_key))
        return region

    @classmethod
    def empty(cls, cone):
        return cls._of(cone, [])

    @classmethod
    def full(cls, cone):
        return cls._of(cone, [Cell._of(())])

    @classmethod
    def orthant(cls, cone, lows):
        """{m : <m, rho> >= lows[rho] for rho in cone}."""
        return cls._of(cone, [Cell({ray: (lo, None) for ray, lo in lows.items()})])

    def is_empty(self):
        return not self.cells

    def _check_cone(self, other):
        if self.cone != other.cone:
            raise InputError(f"region cones differ: {self.cone} vs {other.cone}")

    def __sub__(self, other):
        self._check_cone(other)
        remaining = list(self.cells)
        for b in other.cells:
            nxt = []
            for a in remaining:
                nxt.extend(a.minus(b))
            remaining = nxt
        return LatticeRegion(self.cone, remaining)

    def contains_values(self, value_at):
        return any(c.contains_values(value_at) for c in self.cells)

    def contains(self, fan, m):
        values = {ray: fan.pairing(m, ray) for ray in self.cone}
        return self.contains_values(values)

    def shift(self, fan, vector):
        """Translate by a lattice vector: bounds move by <vector, rho>, order kept."""
        move = {ray: fan.pairing(vector, ray) for ray in self.cone}
        return LatticeRegion._of(self.cone, [
            Cell._of(tuple((ray, (None if lo is None else lo + move[ray],
                                  None if hi is None else hi + move[ray]))
                           for ray, (lo, hi) in cell.bounds))
            for cell in self.cells])

    def disjoint_cells(self):
        """Pairwise disjoint cells with the same union, for counting."""
        out = []
        for cell in self.cells:
            pieces = [cell]
            for prev in out:
                nxt = []
                for p in pieces:
                    nxt.extend(p.minus(prev))
                pieces = nxt
            out.extend(pieces)
        return out

    def difference(self, other):
        """The first cell of ``self - other`` or of ``other - self``.

        None exactly when the two regions are the same set of characters,
        however their cells are presented.
        """
        self._check_cone(other)
        if self.cells == other.cells:
            # regions are stored pruned and sorted, so this is the common case
            return None
        for rest in (self - other, other - self):
            if rest.cells:
                return rest.cells[0]
        return None

    def __repr__(self):
        return f"LatticeRegion(cone={self.cone}, cells={list(self.cells)})"


def _cell_ranges(fan, region):
    """Per disjoint cell of a region over a maximal cone, a range per cone ray.

    Raises InfiniteRegionError, with the cell as witness, at the first
    unbounded cell.
    """
    if len(region.cone) != fan.dim:
        raise InputError(f"cone {region.cone} is not maximal")
    for cell in region.disjoint_cells():
        bounds = [cell.interval(ray) for ray in region.cone]
        if any(None in iv for iv in bounds):
            raise InfiniteRegionError(
                f"cell {cell!r} over cone {region.cone} is unbounded", witness=cell)
        yield [range(lo, hi + 1) for lo, hi in bounds]


def region_points(fan, region):
    """All characters in a region over a maximal cone, sorted."""
    return sorted(fan.character(region.cone, y)
                  for ranges in _cell_ranges(fan, region) for y in product(*ranges))


def count_region_points(fan, region):
    """Number of characters in a region over a maximal cone."""
    return sum(prod(r.stop - r.start for r in ranges)
               for ranges in _cell_ranges(fan, region))


def section_fibers(fan, divisor):
    """The characters m with <m, rho_i> + divisor[i] >= 0 for every ray.

    This is the polytope of global sections of the divisor, finite whenever
    the fan is complete.  Yields it fiber by fiber along the last axis of M,
    as ``lattice.lattice_fibers`` does.
    """
    if len(divisor) != fan.nrays:
        raise InputError("divisor length does not match the ray count")
    rows = [(ray, -json_int(d, "divisor entry")) for ray, d in zip(fan.rays, divisor)]
    try:
        yield from lattice_fibers(rows, fan.dim)
    except UnboundedRegionError as exc:
        raise InfiniteRegionError(
            "section polytope is unbounded; the fan is not complete") from exc
