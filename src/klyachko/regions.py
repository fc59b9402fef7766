"""Unions of axis-aligned lattice boxes in pairing coordinates.

A diagram entry over a cone is a set of characters cut out by conditions on
the pairings <m, rho> with the cone's rays.  We represent such sets as
finite unions of cells, where each cell holds an interval per constrained
ray.  ``None`` means the side is unbounded; a ray that is absent from a
cell is unconstrained.  Lower bounds may be None as well: complements of
half-spaces show up when differences are taken.

A region's cells are nonempty and sorted by ``Cell.sort_key``; they may
overlap or nest, and nothing prunes them.  ``LatticeRegion(cone, cells)``
drops empty cells and sorts; ``LatticeRegion._of`` only sorts, for cells
that are nonempty by construction.

Every set operation runs on one bitset.  The cells' bounds lo and hi + 1
cut each ray of the cone into bands, and every cell is a box of band
boxes, so a set built from the cells is a subset of that finite breakpoint
grid.  ``-`` is a masked difference of two painted bitsets, ``difference``
the first band box of their symmetric difference, decided exactly over all
of M, and lattice points over a maximal cone are listed and counted band
box by band box.  ``box_mask`` paints and ``mask_indices`` walks the set
bits; the saturation scan of ``reconstruction`` uses them on its own grid.
"""

from bisect import bisect_right
from itertools import product
from math import prod

from .errors import InfiniteRegionError, InputError, json_int
from .lattice import UnboundedRegionError, lattice_fibers


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

    def interval(self, ray):
        for r, iv in self.bounds:
            if r == ray:
                return iv
        return (None, None)

    def rays(self):
        return tuple(r for r, _ in self.bounds)

    def is_empty(self):
        return any(lo is not None and hi is not None and lo > hi
                   for _, (lo, hi) in self.bounds)

    def contains_values(self, value_at):
        """Membership given pairing values; value_at maps ray index -> int."""
        for ray, (lo, hi) in self.bounds:
            v = value_at[ray]
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

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


def grid_strides(sizes):
    """Bit strides of a grid with the given axis sizes, the last axis fastest.

    A grid point's bit is the sum of its axis indices times the strides, as
    in ``itertools.product`` order.
    """
    strides = [1] * len(sizes)
    for i in reversed(range(len(sizes) - 1)):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return strides


def box_mask(ranges, strides):
    """Bitset of the grid points whose index on each axis i is in range(*ranges[i]).

    Every range must be nonempty.  Built from the fastest axis outward: the
    box over the later axes is repeated once per index of the next axis by
    doubling shifts, so the cost is linear in the box's span, and no
    grid-sized mask is kept.
    """
    mask = 1
    for (a, b), stride in zip(reversed(ranges), reversed(strides)):
        count, out, offset, width = b - a, 0, 0, stride
        while count:
            if count & 1:
                out |= mask << offset
                offset += width
            count >>= 1
            if count:
                mask |= mask << width
                width *= 2
        mask = out << (a * stride)
    return mask


def mask_indices(mask, strides):
    """Per set bit of the mask, lowest first, its list of axis indices."""
    bits = bin(mask)   # "0b" and the most significant bit first
    top = len(bits) - 1
    j = bits.rfind("1", 2)
    while j >= 0:
        index, rest = [], top - j
        for stride in strides:
            k, rest = divmod(rest, stride)
            index.append(k)
        yield index
        j = bits.rfind("1", 2, j)


class _BandGrid:
    """The breakpoint grid of some cells over a cone.

    On each ray of the cone the breakpoints are the cells' bounds lo and
    hi + 1.  They cut the ray into bands, one open below, one open above,
    and no cell starts or ends inside a band.  So every cell is a box of
    band boxes, and any set built from the cells is a bitset with one bit
    per band box, the last ray fastest.
    """

    __slots__ = ("cone", "axis", "points", "sizes", "strides")

    def __init__(self, cone, cells):
        self.cone = cone
        self.axis = {ray: i for i, ray in enumerate(cone)}
        points = [set() for _ in cone]
        for cell in cells:
            for ray, (lo, hi) in cell.bounds:
                if lo is not None:
                    points[self.axis[ray]].add(lo)
                if hi is not None:
                    points[self.axis[ray]].add(hi + 1)
        self.points = [sorted(p) for p in points]
        self.sizes = [len(p) + 1 for p in self.points]
        self.strides = grid_strides(self.sizes)

    def paint(self, cells):
        """The bitset of the union of nonempty cells whose bounds are on the grid."""
        mask = 0
        for cell in cells:
            ranges = [(0, size) for size in self.sizes]
            for ray, (lo, hi) in cell.bounds:
                i = self.axis[ray]
                # band k holds the values v with k breakpoints <= v
                ranges[i] = (0 if lo is None else bisect_right(self.points[i], lo),
                             self.sizes[i] if hi is None
                             else bisect_right(self.points[i], hi) + 1)
            mask |= box_mask(ranges, self.strides)
        return mask

    def cells(self, mask):
        """The band boxes of the set bits, lowest bit first, as cells."""
        for index in mask_indices(mask, self.strides):
            bounds = []
            for ray, points, k in zip(self.cone, self.points, index):
                band = (points[k - 1] if k else None,
                        points[k] - 1 if k < len(points) else None)
                if band != (None, None):
                    bounds.append((ray, band))
            yield Cell._of(tuple(sorted(bounds)))


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
        self.cells = tuple(sorted((c for c in cells if not c.is_empty()),
                                  key=Cell.sort_key))

    @classmethod
    def _of(cls, cone, cells):
        """A region from nonempty cells of the cone: only sorts."""
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
        grid = _BandGrid(self.cone, self.cells + other.cells)
        mask = grid.paint(self.cells) & ~grid.paint(other.cells)
        return LatticeRegion._of(self.cone, grid.cells(mask))

    def contains_values(self, value_at):
        return any(c.contains_values(value_at) for c in self.cells)

    def contains(self, fan, m):
        values = {ray: fan.pairing(m, ray) for ray in self.cone}
        return self.contains_values(values)

    def shift(self, fan, vector):
        """Translate by a lattice vector: bounds move by <vector, rho>."""
        return self.translate({ray: fan.pairing(vector, ray) for ray in self.cone})

    def translate(self, move):
        """Move every bound on each ray of the cone by move[ray], order kept.

        Every bound on a ray moves by the same amount, so the cells keep
        their ``Cell.sort_key`` order and are stored without a sort.
        """
        region = object.__new__(LatticeRegion)
        region.cone = self.cone
        region.cells = tuple(
            Cell._of(tuple((ray, (None if lo is None else lo + move[ray],
                                  None if hi is None else hi + move[ray]))
                           for ray, (lo, hi) in cell.bounds))
            for cell in self.cells)
        return region

    def difference(self, other):
        """The first band box of the breakpoint grid in exactly one of the regions.

        None exactly when the two regions are the same set of characters,
        however their cells are presented.
        """
        self._check_cone(other)
        if self.cells == other.cells:
            # regions are stored sorted, so this is the common case
            return None
        grid = _BandGrid(self.cone, self.cells + other.cells)
        return next(grid.cells(grid.paint(self.cells) ^ grid.paint(other.cells)), None)

    def __repr__(self):
        return f"LatticeRegion(cone={self.cone}, cells={list(self.cells)})"


def _band_ranges(fan, region):
    """Per band box of a region over a maximal cone, a range per cone ray.

    Raises InfiniteRegionError, with the cell as witness, at the first
    stored cell that is unbounded on a ray of the cone.
    """
    if len(region.cone) != fan.dim:
        raise InputError(f"cone {region.cone} is not maximal")
    for cell in region.cells:
        if any(None in cell.interval(ray) for ray in region.cone):
            raise InfiniteRegionError(
                f"cell {cell!r} over cone {region.cone} is unbounded", witness=cell)
    grid = _BandGrid(region.cone, region.cells)
    for box in grid.cells(grid.paint(region.cells)):
        # every cell is bounded, so no band box of their union is open
        yield [range(lo, hi + 1) for lo, hi in map(box.interval, region.cone)]


def region_points(fan, region):
    """All characters in a region over a maximal cone, sorted."""
    return sorted(fan.character(region.cone, y)
                  for ranges in _band_ranges(fan, region) for y in product(*ranges))


def count_region_points(fan, region):
    """Number of characters in a region over a maximal cone."""
    return sum(prod(map(len, ranges)) for ranges in _band_ranges(fan, region))


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
