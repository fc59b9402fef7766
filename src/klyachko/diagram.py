"""Klyachko diagrams of monomial ideals.

The diagram of a nonzero monomial ideal assigns to every cone of the fan a
pair of regions in pairing coordinates: the support cone (where the induced
filtration can be nonzero) and the gap set (the part of the support missing
from the filtration).  The gap set of a maximal cone determines, together
with the exponent floor, the saturation of the ideal, which is what the
rest of the package exploits.
"""

from collections import namedtuple

from .errors import InputError, json_int
from .regions import Cell, LatticeRegion

ConeEntry = namedtuple("ConeEntry", ["support", "gaps"])


class KlyachkoDiagram:
    """Per-cone support/gap regions plus the exponent floor vector."""

    def __init__(self, fan, min_exponents, entries):
        self.fan = fan
        self.min_exponents = tuple(json_int(x, "exponent floor entry")
                                   for x in min_exponents)
        if len(self.min_exponents) != fan.nrays:
            raise InputError("exponent floor length does not match the ray count")
        self.entries = dict(entries)
        missing = [c for c in fan.cones if c not in self.entries]
        if missing:
            raise InputError(f"diagram is missing cones: {missing}")

    def support(self, cone):
        return self.entries[tuple(cone)].support

    def gaps(self, cone):
        return self.entries[tuple(cone)].gaps

    def member(self, cone, m):
        """Whether the character m lies in the cone's filtration piece."""
        entry = self.entries[tuple(cone)]
        return entry.support.contains(self.fan, m) and not entry.gaps.contains(self.fan, m)

    def same_memberships(self, other):
        """Set-level equality, ignoring how the cells are presented."""
        if self.fan != other.fan or self.min_exponents != other.min_exponents:
            return False
        for cone in self.fan.cones:
            if not self.gaps(cone).equivalent(other.gaps(cone)):
                return False
            if not self.support(cone).equivalent(other.support(cone)):
                return False
        return True

    def to_json(self):
        cones = {}
        for cone, entry in sorted(self.entries.items()):
            key = ",".join(str(i) for i in cone)
            cones[key] = {"support": entry.support.to_json(),
                          "gaps": entry.gaps.to_json()}
        return {"s": list(self.min_exponents), "cones": cones}

    @classmethod
    def from_json(cls, fan, obj):
        try:
            s = list(obj["s"])
            raw = obj["cones"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed diagram data: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("malformed diagram data: \"cones\" is not an object")
        entries = {}
        for key, val in raw.items():
            try:
                cone = tuple(int(p) for p in key.split(",")) if key else ()
                support, gaps = val["support"], val["gaps"]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed diagram cone {key!r}: {exc}") from exc
            if cone not in fan.cones:
                raise InputError(f"diagram refers to a cone {cone} not in the fan")
            regions = [LatticeRegion.from_json(support), LatticeRegion.from_json(gaps)]
            for region in regions:
                if region.cone != cone:
                    raise InputError(f"diagram cone {key!r} holds a region "
                                     f"over cone {region.cone}")
            entries[cone] = ConeEntry(*regions)
        return cls(fan, s, entries)


def support_region(fan, min_exponents, cone):
    """{m : <m, rho> >= s_rho for rho in the cone}."""
    if not cone:
        return LatticeRegion.full(())
    return LatticeRegion.orthant(cone, {ray: min_exponents[ray] for ray in cone})


def compute_diagram(fan, ideal, tie_reverse=False):
    """The Klyachko diagram of a nonzero monomial ideal.

    Works one cone at a time by slicing along the cone's last ray: between
    two consecutive generator levels the active generators are constant, so
    the slice is the diagram of the active subset over the facet.  The gap
    set is canonical, hence independent of the tie order; ``tie_reverse``
    only exercises that fact in tests.

    Returns a KlyachkoDiagram with an entry for every cone of the fan.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal has no diagram")
    if ideal.nvars != fan.nrays:
        raise InputError("ideal and fan have different numbers of variables")
    gens = list(ideal.gens)
    s = ideal.min_exponents()
    memo = {}

    def tie_key(i):
        return tuple(-e for e in gens[i]) if tie_reverse else gens[i]

    def delta(cone, idxs):
        key = (cone, idxs)
        if key in memo:
            return memo[key]
        if not cone:
            result = (LatticeRegion.full(()) if not idxs
                      else LatticeRegion.empty(()))
        else:
            last = cone[-1]
            sub = cone[:-1]
            order = sorted(idxs, key=lambda i: (gens[i][last], tie_key(i)))
            levels = [gens[i][last] for i in order]
            n = len(order)
            cells = []
            for j in range(n + 1):
                lo = s[last] if j == 0 else levels[j - 1]
                hi = None if j == n else levels[j] - 1
                if hi is not None and lo > hi:
                    continue
                band = (last, (lo, hi))
                inner = delta(sub, tuple(sorted(order[:j])))
                cells.extend(Cell._of(c.bounds + (band,)) for c in inner.cells)
            # inner cells leave the last ray free, and the bands are disjoint on it
            result = LatticeRegion._of(cone, cells)
        memo[key] = result
        return result

    everything = tuple(range(len(gens)))
    entries = {}
    for cone in fan.cones:
        entries[cone] = ConeEntry(support_region(fan, s, cone),
                                  delta(cone, everything))
    return KlyachkoDiagram(fan, s, entries)


def gaps_by_definition(fan, ideal, cone):
    """Gap set computed straight from the definition, for cross-checking.

    Support minus the union of the generators' orthants; no recursion.
    """
    s = ideal.min_exponents()
    region = support_region(fan, s, cone)
    for g in ideal.gens:
        region = region - support_region(fan, g, cone)
    return region


def sum_diagram(fan, diag_a, diag_b):
    """Diagram of I + J from the diagrams of I and J.

    The exponent floor is the ray-wise minimum.  Over each cone the gaps of
    the sum are assembled from four slabs: common gaps, gaps of one ideal
    outside the other's support, and the part of the new support outside
    both old supports.
    """
    if diag_a.fan != diag_b.fan:
        raise InputError("diagrams live on different fans")
    s = tuple(min(x, y) for x, y in zip(diag_a.min_exponents, diag_b.min_exponents))
    entries = {}
    for cone in fan.cones:
        support = support_region(fan, s, cone)
        ca, da = diag_a.support(cone), diag_a.gaps(cone)
        cb, db = diag_b.support(cone), diag_b.gaps(cone)
        # pairwise disjoint slabs (da lies in ca, db in cb), so no cell nests
        slabs = ((da & db), (da & (support - cb)), (db & (support - ca)),
                 (support - (ca | cb)))
        gaps = LatticeRegion._of(cone, [c for slab in slabs for c in slab.cells])
        entries[cone] = ConeEntry(support, gaps)
    return KlyachkoDiagram(fan, s, entries)


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
