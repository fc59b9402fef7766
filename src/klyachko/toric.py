"""Smooth complete toric fans and the class-group grading of their Cox rings.

Conventions used throughout the package:

* a fan lives in N = Z^n; rays are primitive integer vectors, cones are
  sorted tuples of ray indices, and ``max_cones`` all have n rays; the
  full face list ``Fan.cones`` is built only when something asks for it
  (a diagram's ``entries`` view and the membership check);
* a character (point of the dual lattice M = Z^n) is a plain int tuple,
  paired with rays through ``Fan.pairing``;
* the Cox ring has one variable per ray; a monomial is its exponent
  vector, an int tuple of length ``Fan.nrays``;
* multidegrees (classes in the class group, which is free of rank
  ``nrays - dim`` here) are int tuples of length ``CoxGrading.rank``.

The class group comes from 0 -> M -> Z^rays -> Cl -> 0, m -> (<m, rho>).
For a smooth fan everything the toric layer needs of it rests on one
routine, ``linalg.unimodular_inverse``: the inverse of a maximal cone's
ray matrix turns pairings back into characters (``Fan.character``), and
the inverse of the rays outside a class-group basis grades the Cox ring
(``compute_grading``).  Every integer that enters here is checked with
``errors.json_int``; nothing is coerced.
"""

import itertools
import math
import os
import re
from functools import cached_property

from .errors import InputError, json_int, read_json
from .linalg import dot, unimodular_inverse


class Fan:
    """A rational fan given by its rays and maximal cones."""

    def __init__(self, dim, rays, max_cones, name=None):
        self.dim = json_int(dim, "fan dimension")
        self.rays = tuple(tuple(json_int(x, "ray entry") for x in ray) for ray in rays)
        self.nrays = len(self.rays)
        self.max_cones = tuple(sorted(tuple(sorted(json_int(i, "cone ray index") for i in c))
                                      for c in max_cones))
        self.name = name
        self._inverses = {}

    @cached_property
    def cones(self):
        """Every face of every maximal cone, the trivial cone first; built on first use.

        Only ``KlyachkoDiagram.entries`` and the membership check ask for it.
        """
        faces = {()}
        for cone in self.max_cones:
            for k in range(1, len(cone) + 1):
                faces.update(itertools.combinations(cone, k))
        return tuple(sorted(faces, key=lambda c: (len(c), c)))

    def __eq__(self, other):
        return (isinstance(other, Fan)
                and self.dim == other.dim
                and self.rays == other.rays
                and self.max_cones == other.max_cones)

    def __hash__(self):
        return hash((self.dim, self.rays, self.max_cones))

    def __repr__(self):
        label = self.name or f"{self.nrays} rays"
        return f"Fan({label}, dim={self.dim})"

    def pairing(self, m, ray_index):
        """<m, n(rho)> for a character m and a ray index."""
        return dot(m, self.rays[ray_index])

    def character(self, cone, values):
        """The character m with <m, rho> = values[k] for the k-th ray rho of a cone.

        The cone must be maximal and unimodular; its inverse ray matrix is
        computed once and kept on the fan.
        """
        inverse = self._inverses.get(cone)
        if inverse is None:
            if cone not in self.max_cones:
                raise InputError(f"cone {cone} is not maximal")
            inverse = unimodular_inverse([self.rays[i] for i in cone])
            if inverse is None:
                raise InputError(f"maximal cone {cone} is not unimodular")
            self._inverses[cone] = inverse
        if len(values) != self.dim:
            raise InputError(f"{len(values)} pairings given for a cone of {self.dim} rays")
        values = [json_int(v, "pairing") for v in values]
        return tuple(dot(row, values) for row in inverse)

    def validate(self):
        return validate_fan(self)

    def assert_valid(self):
        problems = self.validate()
        if problems:
            raise InputError("invalid fan: " + "; ".join(problems))

    def to_json(self):
        return {"dim": self.dim,
                "rays": [list(r) for r in self.rays],
                "max_cones": [list(c) for c in self.max_cones]}

    @classmethod
    def from_json(cls, obj, name=None):
        try:
            return cls(obj["dim"], obj["rays"], obj["max_cones"], name=name)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed fan data: {exc}") from exc


def validate_fan(fan):
    """Check the smooth-complete invariants.  Returns a list of problems."""
    problems = []
    n = fan.dim
    if n < 1:
        problems.append("dim must be at least 1")
        return problems
    if not fan.rays:
        problems.append("no rays")
        return problems
    seen = {}
    for i, ray in enumerate(fan.rays):
        if len(ray) != n:
            problems.append(f"ray {i} has length {len(ray)}, expected {n}")
            continue
        if not any(ray):
            problems.append(f"ray {i} is zero")
            continue
        if math.gcd(*ray) != 1:
            problems.append(f"ray {i} is not primitive")
        if ray in seen:
            problems.append(f"rays {seen[ray]} and {i} coincide")
        seen[ray] = i
    if problems:
        return problems
    if not fan.max_cones:
        problems.append("no maximal cones")
        return problems
    used = set()
    for cone in fan.max_cones:
        used.update(cone)
        if len(set(cone)) != len(cone) or any(i < 0 or i >= fan.nrays for i in cone):
            problems.append(f"cone {cone} has repeated or out-of-range ray indices")
            return problems
        if len(cone) != n:
            problems.append(f"maximal cone {cone} has {len(cone)} rays, expected {n}")
            continue
        if unimodular_inverse([fan.rays[i] for i in cone]) is None:
            problems.append(f"maximal cone {cone} is not unimodular")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        problems.append("repeated maximal cones")
    missing = set(range(fan.nrays)) - used
    if missing:
        problems.append(f"rays {sorted(missing)} belong to no maximal cone")
    if problems:
        return problems
    # completeness: every facet of a maximal cone lies in exactly two of them
    facet_count = {}
    for cone in fan.max_cones:
        for facet in itertools.combinations(cone, n - 1):
            facet_count[facet] = facet_count.get(facet, 0) + 1
    for facet, count in sorted(facet_count.items()):
        if count != 2:
            problems.append(
                f"facet {facet} lies in {count} maximal cones (fan is not complete)")
    return problems


class CoxGrading:
    """The projection Z^rays -> class group, normalized on ``basis_rays``.

    ``deg_matrix`` is an (rank x nrays) int matrix whose column at each
    basis ray is the corresponding standard basis vector, so the classes
    of the basis-ray divisors are the chosen basis of the class group.
    """

    def __init__(self, fan, deg_matrix, basis_rays):
        self.fan = fan
        self.deg_matrix = tuple(tuple(row) for row in deg_matrix)
        self.basis_rays = tuple(basis_rays)
        self.rank = len(self.deg_matrix)

    def degree(self, vector):
        """Class of an integer divisor/exponent vector (length nrays)."""
        return tuple(dot(row, vector) for row in self.deg_matrix)

    def canonical_lift(self, u):
        """The lift of a class u placing u on the basis rays and 0 elsewhere."""
        if len(u) != self.rank:
            raise InputError(f"degree {u} has length {len(u)}, expected {self.rank}")
        lift = [0] * self.fan.nrays
        for coord, ray in zip(u, self.basis_rays):
            lift[ray] = json_int(coord, "degree entry")
        return tuple(lift)

    def variable_degrees(self):
        """Column view: the class of each Cox variable."""
        return [tuple(self.deg_matrix[i][j] for i in range(self.rank))
                for j in range(self.fan.nrays)]


def compute_grading(fan):
    """The class-group grading of the Cox ring, read off a unimodular ray basis.

    The classes of a ray subset S of size ``nrays - dim`` form a basis of Cl
    exactly when the other rays form a basis of N.  ``basis_rays`` is the
    lexicographically first such S, and its columns of the degree matrix
    are the identity block.  A complement ray c gets the column
    -(<m_c, rho_s>) over s in S, where m_c is its character in the basis
    dual to the complement: div(chi^{m_c}) = D_c + sum_s <m_c, rho_s> D_s
    is principal, so has class 0.  The complement is often not a cone of
    the fan, so its inverse is taken here rather than by ``Fan.character``.
    """
    n, r = fan.dim, fan.nrays
    for basis_rays in itertools.combinations(range(r), r - n):
        rest = [i for i in range(r) if i not in basis_rays]
        inverse = unimodular_inverse([fan.rays[i] for i in rest])
        if inverse is not None:
            break
    else:
        raise InputError("no ray subset gives a class-group basis")
    deg = [[int(j == s) for j in range(r)] for s in basis_rays]
    for k, c in enumerate(rest):
        m_c = [row[k] for row in inverse]
        for row, s in zip(deg, basis_rays):
            row[c] = -dot(m_c, fan.rays[s])
    return CoxGrading(fan, deg, basis_rays)


def projective_space(n):
    """The standard fan of n-dimensional projective space."""
    if n < 1:
        raise InputError("projective space needs dimension >= 1")
    rays = [tuple([-1] * n)] + [tuple(1 if j == i else 0 for j in range(n))
                                for i in range(n)]
    cones = [tuple(range(1, n + 1))]
    for i in range(1, n + 1):
        cones.append(tuple(sorted({0, *range(1, n + 1)} - {i})))
    return Fan(n, rays, cones, name=f"P{n}")


def hirzebruch(a):
    """The Hirzebruch surface of parameter a >= 0.

    Rays are ordered (u0, u1, v0, v1) = ((-1, a), (1, 0), (0, -1), (0, 1)),
    with Cox variables (x0, x1, y0, y1) in that order.
    """
    if a < 0:
        raise InputError("Hirzebruch parameter must be >= 0")
    rays = [(-1, a), (1, 0), (0, -1), (0, 1)]
    cones = [(1, 3), (1, 2), (0, 3), (0, 2)]
    return Fan(2, rays, cones, name=f"H{a}")


def product_of_projective_spaces(n, m):
    """The fan of P^n x P^m, first factor's rays first."""
    pn, pm = projective_space(n), projective_space(m)
    dim = n + m
    rays = [tuple(r) + (0,) * m for r in pn.rays]
    rays += [(0,) * n + tuple(r) for r in pm.rays]
    shift = pn.nrays
    cones = []
    for c1 in pn.max_cones:
        for c2 in pm.max_cones:
            cones.append(tuple(sorted(c1 + tuple(i + shift for i in c2))))
    return Fan(dim, rays, cones, name=f"P{n}xP{m}")


_CATALOG = re.compile(r"^(?:P(\d+)|H(\d+)|P(\d+)xP(\d+))$")


def named_fan(name):
    """Catalog lookup: P{n}, H{a}, P{n}xP{m}.  Returns None on no match."""
    match = _CATALOG.match(name.strip())
    if not match:
        return None
    pn, ha, qn, qm = match.groups()
    try:
        if pn is not None:
            return projective_space(int(pn))
        if ha is not None:
            return hirzebruch(int(ha))
        return product_of_projective_spaces(int(qn), int(qm))
    except InputError:
        # P0 and friends parse but name nothing
        return None


def load_fan(source):
    """A fan from a catalog name or a JSON file path."""
    fan = named_fan(source)
    if fan is None:
        if not os.path.isfile(source):
            raise InputError(f"unknown fan {source!r} (not a catalog name or file)")
        fan = Fan.from_json(read_json(source), name=source)
    fan.assert_valid()
    return fan
