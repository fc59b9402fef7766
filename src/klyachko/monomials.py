"""Monomial ideals in a Cox ring, with brute-force reference computations.

Monomials are exponent tuples over the ray-indexed variables x0..x{r-1}.
Everything in this module is elementary divisibility algebra, down to the
numerator of an ideal's Hilbert series (``k_polynomial``); it is kept
independent of the diagram machinery on purpose, so the two sides can be
checked against each other.
"""

import itertools
from operator import add

from .errors import InputError, json_int
from .lattice import UnboundedRegionError, enumerate_lattice_points


def divides(a, b):
    """Whether x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def lcm_exponents(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_str(exps, names=None):
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = names[i] if names else f"x{i}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def minimalize(gens):
    """The divisibility-minimal generators among ``gens``, sorted.

    A proper divisor has a smaller total degree, so in order of total degree
    each generator is tested only against the generators already kept.
    """
    kept = []
    for g in sorted({tuple(int(e) for e in g) for g in gens}, key=lambda g: (sum(g), g)):
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


def k_polynomial(gens):
    """The numerator K(R/J) of J = (gens), as {a: c_a} without zero terms.

    Finely graded: a is an exponent vector, and the class numerator sums
    c_a over the a of one class.  ``gens`` is nonempty (the zero ideal has
    numerator 1).  Bigatti's pivot recursion on p = x_i^e:

        K(R/J) = K(R/(J + p)) + x^p K(R/(J : p)),

    with x_i the variable in the most generators that are not pure powers,
    and e the median of its exponents there.  J + p then has fewer such
    generators, and J : p a smaller total degree, so the recursion ends at
    pairwise coprime generators, where K is the product of the (1 - x^g).
    A pure power never gives the pivot: if x_i^e were a generator, J + p
    would be J.  Ideals met twice are looked up in a memo kept for this
    call only.
    """
    memo = {}

    def shifted(poly, by, sign):
        return {tuple(map(add, a, by)): sign * c for a, c in poly.items()}

    def merge(poly, more):
        for a, c in more.items():
            poly[a] = poly.get(a, 0) + c
        return {a: c for a, c in poly.items() if c}

    def numerator(gens):
        poly = memo.get(gens)
        if poly is not None:
            return poly
        n = len(gens[0])
        occurs, mixed = [0] * n, [0] * n
        for g in gens:
            support = [i for i, x in enumerate(g) if x]
            for i in support:
                occurs[i] += 1
                mixed[i] += len(support) > 1
        if max(occurs) <= 1:
            poly = {(0,) * n: 1}
            for g in gens:
                poly = merge(dict(poly), shifted(poly, g, -1))
        else:
            i = mixed.index(max(mixed))
            exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
            e = exps[len(exps) // 2]
            pivot = (0,) * i + (e,) + (0,) * (n - i - 1)
            # no generator divides the pivot, so the sum is already minimal
            plus = tuple(sorted([g for g in gens if g[i] < e] + [pivot]))
            colon = minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
            poly = merge(dict(numerator(plus)), shifted(numerator(colon), pivot, 1))
        memo[gens] = poly
        return poly

    return numerator(minimalize(gens))


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generators.

    The zero ideal has no generators; ``nvars`` therefore has to be given
    explicitly when it cannot be read off a generator.
    """

    def __init__(self, gens, nvars=None):
        gens = [tuple(int(e) for e in g) for g in gens]
        for g in gens:
            if any(e < 0 for e in g):
                raise InputError(f"negative exponent in generator {g}")
        if nvars is None:
            if not gens:
                raise InputError("nvars is required for the zero ideal")
            nvars = len(gens[0])
        if any(len(g) != nvars for g in gens):
            raise InputError("generators have inconsistent lengths")
        self.nvars = nvars
        self.gens = minimalize(gens)

    def __contains__(self, exps):
        return any(divides(g, exps) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.nvars == other.nvars and self.gens == other.gens)

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        if self.is_zero():
            return "MonomialIdeal(0)"
        return "MonomialIdeal(" + ", ".join(monomial_str(g) for g in self.gens) + ")"

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == ((0,) * self.nvars,)

    def min_exponents(self):
        """Per-variable minimum of the generator exponents (the s vector)."""
        if self.is_zero():
            raise InputError("the zero ideal has no exponent floor")
        return tuple(min(g[i] for g in self.gens) for i in range(self.nvars))

    def to_json(self):
        return {"gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, obj, nvars=None):
        try:
            gens = obj["gens"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed ideal data: {exc}") from exc
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise InputError("malformed ideal data: \"gens\" must be a list of lists")
        return cls([[json_int(e, "exponent") for e in g] for g in gens], nvars=nvars)


def colon_var_saturate(ideal, var):
    """(I : x_var^infinity): zero the var exponent on every generator."""
    if ideal.is_zero():
        return ideal
    gens = [g[:var] + (0,) + g[var + 1:] for g in ideal.gens]
    return MonomialIdeal(gens, nvars=ideal.nvars)


def ideal_intersect(a, b):
    """Intersection of two monomial ideals (pairwise lcms, minimalized)."""
    if a.is_zero() or b.is_zero():
        return MonomialIdeal([], nvars=a.nvars)
    gens = [lcm_exponents(g, h) for g in a.gens for h in b.gens]
    return MonomialIdeal(gens, nvars=a.nvars)


def ideal_sum(a, b):
    return MonomialIdeal(list(a.gens) + list(b.gens), nvars=a.nvars)


def saturate_oracle(ideal, fan):
    """Saturation by the irrelevant ideal, computed by classical colon algebra.

    For every maximal cone the saturation by its (squarefree) irrelevant
    generator strips the exponents of the variables outside the cone; the
    full saturation is the intersection over the maximal cones.
    """
    if ideal.is_zero():
        raise InputError("cannot saturate the zero ideal")
    if ideal.nvars != fan.nrays:
        raise InputError("ideal and fan have different numbers of variables")
    result = None
    for cone in fan.max_cones:
        piece = ideal
        for var in set(range(fan.nrays)) - set(cone):
            piece = colon_var_saturate(piece, var)
        result = piece if result is None else ideal_intersect(result, piece)
    return result


def monomials_of_degree(grading, degree):
    """All exponent vectors of the given class, sorted.

    Enumerated directly in exponent space: nonnegativity plus the grading
    equations, solved by exact rational elimination with integer rounding.
    """
    r = grading.fan.nrays
    if len(degree) != grading.rank:
        raise InputError(f"degree {degree} has length {len(degree)}, expected {grading.rank}")
    rows = []
    for i in range(r):
        rows.append((tuple(1 if j == i else 0 for j in range(r)), 0))
    for row, a in zip(grading.deg_matrix, degree):
        rows.append((tuple(row), int(a)))
        rows.append((tuple(-x for x in row), -int(a)))
    try:
        return enumerate_lattice_points(rows, r)
    except UnboundedRegionError as exc:
        raise InputError("infinitely many monomials in one class; "
                         "the grading is not pointed") from exc


def hilbert_oracle(ideal, grading, degree):
    """dim (R/I)_degree by counting monomials outside the ideal."""
    return sum(1 for exps in monomials_of_degree(grading, degree)
               if exps not in ideal)


def degree_window(grading, ideal, pad=2):
    """Classes scanned by the Hilbert cross-checks.

    The generator classes, padded by up to ``pad`` steps along every class
    coordinate in both directions, plus the origin and its neighbors; the
    Hilbert function of a monomial quotient is controlled by the staircase
    near the generator classes, so this is where disagreements would show.
    """
    seeds = {(0,) * grading.rank}
    for g in ideal.gens:
        seeds.add(grading.degree(g))
    bumps = itertools.product(range(-pad, pad + 1), repeat=grading.rank)
    window = set()
    for seed, bump in itertools.product(seeds, list(bumps)):
        window.add(tuple(s + b for s, b in zip(seed, bump)))
    return sorted(window)
