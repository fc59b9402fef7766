"""Monomial ideals in a Cox ring, with brute-force reference computations.

Monomials are exponent tuples over the ray-indexed variables x0..x{r-1}.
Everything in this module is elementary divisibility algebra, down to the
numerator of an ideal's Hilbert series (``k_polynomial``); it is kept
independent of the diagram machinery on purpose, so the two sides can be
checked against each other.  The monomials of one class are walked in the
grading's ``dim`` free exponents, the rays outside its class-group basis
(``_class_fibers``): the listing expands that walk's lines, and the Hilbert
oracle counts each line by intervals of divisibility.
"""

import itertools
from operator import add, le, mul

from .errors import InputError, json_int
from .lattice import UnboundedRegionError, lattice_fibers


def divides(a, b):
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


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
    each generator is tested only against the generators already kept.  The
    exponents are taken as given; ``MonomialIdeal`` checks them.
    """
    kept = []
    for g in sorted({tuple(g) for g in gens}, key=lambda g: (sum(g), g)):
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
    explicitly when it cannot be read off a generator.  Every exponent must
    be a nonnegative ``int``: floats, bools and strings are refused, not
    truncated.
    """

    def __init__(self, gens, nvars=None):
        gens = [tuple(json_int(e, "exponent") for e in g) for g in gens]
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
        return cls(gens, nvars=nvars)


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


def _class_fibers(grading, degree):
    """The monomials of one class, as lines ``(base, slope, lo, hi)``.

    ``deg_matrix`` is the identity on ``basis_rays``, so a monomial of
    class u is fixed by its exponents x_j on the ``dim`` other rays:
    x_b = u_b - sum_j deg[b][j] x_j.  ``lattice_fibers`` walks those free
    exponents under x_j >= 0 and x_b >= 0, and each fiber of the last one,
    t, is the line of exponent vectors base + t * slope for lo <= t <= hi.
    """
    if len(degree) != grading.rank:
        raise InputError(f"degree {degree} has length {len(degree)}, expected {grading.rank}")
    degree = [json_int(a, "degree entry") for a in degree]
    r, basis, deg = grading.fan.nrays, grading.basis_rays, grading.deg_matrix
    free = [j for j in range(r) if j not in basis]
    d = len(free)
    rows = [(tuple(int(i == k) for i in range(d)), 0) for k in range(d)]
    rows += [(tuple(-row[j] for j in free), -a) for row, a in zip(deg, degree)]
    *head, last = free
    slope = [0] * r
    slope[last] = 1
    for row, b in zip(deg, basis):
        slope[b] = -row[last]
    # per basis ray: its class entry and its coefficients on the prefix
    pinned = [(b, a, [row[j] for j in head]) for row, b, a in zip(deg, basis, degree)]
    try:
        for prefix, lo, hi in lattice_fibers(rows, d):
            base = [0] * r
            for j, x in zip(head, prefix):
                base[j] = x
            for b, a, coeffs in pinned:
                base[b] = a - sum(map(mul, coeffs, prefix))
            yield base, slope, lo, hi
    except UnboundedRegionError as exc:
        raise InputError("infinitely many monomials in one class; "
                         "the grading is not pointed") from exc


def monomials_of_degree(grading, degree):
    """All exponent vectors of the given class, sorted.

    The lines of ``_class_fibers``, expanded point by point.  Each degree
    entry must be an ``int``: floats and bools are refused, not truncated.
    """
    return sorted(tuple(x + t * s for x, s in zip(base, slope))
                  for base, slope, lo, hi in _class_fibers(grading, degree)
                  for t in range(lo, hi + 1))


def hilbert_oracle(ideal, grading, degree):
    """dim (R/I)_degree: the monomials of the class outside the ideal, counted per line.

    On a line of ``_class_fibers`` every exponent is affine in t, so a
    generator divides the monomial exactly on one interval of t.  The
    count is the line's length minus the union of those intervals.
    """
    count = 0
    for base, slope, lo, hi in _class_fibers(grading, degree):
        spans = []
        for g in ideal.gens:
            a, b = lo, hi
            for x, s, e in zip(base, slope, g):
                if s > 0:
                    a = max(a, -((x - e) // s))
                elif s < 0:
                    b = min(b, (x - e) // -s)
                elif x < e:
                    break
            else:
                if a <= b:
                    spans.append((a, b))
        count += hi - lo + 1
        reach = lo - 1
        for a, b in sorted(spans):
            if b > reach:
                count -= b - max(a, reach + 1) + 1
                reach = b
    return count


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
