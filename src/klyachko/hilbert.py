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
exactly once per fan on a translated simplex of nef classes
(``euler_characteristic``).  Off the nef cone dim R_v is 0 where an
effective row is negative, and is otherwise counted fiber by fiber by
``ring_dimension``, as on a fan with no ample class.  So the work scales
with the numerator, not with the degree.

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

from itertools import count, product
from math import comb, prod
from operator import add, getitem, mul, sub

from .diagram import compute_diagram
from .errors import InfiniteRegionError, InputError, json_int
from .lattice import bound_tables, eliminate_last, lattice_fibers
from .linalg import unimodular_inverse
from .regions import count_region_points, section_fibers


def ring_dimension(grading, degree):
    """dim R_degree: lattice points of the section polytope of the lift."""
    return _ring_dimension(grading, degree)


def _ring_dimension(grading, degree):
    # chi's samples, built once per process, stay off the per-pass traced name
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
    those rows are ``effective_rows``.  chi is the polynomial of degree at
    most dim through the values of ``ring_dimension`` on the translated
    simplex A + {a in N^rank : |a| <= dim}, which is unisolvent for that
    degree and nef for the ``anchor`` A.  It is kept in Newton form: the
    forward differences of those values at A are the ``terms``, against
    products of binomials C(v_i - A_i, a_i), all exact ints.  ``terms`` is
    None only where the nef cone is not full-dimensional (a complete fan
    with no ample class); ``dimension`` then walks every class.
    """

    def __init__(self, grading):
        fan, rank = grading.fan, grading.rank
        self.grading, self.dim, self.terms = grading, fan.dim, None
        columns = grading.variable_degrees()
        rows = set()
        for sigma in fan.max_cones:
            outside = [r for r in range(fan.nrays) if r not in sigma]
            rows.update(map(tuple, unimodular_inverse([[columns[r][k] for r in outside]
                                                       for k in range(rank)])))
        self.nef_rows = sorted(rows)
        self.effective_rows = [row for row in self.nef_rows
                               if all(sum(map(mul, row, c)) >= 0 for c in columns)]
        self.anchor = _anchor(self.nef_rows, fan.dim)
        if self.anchor is not None:
            simplex = [a for a in product(range(fan.dim + 1), repeat=rank)
                       if sum(a) <= fan.dim]
            values = {a: _ring_dimension(grading, tuple(map(add, self.anchor, a)))
                      for a in simplex}
            # Delta^a chi(A) = sum over b <= a of prod (-1)^(a_i-b_i) C(a_i, b_i) chi(A+b)
            self.terms = [(a, d) for a in simplex if (d := sum(
                prod((-1) ** (x - y) * comb(x, y) for x, y in zip(a, b)) * values[b]
                for b in product(*(range(x + 1) for x in a))))]

    def is_nef(self, v):
        return all(sum(map(mul, row, v)) >= 0 for row in self.nef_rows)

    def __call__(self, v):
        """chi at any class v; it equals dim R_v where v is nef."""
        binomials = [_binomials(x - a, self.dim) for x, a in zip(v, self.anchor)]
        return sum(d * prod(map(getitem, binomials, a)) for a, d in self.terms)

    def dimension(self, v):
        """dim R_v: 0 where an effective row is negative, chi(v) on a nef
        class, ``ring_dimension`` elsewhere."""
        if any(sum(map(mul, row, v)) < 0 for row in self.effective_rows):
            return 0
        if self.terms is not None and self.is_nef(v):
            return self(v)
        return ring_dimension(self.grading, v)


def _binomials(x, n):
    """C(x, k) for k = 0..n, for any int x."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * (x - k) // (k + 1))
    return out


def _anchor(nef_rows, dim):
    """An integer class A with A + {a in N^rank : |a| <= dim} nef, or None.

    Such A are the integer points of {w . A >= dim * max(0, -min w) for
    every nef row w}, whose recession cone is the nef cone: it is nonempty,
    and then holds integer points, exactly when the nef cone is
    full-dimensional.  Elimination with rounded bounds keeps every integer
    point and adds no rational one, so eliminating every variable decides
    emptiness exactly; the first point is then found in a doubling box.
    """
    rank = len(nef_rows[0])
    rows = [(w, dim * max(0, -min(w))) for w in nef_rows]
    tables = bound_tables(rows, rank)
    if tables is None or eliminate_last(tables[0], 1) is None:
        return None
    for radius in (1 << k for k in count()):
        box = [(tuple(sign * (i == j) for j in range(rank)), -radius)
               for i in range(rank) for sign in (1, -1)]
        for prefix, lo, _ in lattice_fibers(rows + box, rank):
            return prefix + (lo,)


_CHARACTERISTICS = {}


def euler_characteristic(grading):
    """The fan's ``EulerCharacteristic``, built once per fan and grading."""
    key = (grading.fan, grading.deg_matrix)
    if key not in _CHARACTERISTICS:
        _CHARACTERISTICS[key] = EulerCharacteristic(grading)
    return _CHARACTERISTICS[key]


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
    """h of R/I^sat for any nonzero monomial ideal I, read off its diagram."""
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
