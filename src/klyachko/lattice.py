"""Integer points of rational polyhedra by Fourier-Motzkin bound propagation.

A constraint system over d variables is a list of rows (coeffs, b) with
coeffs a length-d tuple of ints, meaning coeffs . x >= b.  Elimination is
exact; since only integer points are ever wanted, every row is normalized
by the gcd of its coefficients with the bound rounded up, which preserves
the integer solution set and keeps numbers small.
"""

import math


class UnboundedRegionError(ValueError):
    """The system has points arbitrarily far out along some axis."""

    def __init__(self, axis):
        super().__init__(f"unbounded along axis {axis}")
        self.axis = axis


def _ceil_div(a, b):
    # b > 0
    return -((-a) // b)


def normalize_row(coeffs, b):
    g = math.gcd(*coeffs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        b = _ceil_div(b, g)
    return coeffs, b


def _tidy(rows):
    """Drop trivial rows, keep only the strongest bound per coefficient vector."""
    best = {}
    for coeffs, b in rows:
        if not any(coeffs):
            if b > 0:
                return None  # 0 >= b > 0: infeasible
            continue
        coeffs, b = normalize_row(coeffs, b)
        old = best.get(coeffs)
        if old is None or b > old:
            best[coeffs] = b
    return [(c, b) for c, b in best.items()]


def eliminate_last(rows, d):
    """Project the system onto the first d-1 variables (Fourier-Motzkin)."""
    j = d - 1
    lower, upper, rest = [], [], []
    for coeffs, b in rows:
        c = coeffs[j]
        if c > 0:
            lower.append((coeffs, b))
        elif c < 0:
            upper.append((coeffs, b))
        else:
            rest.append((coeffs[:j], b))
    for lc, lb in lower:
        for uc, ub in upper:
            # (-uc[j])*lower + lc[j]*upper has zero j-coefficient
            a, c = -uc[j], lc[j]
            coeffs = tuple(a * x + c * y for x, y in zip(lc[:j], uc[:j]))
            rest.append((coeffs, a * lb + c * ub))
    return _tidy(rest)


def bound_tables(rows, d):
    """Projected systems over the first k variables, for k = 1..d.

    Returns None if the system is detected infeasible while projecting.
    """
    rows = _tidy(rows)
    if rows is None:
        return None
    if d == 0:
        return []
    tables = [None] * d
    tables[d - 1] = rows
    for k in range(d - 1, 0, -1):
        rows = eliminate_last(rows, k + 1)
        if rows is None:
            return None
        tables[k - 1] = rows
    return tables


def _interval(rows):
    """Bounds of a one-variable system.  Returns (lo, hi); None = infinite."""
    lo, hi = None, None
    for (c,), b in rows:
        if c > 0:
            v = _ceil_div(b, c)
            if lo is None or v > lo:
                lo = v
        elif c < 0:
            v = b // c
            if hi is None or v < hi:
                hi = v
        elif b > 0:
            return 1, 0  # infeasible
    return lo, hi


def _fiber(table, prefix, k):
    """Substitute prefix = (x_0..x_{k-1}) into the k+1 variable system.

    Returns one-variable rows over x_k, or None if already infeasible.
    """
    out = []
    for coeffs, b in table:
        acc = b
        for i, pv in enumerate(prefix):
            acc -= coeffs[i] * pv
        c = coeffs[k]
        if c == 0:
            if acc > 0:
                return None
        else:
            out.append(((c,), acc))
    return out


def lattice_fibers(rows, d):
    """The integer points of the system, one fiber of the last axis at a time.

    Yields (prefix, lo, hi) with prefix the first d-1 coordinates: the
    points over that prefix are exactly prefix + (t,) for lo <= t <= hi.
    Only nonempty fibers are yielded, prefixes in lexicographic order.
    For d == 0 the one point () of a feasible system comes as ((), 0, 0).
    Raises UnboundedRegionError if the system is unbounded.
    """
    if d == 0:
        if all(b <= 0 for _, b in rows):
            yield (), 0, 0
        return
    tables = bound_tables(rows, d)
    if tables is None:
        return

    def walk(k, prefix, one_var_rows):
        lo, hi = _interval(one_var_rows)
        if lo is not None and hi is not None and lo > hi:
            return
        if lo is None or hi is None:
            raise UnboundedRegionError(k)
        if k == d - 1:
            yield prefix, lo, hi
            return
        for v in range(lo, hi + 1):
            new_prefix = prefix + (v,)
            fiber = _fiber(tables[k + 1], new_prefix, k + 1)
            if fiber is not None:
                yield from walk(k + 1, new_prefix, fiber)

    first = [((c[0],), b) for c, b in tables[0]]
    yield from walk(0, (), first)

