"""Exact integer linear algebra for the toric layer.

A smooth fan needs one inverse: that of a unimodular ray matrix.  The rays
of a maximal cone form a basis of N, and its inverse turns pairings back
into characters; the rays outside a class-group basis form one too, and
its inverse grades the Cox ring (``toric.compute_grading``).  Everything
works on plain Python ints, with matrices as sequences of rows.
"""


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def unimodular_inverse(rows):
    """The integer inverse of a square integer matrix, or None unless det is ±1.

    Gauss-Jordan elimination on [M | I] with integer row operations only:
    each column is cleared below the diagonal by Euclid's algorithm, so the
    pivot left is the gcd of the column, which is ±1 for every column
    exactly when the determinant is.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        while True:
            live = [r for r in range(col, n) if a[r][col]]
            if not live:
                return None
            low = min(live, key=lambda r: abs(a[r][col]))
            a[col], a[low] = a[low], a[col]
            if len(live) == 1:
                break
            pivot = a[col]
            for r in range(col + 1, n):
                q = a[r][col] // pivot[col]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], pivot)]
        pivot = a[col]
        if pivot[col] not in (1, -1):
            return None
        for r in range(n):
            f = a[r][col] * pivot[col]
            if r != col and f:
                a[r] = [x - f * y for x, y in zip(a[r], pivot)]
    return [[x * a[i][i] for x in a[i][n:]] for i in range(n)]
