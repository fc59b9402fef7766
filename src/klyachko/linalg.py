"""Exact linear algebra over the integers.

Everything here works on plain Python ints (arbitrary precision), with
matrices as lists of lists or tuples of tuples.  No floating point.
"""

from fractions import Fraction


def xgcd(a, b):
    """Extended gcd.

    Args:
        a, b: integers.

    Returns:
        (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y.
    """
    x, y, u, v = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x, u = u, x - q * u
        y, v = v, y - q * v
    if a < 0:
        a, x, y = -a, -x, -y
    return a, x, y


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det(M):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(M)
    if n == 0:
        return 1
    m = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division is exact at every step
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_integer(M, b):
    """Solve M x = b for an integer vector x.

    Args:
        M: square nonsingular integer matrix.
        b: integer vector.

    Returns:
        The unique rational solution as a list of ints.

    Raises:
        ValueError: if M is singular or the solution is not integral.
    """
    n = len(M)
    a = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    xs = [row[n] for row in a]
    if any(x.denominator != 1 for x in xs):
        raise ValueError("solution is not integral")
    return [int(x) for x in xs]


def invert_unimodular(M):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(M)
    cols = [solve_integer(M, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Smith normal form with transforms.

    Args:
        A: an m x n integer matrix.

    Returns:
        (U, D, V) where U (m x m) and V (n x n) are unimodular,
        D = U*A*V is diagonal with d_1 | d_2 | ... | d_r >= 0.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # choose a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t with exact quotients, restart on remainders
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce the divisibility chain d_t | D[i][j]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, D, V
