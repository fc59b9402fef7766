import random

import pytest

from klyachko.linalg import (det, dot, identity, invert_unimodular, matmul,
                             smith_normal_form, solve_integer, xgcd)


def test_xgcd_basic():
    for a, b in [(12, 18), (-12, 18), (0, 5), (5, 0), (0, 0), (7, 7), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
    assert xgcd(12, 18)[0] == 6
    assert xgcd(-3, 0)[0] == 3


def test_xgcd_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        if g:
            assert a % g == 0 and b % g == 0


def test_dot_matvec_matmul():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert matmul([[1, 2]], [[3], [4]]) == [[11]]
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_det():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    # permutation matrix of a 3-cycle has determinant +1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_integer([[1, 1], [0, 1]], [5, 2]) == [3, 2]
    with pytest.raises(ValueError):
        solve_integer([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError):
        solve_integer([[2]], [3])  # no integral solution


def test_invert_unimodular():
    for M in ([[1, 0], [0, 1]], [[1, 5], [0, 1]], [[2, 1], [1, 1]],
              [[0, -1], [1, 0]]):
        inv = invert_unimodular(M)
        assert matmul(M, inv) == identity(len(M))
        assert matmul(inv, M) == identity(len(M))


def _is_unimodular(M):
    return det(M) in (1, -1)


def test_smith_normal_form_known():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D
    assert _is_unimodular(U) and _is_unimodular(V)
    diag = [D[i][i] for i in range(3)]
    assert diag == [2, 2, 156]  # invariant factors of this classic example


def test_smith_normal_form_random():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        assert _is_unimodular(U) and _is_unimodular(V)
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_smith_normal_form_projective_rays():
    # rays of the projective plane: cokernel is Z, all factors 1
    A = [[-1, -1], [1, 0], [0, 1]]
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D
    assert [D[0][0], D[1][1]] == [1, 1]
