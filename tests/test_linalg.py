import random

import pytest

from klyachko import InputError, projective_space
from klyachko.linalg import dot, unimodular_inverse


def _product(A, B):
    return [[dot(row, col) for col in zip(*B)] for row in A]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _assert_inverse(M, inv):
    n = len(M)
    assert _product(M, inv) == _identity(n)
    assert _product(inv, M) == _identity(n)


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32


def test_invert_unimodular():
    for M in ([[1]], [[-1]], [[1, 0], [0, 1]], [[1, 5], [0, 1]], [[2, 1], [1, 1]],
              [[0, -1], [1, 0]], [[2, 3], [3, 5]], [[-1, -1], [1, 0]],
              [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 3, 1], [1, 2, 1], [1, 1, 1]]):
        _assert_inverse(M, unimodular_inverse(M))
    assert unimodular_inverse([[0, -1], [1, 0]]) == [[0, 1], [-1, 0]]
    assert unimodular_inverse([]) == []


def test_unimodular_inverse_random():
    # products of elementary integer row operations are exactly the unimodular matrices
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = _identity(n)
        for _ in range(rng.randint(0, 12)):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j or rng.random() < 0.2:
                M[i] = [-x for x in M[i]]
            else:
                c = rng.randint(-3, 3)
                M[i] = [x + c * y for x, y in zip(M[i], M[j])]
        M = rng.sample(M, n)
        _assert_inverse(M, unimodular_inverse(M))


def test_unimodular_inverse_refuses_other_determinants():
    assert unimodular_inverse([[1, 2], [2, 4]]) is None   # singular
    assert unimodular_inverse([[0, 0], [0, 1]]) is None   # zero column
    assert unimodular_inverse([[2]]) is None
    assert unimodular_inverse([[1, 2], [3, 4]]) is None   # det -2
    assert unimodular_inverse([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) is None
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        inv = unimodular_inverse(M)
        if inv is not None:
            _assert_inverse(M, inv)
        elif n <= 2:
            det = M[0][0] if n == 1 else M[0][0] * M[1][1] - M[0][1] * M[1][0]
            assert det not in (1, -1)


def test_character_refuses_cones_that_are_not_maximal():
    p2 = projective_space(2)
    for cone in [(1,), (), (0, 1, 2)]:
        with pytest.raises(InputError, match="not maximal"):
            p2.character(cone, (0, 0))
