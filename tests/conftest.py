import pytest
from hypothesis import settings

from klyachko import compute_grading, hirzebruch, product_of_projective_spaces, projective_space

# examples are bounded by their size, not by the wall clock of a shared host
settings.register_profile("klyachko", deadline=None)
settings.load_profile("klyachko")


@pytest.fixture(scope="session")
def p2():
    return projective_space(2)


@pytest.fixture(scope="session")
def p3():
    return projective_space(3)


@pytest.fixture(scope="session")
def h3():
    return hirzebruch(3)


@pytest.fixture(scope="session")
def p1xp1():
    return product_of_projective_spaces(1, 1)


@pytest.fixture(scope="session")
def p2_grading(p2):
    return compute_grading(p2)


@pytest.fixture(scope="session")
def p3_grading(p3):
    return compute_grading(p3)


@pytest.fixture(scope="session")
def h3_grading(h3):
    return compute_grading(h3)
