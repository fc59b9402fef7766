import pytest
from hypothesis import settings, strategies as st

from klyachko import (Fan, compute_grading, hirzebruch, product_of_projective_spaces,
                      projective_space)

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


def star_subdivide(fan, face):
    """The blow-up of a smooth fan along a face of dimension >= 2.

    The new ray, the sum of the face's rays, goes last; every maximal cone
    containing the face splits into one cone per face ray, with that ray
    swapped for the new one.  The result is smooth and complete again.
    """
    new = fan.nrays
    ray = tuple(map(sum, zip(*(fan.rays[i] for i in face))))
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone):
            cones.extend(tuple(new if i == j else i for i in cone) for j in face)
        else:
            cones.append(cone)
    return Fan(fan.dim, fan.rays + (ray,), cones, name=f"{fan.name}+{new}")


@st.composite
def blown_up_fans(draw):
    """Smooth complete fans outside the catalog: P2, P3, H1 or P1xP1 blown up 1-3 times."""
    fan = draw(st.sampled_from([projective_space(2), projective_space(3), hirzebruch(1),
                                product_of_projective_spaces(1, 1)]))
    for _ in range(draw(st.integers(1, 3))):
        faces = [cone for cone in fan.cones if len(cone) >= 2]
        fan = star_subdivide(fan, draw(st.sampled_from(faces)))
    return fan
