import pytest

from knotgauge.curve import circle
from knotgauge.mobius import torus_knot


@pytest.fixture(scope="session")
def circle64():
    return circle(64)


@pytest.fixture(scope="session")
def circle512():
    return circle(512)


@pytest.fixture(scope="session")
def circle2048():
    return circle(2048)


@pytest.fixture(scope="session")
def trefoil512():
    return torus_knot(2, 3, 2.0, 0.5, 512)


@pytest.fixture(scope="session")
def trefoil1024():
    return torus_knot(2, 3, 2.0, 0.5, 1024)
