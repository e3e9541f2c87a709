import pytest

from crsphere.harmonics import HarmonicBasis


@pytest.fixture(scope="session")
def basis16():
    """n = 1 basis at the largest degree any test needs; restrict() for less."""
    return HarmonicBasis.build(1, 16)


@pytest.fixture(scope="session")
def basis12(basis16):
    return basis16.restrict(12)


@pytest.fixture(scope="session")
def basis8(basis16):
    return basis16.restrict(8)


@pytest.fixture(scope="session")
def bases_small(basis8):
    """The small bases of the property tests, by n."""
    return {1: basis8, 2: HarmonicBasis.build(2, 5)}


@pytest.fixture(scope="session")
def basis_n3_N4():
    """The n = 3 basis of the exact_cold benchmark workload."""
    return HarmonicBasis.build(3, 4)


@pytest.fixture(scope="session")
def basis_n2_N8():
    """The n = 2 basis of the float pipeline's n = 2 tests."""
    return HarmonicBasis.build(2, 8)
