import pytest

from hemifol import variational as va


@pytest.fixture(scope="session")
def willmore_terms():
    return va.second_derivative_terms("willmore")


@pytest.fixture(scope="session")
def cmc_terms():
    return va.second_derivative_terms("cmc")
