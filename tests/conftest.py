import numpy as np
import pytest

from stoqg import Basis


@pytest.fixture(scope="session")
def basis16():
    return Basis(16, 1.0)


@pytest.fixture(scope="session")
def basis8():
    return Basis(8, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
