import numpy as np
import pytest

from revineq import (QuadratureSpec, abelian_group, cygan_norm,
                     euclidean_norm, heisenberg_group, koranyi_norm)


@pytest.fixture(scope="session")
def line():
    return abelian_group((1.0,), name="abelian1")


@pytest.fixture(scope="session")
def plane():
    return abelian_group((1.0, 1.0), name="abelian2")


@pytest.fixture(scope="session")
def h1():
    return heisenberg_group()


@pytest.fixture(scope="session")
def line_norm(line):
    return euclidean_norm(line)


@pytest.fixture(scope="session")
def plane_norm(plane):
    return euclidean_norm(plane)


@pytest.fixture(scope="session")
def koranyi(h1):
    return koranyi_norm(h1)


@pytest.fixture(scope="session")
def cygan(h1):
    return cygan_norm(h1)


@pytest.fixture(scope="session")
def mc_spec():
    """Monte Carlo effort for routine tests; acceptance uses its own specs."""
    return QuadratureSpec(sample_count=20000, seed=101)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240913)


@pytest.fixture
def clear_caches():
    """Empties the draw stream and the radial L^p memo, so that the next
    estimate runs cold."""
    from revineq import operators, quadrature

    def clear():
        quadrature._STREAMS.clear()
        operators._P_INTEGRAL_CACHE.clear()
    return clear
