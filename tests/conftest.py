import numpy as np
import pytest
from scipy import integrate

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


def _r1_bilinear(f, h, alpha, beta, lam, p, q_prime, cutoff=200.0,
                 rtol=1e-10):
    """(B, ||f||_{q'}, ||h||_p) on R^1 by adaptive quadrature, independent
    of the library's sampler and moments.  With x = +-r and y = +-s,

        B = int_0^R int_0^R F(r) H(s) r^alpha s^beta
                2 (|r - s|^л + (r + s)^л) ds dr,

    the inner integral split at s = r, where |r - s|^л has a cusp.  R is the
    smaller of ``cutoff`` and the support radius; the profiles tested here
    hold less than 1e-12 of any of these integrals beyond r = 200.  Each
    quadrature asks for relative accuracy ``rtol``.
    """
    def quad(fn, a, b):
        return integrate.quad(fn, a, b, epsabs=0.0, epsrel=rtol,
                              limit=200)[0]

    rf, rh = min(cutoff, f.support_radius), min(cutoff, h.support_radius)

    def inner(r):
        def g(s):
            return float(h(s)) * s ** beta * 2.0 * (abs(r - s) ** lam
                                                    + (r + s) ** lam)
        mid = min(r, rh)
        return quad(g, 0.0, mid) + (quad(g, mid, rh) if mid < rh else 0.0)

    B = quad(lambda r: float(f(r)) * r ** alpha * inner(r), 0.0, rf)
    nf = (2.0 * quad(lambda r: float(f(r)) ** q_prime, 0.0, rf)) \
        ** (1.0 / q_prime)
    nh = (2.0 * quad(lambda r: float(h(r)) ** p, 0.0, rh)) ** (1.0 / p)
    return B, nf, nh


@pytest.fixture(scope="session")
def r1_bilinear():
    """The deterministic R^1 bilinear form, as (B, ||f||_{q'}, ||h||_p)."""
    return _r1_bilinear
