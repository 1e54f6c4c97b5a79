import math

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
    """Empties the draw stream, so that the next estimate runs cold."""
    from revineq import quadrature

    def clear():
        quadrature._stream.cache_clear()
    return clear


def _assert_z_gate(z):
    """The calibration gate on the z-scores of at least 20 seeds: standard
    deviation at most 1.3, and at most one seed beyond 3 sigma."""
    z = np.asarray(z)
    assert len(z) >= 20
    assert np.std(z, ddof=1) <= 1.3, z
    assert np.sum(np.abs(z) > 3.0) <= 1, z


@pytest.fixture(scope="session")
def z_gate():
    return _assert_z_gate


def _r1_bilinear(f, h, alpha, beta, lam, p, q_prime, rtol=1e-10):
    """(B, ||f||_{q'}, ||h||_p) on R^1 by adaptive quadrature, independent
    of the library's sampler and moments.  With x = +-r and y = +-s,

        B = int int F(r) H(s) r^alpha s^beta K(r, s) ds dr,
        K(r, s) = 2 (|r - s|^л + (r + s)^л),

    taken as E C1 + E C2 + D: the control means

        E C1 = 4 M_f(alpha + л) M_h(beta),  E C2 = 4 M_f(alpha) M_h(beta + л),

    M_g(k) = int g(r) r^k dr, are products of 1-D integrals, and the
    remainder D integrates K - 4 r^л - 4 s^л, which is O((s/r)^min(л, 2))
    of K where s << r, and the mirror where r << s.  So no double integral
    has to resolve the mass of profiles at separated scales, or the heavy
    power tail of |x|^л f.  The inner integral of D is split at
    s = r, where |r - s|^л has a cusp.  Every integral runs to the support
    radius (inf for the built-in families) in u = log r, where a power tail
    decays exponentially; each asks for relative accuracy ``rtol``.
    """
    def quad(fn, a, b, epsabs=0.0):
        def g(u):
            try:
                r = math.exp(u)
                return fn(r) * r if r > 0.0 else 0.0
            except OverflowError:       # a power of r beyond 1e308, where
                return 0.0              # the profile has long underflowed
        lo = math.log(a) if a > 0.0 else -math.inf
        return integrate.quad(g, lo, math.log(b), epsabs=epsabs,
                              epsrel=rtol, limit=200)[0]

    rf, rh = f.support_radius, h.support_radius

    def F(r):
        return float(f(r))

    def H(s):
        return float(h(s))

    # the profiles are evaluated far out in u, where their values underflow
    with np.errstate(over="ignore", under="ignore"):
        mf = [quad(lambda r: F(r) * r ** (alpha + k), 0.0, rf)
              for k in (0.0, lam)]
        mh = [quad(lambda s: H(s) * s ** (beta + k), 0.0, rh)
              for k in (0.0, lam)]
        controls = 4.0 * (mf[1] * mh[0] + mf[0] * mh[1])

        # D cancels far below its terms, so its integrals take an absolute
        # tolerance of rtol times the terms' size
        def inner(r):
            def g(s):
                return H(s) * s ** beta * (2.0 * (abs(r - s) ** lam
                                                  + (r + s) ** lam)
                                           - 4.0 * r ** lam - 4.0 * s ** lam)
            tol = rtol * 4.0 * (r ** lam * mh[0] + mh[1])
            mid = min(r, rh)
            return quad(g, 0.0, mid, tol) + (quad(g, mid, rh, tol)
                                             if mid < rh else 0.0)

        B = controls + quad(lambda r: F(r) * r ** alpha * inner(r), 0.0, rf,
                            rtol * controls)
        nf = (2.0 * quad(lambda r: F(r) ** q_prime, 0.0, rf)) \
            ** (1.0 / q_prime)
        nh = (2.0 * quad(lambda r: H(r) ** p, 0.0, rh)) ** (1.0 / p)
    return B, nf, nh


@pytest.fixture(scope="session")
def r1_bilinear():
    """The deterministic R^1 bilinear form, as (B, ||f||_{q'}, ||h||_p)."""
    return _r1_bilinear
