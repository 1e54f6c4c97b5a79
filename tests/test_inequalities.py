import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy import special as sp

from revineq import (DecayEnvelope, DegenerateInputError, DivergenceError,
                     InequalityParams, ParameterError, QuadratureSpec,
                     QuasiNorm, RadialProfile, SearchSpec, abelian_group,
                     analytic_A1, analytic_A2, balanced_lambda, bracket_kappa,
                     conjugate_exponent, estimate_best_constant,
                     euclidean_norm, make_profile, sphere_measure,
                     sphere_measure_direct, stein_weiss_form,
                     stein_weiss_lower_constant, validate_params,
                     verify_forward_ckn, verify_forward_hardy,
                     verify_forward_sobolev, verify_reverse_ckn,
                     verify_reverse_hardy, verify_reverse_hls,
                     verify_reverse_integral_hardy, verify_reverse_sobolev,
                     verify_stein_weiss, weighted_p_integral)
from revineq.inequalities import _regimes, power_weight_A

WORKED = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=5.0, alpha=1.0, beta=2.0)


# ---------------------------------------------------------------------------
# conjugate exponents and admissibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,expected", [(0.5, -1.0), (2.0, 2.0), (2 / 3, -2.0)])
def test_conjugate_values(p, expected):
    assert conjugate_exponent(p) == pytest.approx(expected, rel=1e-14)


def test_conjugate_rejects_one():
    with pytest.raises(ParameterError):
        conjugate_exponent(1.0)


@given(p=st.floats(min_value=-50, max_value=50).filter(
    lambda v: abs(v - 1.0) > 1e-3))
@settings(max_examples=300, deadline=None)
def test_conjugate_involution(p):
    assert conjugate_exponent(conjugate_exponent(p)) == pytest.approx(
        p, rel=1e-12, abs=1e-15)


def test_worked_admissibility():
    rep = validate_params(WORKED)
    assert rep.admissible
    assert rep.failures == []
    # derived facts: p' = q = -1, balance 2 + 2 = 8/4 + 2
    assert WORKED.p_prime == -1.0 and WORKED.q == -1.0
    assert abs(WORKED.balance_residual) == 0.0


def test_negative_alpha_fails():
    bad = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=5.1, alpha=-0.1, beta=2.0)
    rep = validate_params(bad)
    assert "0 <= alpha" in rep.failures


def test_balance_violation_fails():
    bad = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=4.0, alpha=1.0, beta=2.0)
    rep = validate_params(bad)
    assert any(c.startswith("balance") for c in rep.failures)


def test_improved_variants_relax_one_side():
    # beta above its bound: full fails, improved_a passes (alpha side only)
    p = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=2.0, alpha=1.0, beta=5.0,
                         variant="improved_a")
    rep = validate_params(p)
    assert rep.admissible
    assert "beta < -Q/p'" in rep.unverified
    full = validate_params(InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=2.0,
                                            alpha=1.0, beta=5.0))
    assert not full.admissible


def test_balanced_lambda_closes_balance():
    lam = balanced_lambda(4.0, 0.3, 0.7, 0.5, 0.25)
    P = InequalityParams(Q=4, p=0.3, q_prime=0.7, lam=lam, alpha=0.5, beta=0.25)
    assert abs(P.balance_residual) < 1e-13


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def test_analytic_constants_worked_example():
    S = 2.7
    assert analytic_A1(WORKED, S) == pytest.approx(4.0 / S ** 2, rel=1e-14)
    assert analytic_A2(WORKED, S) == pytest.approx(9.0 / S ** 2, rel=1e-14)
    assert bracket_kappa(-1.0, -1.0) == pytest.approx(0.25, rel=1e-14)
    assert stein_weiss_lower_constant(WORKED, S) == pytest.approx(
        13.0 / (256.0 * S ** 2), rel=1e-13)


def test_bracket_kappa_in_unit_interval():
    for pp in np.linspace(-8.0, -0.1, 17):
        for q in np.linspace(-8.0, -0.1, 17):
            k = bracket_kappa(pp, q)
            assert 0.0 < k <= 1.0


def test_bracket_rejects_positive_exponents():
    with pytest.raises(ParameterError):
        bracket_kappa(2.0, -1.0)


def test_analytic_A_requires_conditions():
    bad_beta = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=2.0, alpha=1.0,
                                beta=5.0, variant="improved_a")
    with pytest.raises(ParameterError):
        analytic_A1(bad_beta, 1.0)
    analytic_A2(bad_beta, 1.0)   # alpha side is fine


@pytest.mark.parametrize("region,mW,mU", [
    ("ball", 0.0, 1.0),             # Q + w < 0 fails
    ("ball", -1.0, 0.0),            # Q + u(1-p') > 0 fails
    ("complement", 0.0, -1.0),      # Q + w > 0 fails
    ("complement", 1.0, 0.0),       # Q + u(1-p') < 0 fails
    ("annulus", -1.0, 1.0),
])
def test_power_weight_A_requires_region_signs(region, mW, mU):
    with pytest.raises(ParameterError, match="no power-weight A"):
        power_weight_A(region, mW, mU, -1.0, -1.0, 2.0)


def test_analytic_A1_A2_are_power_weight_A_at_the_regimes():
    """A1 and A2 are the lemma's constant at the inner (ball) and outer
    (complement) weights, bit for bit."""
    regimes = _regimes(WORKED)
    S = 2.0 * math.pi ** 2
    args = (WORKED.q, WORKED.p_prime, S)
    assert analytic_A1(WORKED, S) == power_weight_A(
        "ball", *regimes["ball"], *args)
    assert analytic_A2(WORKED, S) == power_weight_A(
        "complement", *regimes["complement"], *args)
    # Q + (beta+lambda)p' is the outer regime's Q + u(1-p')
    u = -(WORKED.beta + WORKED.lam) * WORKED.p
    assert regimes["complement"][1] == pytest.approx(
        WORKED.Q + u * (1.0 - WORKED.p_prime), rel=1e-14)


def test_constants_positive_on_grid():
    """A1, A2 and the certified constant are positive across the admissible
    grid (lambda solved from the balance condition)."""
    for Q in (1.0, 2.0, 4.0):
        for p, qp in itertools.product((0.3, 0.5, 0.7), repeat=2):
            q, pp = conjugate_exponent(qp), conjugate_exponent(p)
            for fa, fb in itertools.product((0.0, 0.5), repeat=2):
                alpha, beta = fa * (-Q / q), fb * (-Q / pp)
                lam = balanced_lambda(Q, p, qp, alpha, beta)
                P = InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam,
                                     alpha=alpha, beta=beta)
                assert validate_params(P).admissible
                assert analytic_A1(P, 2.0) > 0
                assert analytic_A2(P, 2.0) > 0
                assert stein_weiss_lower_constant(P, 2.0) > 0


# ---------------------------------------------------------------------------
# reverse Hardy / Sobolev / CKN against Gamma oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def expp():
    return make_profile("exp_decay", [1.0])


def test_reverse_hardy_gamma_oracle(h1, koranyi, mc_spec, expp):
    rep = verify_reverse_hardy(expp, 0.5, h1, koranyi, mc_spec)
    oracle = 0.5 * (sp.gamma(3.5) / sp.gamma(4.0)) ** 2
    assert rep.ratio == pytest.approx(oracle, rel=1e-3)
    assert rep.analytic_constant == pytest.approx(1.0 / 7.0)
    assert rep.passed


def test_reverse_sobolev_gamma_oracle(h1, koranyi, mc_spec, expp):
    rep = verify_reverse_sobolev(expp, 0.5, h1, koranyi, mc_spec)
    oracle = (sp.gamma(4.0) * math.sqrt(0.5) / sp.gamma(4.5)) ** 2
    assert rep.ratio == pytest.approx(oracle, rel=1e-3)
    assert rep.analytic_constant == pytest.approx(0.125)
    assert rep.passed


def test_reverse_ckn_gamma_oracle(h1, koranyi, mc_spec, expp):
    rep = verify_reverse_ckn(expp, 0.5, 1.0, 1.0, h1, koranyi, mc_spec)
    oracle = 12.0 / sp.gamma(3.5) ** 2
    assert rep.ratio == pytest.approx(oracle, rel=1e-9)
    assert rep.analytic_constant == pytest.approx(0.5)
    assert rep.passed


def test_reverse_hardy_scale_invariant(h1, koranyi, mc_spec, expp):
    base = verify_reverse_hardy(expp, 0.5, h1, koranyi, mc_spec)
    for c in (0.3, 4.0):
        rep = verify_reverse_hardy(make_profile("exp_decay", [c]), 0.5,
                                   h1, koranyi, mc_spec)
        assert rep.ratio == pytest.approx(base.ratio, rel=1e-9)


def test_reverse_hardy_requires_decreasing(h1, koranyi, mc_spec):
    from revineq import DecayEnvelope, RadialProfile
    humped = RadialProfile(
        value=lambda r: np.asarray(r, float) * np.exp(-np.asarray(r, float)),
        derivative=lambda r: (1 - np.asarray(r, float))
        * np.exp(-np.asarray(r, float)),
        envelope=DecayEnvelope("exp", boost=1.0),
        derivative_envelope=DecayEnvelope("exp", boost=1.0))
    with pytest.raises(ParameterError, match="not radially decreasing"):
        verify_reverse_hardy(humped, 0.5, h1, koranyi, mc_spec)


def test_reverse_hardy_rejects_p_out_of_range(h1, koranyi, mc_spec, expp):
    with pytest.raises(ParameterError):
        verify_reverse_hardy(expp, 1.5, h1, koranyi, mc_spec)


def test_ckn_reduces_to_hardy_and_sobolev(h1, koranyi, mc_spec, expp):
    """gamma = p with alpha = 0 reproduces the Hardy report; gamma = 0 with
    beta = 0 reproduces the Sobolev report."""
    p = 0.5
    hardy = verify_reverse_hardy(expp, p, h1, koranyi, mc_spec)
    ckn_h = verify_reverse_ckn(expp, p, 0.0, p - 1.0, h1, koranyi, mc_spec)
    assert ckn_h.ratio == pytest.approx(hardy.ratio, rel=1e-10)
    assert ckn_h.analytic_constant == pytest.approx(hardy.analytic_constant)

    sob = verify_reverse_sobolev(expp, p, h1, koranyi, mc_spec)
    ckn_s = verify_reverse_ckn(expp, p, -1.0, 0.0, h1, koranyi, mc_spec)
    assert ckn_s.ratio == pytest.approx(sob.ratio, rel=1e-10)
    assert ckn_s.analytic_constant == pytest.approx(sob.analytic_constant)


def test_ckn_rejects_gamma_above_Q(h1, koranyi, mc_spec, expp):
    with pytest.raises(ParameterError):
        verify_reverse_ckn(expp, 0.5, 2.0, 2.0, h1, koranyi, mc_spec)


@pytest.mark.parametrize("verify", [
    lambda f, *r: verify_reverse_hardy(f, 0.5, *r),
    lambda f, *r: verify_reverse_sobolev(f, 0.5, *r),
    lambda f, *r: verify_reverse_ckn(f, 0.5, 0.5, 0.25, *r),
    lambda f, *r: verify_forward_hardy(f, 2.0, *r),
    lambda f, *r: verify_forward_sobolev(f, 2.0, *r),
    lambda f, *r: verify_forward_ckn(f, 2.0, 0.5, 0.25, *r),
    lambda f, *r: verify_reverse_integral_hardy("ball", -6.0, -1.0, f, 0.5,
                                                -1.0, *r)],
    ids=["reverse_hardy", "reverse_sobolev", "reverse_ckn", "forward_hardy",
         "forward_sobolev", "forward_ckn", "reverse_integral_hardy"])
def test_deterministic_reports_do_not_depend_on_the_spec(verify, h1, koranyi,
                                                         expp):
    """The radial and integral Hardy verifiers run no Monte Carlo: their
    reports are byte-identical whatever the seed and sample count."""
    reports = {json.dumps(verify(expp, h1, koranyi,
                                 QuadratureSpec(sample_count=n, seed=seed))
                          .as_dict())
               for seed, n in ((1, 20000), (2, 20000), (3, 7))}
    assert len(reports) == 1


# ---------------------------------------------------------------------------
# weighted bilinear verification
# ---------------------------------------------------------------------------

def test_stein_weiss_worked_example(h1, koranyi, expp):
    spec = QuadratureSpec(sample_count=30000, seed=2)
    rep = verify_stein_weiss(expp, expp, WORKED, h1, koranyi, spec)
    assert rep.passed
    assert rep.ratio > rep.analytic_constant
    assert rep.sphere == pytest.approx(2 * math.pi ** 2, rel=1e-15)


def test_stein_weiss_report_records_the_plain_stderr(h1, koranyi, mc_spec,
                                                     expp):
    """A bilinear report keeps the stderr that B would have without its
    control variates beside the one it has, so the variance reduction
    shows in report.json."""
    gauss = make_profile("gaussian", [1.0])
    rep = verify_stein_weiss(expp, gauss, WORKED, h1, koranyi, mc_spec)
    plain = rep.as_dict()["extras"]["lhs_stderr_plain"]
    assert plain == rep.extras["lhs_stderr_plain"]
    assert plain > 2.0 * rep.lhs_stderr > 0.0


@pytest.mark.parametrize("family, params", [("gaussian", [1.0]),
                                            ("smooth_bump", [1.0])])
def test_stein_weiss_rhs_stderr_carries_both_norms(h1, koranyi, mc_spec, expp,
                                                   family, params):
    """rhs = ||f||_{q'} ||h||_p carries the error bars of its two radial
    integrals to first order, and the ratio's stderr adds that relative
    error to B's.  A closed-form moment has a 1e-12 relative bar; the
    smooth bump's comes from the Gauss-Kronrod rule."""
    h = make_profile(family, params)
    rep = verify_stein_weiss(expp, h, WORKED, h1, koranyi, mc_spec)
    (i_f, e_f), (i_h, e_h) = (weighted_p_integral(g, 0.5, 0.0, 4.0)
                              for g in (expp, h))
    assert rep.rhs_stderr > 0.0
    assert rep.rhs_stderr == pytest.approx(
        rep.rhs * (e_f / i_f + e_h / i_h) / 0.5, rel=1e-12)
    assert rep.stderr == pytest.approx(
        rep.ratio * (rep.lhs_stderr / rep.lhs + rep.rhs_stderr / rep.rhs),
        rel=1e-12)
    assert rep.stderr > rep.lhs_stderr / rep.rhs


def test_stein_weiss_overflowing_form_raises_divergence(h1, koranyi, expp):
    """A profile whose bilinear form overflows (e^r 1e300 against an e^{-r/2}
    envelope, the integrand of the integrate_cartesian divergence test)
    raises from the form itself, with the remedy in the message."""
    grow = lambda r: np.exp(np.asarray(r, float)) * 1e300
    f = RadialProfile(value=grow, envelope=DecayEnvelope("exp", scale=0.5),
                      derivative=grow,
                      derivative_envelope=DecayEnvelope("exp", scale=0.5))
    with pytest.raises(DivergenceError, match="stein_weiss_form.*reduce lambda"):
        verify_stein_weiss(f, expp, WORKED, h1, koranyi,
                           QuadratureSpec(sample_count=2000, seed=1))


def test_stein_weiss_diverging_at_the_origin_raises(line, line_norm, expp):
    """At alpha = -1.2 on R^1, |x|^alpha is not integrable near x = 0, where
    the kernel tends to |y|^lambda > 0, so B is infinite.  Every variant,
    improved_b included, rejects the point as inadmissible, and the form
    itself says so instead of returning a finite mean."""
    lam = balanced_lambda(1.0, 0.5, 0.5, -1.2, 0.0)
    P = InequalityParams(Q=1.0, p=0.5, q_prime=0.5, lam=lam, alpha=-1.2,
                         beta=0.0, variant="improved_b")
    assert validate_params(P).failures == ["alpha > -Q"]
    gauss = make_profile("gaussian", [1.0])
    spec = QuadratureSpec(sample_count=2000, seed=1)
    with pytest.raises(ParameterError, match=r"inadmissible.*alpha > -Q"):
        verify_stein_weiss(expp, gauss, P, line, line_norm, spec)
    with pytest.raises(DivergenceError,
                       match=r"stein_weiss_form\[f-side\].*singularity"):
        stein_weiss_form(expp, gauss, -1.2, 0.0, lam, line_norm, spec)


def test_stein_weiss_report_identical_cold_warm_and_after_eviction(
        h1, koranyi, expp, clear_caches):
    """The draw stream and the integral memo change no bit of a report:
    cold (caches cleared), warm, and after a call at another seed has
    evicted the stream."""
    import json
    from revineq import quadrature
    gauss = make_profile("gaussian", [1.0])
    spec = QuadratureSpec(sample_count=5000, seed=11)

    def report(at):
        return json.dumps(verify_stein_weiss(expp, gauss, WORKED, h1, koranyi,
                                             at).as_dict(), sort_keys=True)

    clear_caches()
    cold = report(spec)
    assert report(spec) == cold
    report(QuadratureSpec(sample_count=5000, seed=12))
    # the one stream held is seed 12's: asking for it is a hit
    hits = quadrature._stream.cache_info().hits
    quadrature._stream(12, 5000, h1.weights)
    assert quadrature._stream.cache_info().hits == hits + 1
    assert quadrature._stream.cache_info().currsize == 1
    assert report(spec) == cold


def test_stein_weiss_ratio_scale_free_in_amplitude(h1, koranyi, expp):
    from dataclasses import replace
    spec = QuadratureSpec(sample_count=20000, seed=2)
    scaled = replace(
        expp,
        value=lambda r: 3.0 * np.exp(-np.asarray(r, float)),
        derivative=lambda r: -3.0 * np.exp(-np.asarray(r, float)))
    a = verify_stein_weiss(expp, expp, WORKED, h1, koranyi, spec)
    b = verify_stein_weiss(scaled, expp, WORKED, h1, koranyi, spec)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-12)


def test_stein_weiss_dilation_drift(h1, koranyi, expp):
    spec = QuadratureSpec(sample_count=20000, seed=6)
    gauss = make_profile("gaussian", [1.0])
    base = verify_stein_weiss(expp, gauss, WORKED, h1, koranyi, spec)
    for s in (0.5, 2.0, 4.0):
        rep = verify_stein_weiss(expp.dilated(s), gauss.dilated(s), WORKED,
                                 h1, koranyi, spec)
        assert abs(rep.ratio - base.ratio) / base.ratio <= 1e-2


def test_stein_weiss_rejects_inadmissible(h1, koranyi, mc_spec, expp):
    bad = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=4.0, alpha=1.0, beta=2.0)
    with pytest.raises(ParameterError):
        verify_stein_weiss(expp, expp, bad, h1, koranyi, mc_spec)


def test_hls_is_stein_weiss_without_weights(plane, plane_norm, expp):
    spec = QuadratureSpec(sample_count=30000, seed=4)
    lam = balanced_lambda(2.0, 0.5, 0.5)
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5, lam=lam)
    hls = verify_reverse_hls(expp, expp, P, plane, plane_norm, spec)
    sw = verify_stein_weiss(expp, expp, P, plane, plane_norm, spec)
    assert hls.ratio == sw.ratio
    assert hls.inequality == "reverse_hls"
    assert hls.passed


def test_hls_rejects_weights(plane, plane_norm, mc_spec, expp):
    with pytest.raises(ParameterError):
        verify_reverse_hls(expp, expp, WORKED, plane, plane_norm, mc_spec)


def test_hls_zero_profile_degenerate(plane, plane_norm, mc_spec, expp):
    from revineq import DecayEnvelope, RadialProfile
    zeros = lambda r: np.zeros_like(np.asarray(r, float))
    zero = RadialProfile(value=zeros, envelope=DecayEnvelope("exp"),
                         derivative=zeros,
                         derivative_envelope=DecayEnvelope("exp"))
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5,
                         lam=balanced_lambda(2.0, 0.5, 0.5))
    with pytest.raises(DegenerateInputError):
        verify_reverse_hls(expp, zero, P, plane, plane_norm, mc_spec)


def test_certified_constant_violated_at_admissible_point():
    """Documented counterexample: the certified two-regime constant exceeds
    the true bilinear ratio at an admissible parameter point.

    Q=1, p=0.7, q'=0.3, alpha=0, beta = (1/2)(-Q/p'), lambda from balance,
    f = e^{-r}, h = (1+r)^{-8.881}: high-accuracy quadrature of the double
    integral gives ratio/constant ~ 0.981 < 1.  The inner/outer-regime
    splitting behind the constant relies on intermediate integrals that are
    divergent for such data, so the half-sum bound it produces is not
    actually certified; this pins the numerical fact.
    """
    Q, p, qp = 1.0, 0.7, 0.3
    pp = conjugate_exponent(p)
    beta = 0.5 * (-Q / pp)
    lam = balanced_lambda(Q, p, qp, 0.0, beta)
    P = InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam, alpha=0.0, beta=beta)
    assert validate_params(P).admissible

    s = max(Q / qp, Q / p) + lam + Q + 2.0

    def integrand(y, x):
        return abs(x - y) ** lam * math.exp(-abs(x)) \
            * (1.0 + abs(y)) ** (-s) * abs(y) ** beta

    B = 0.0
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sciint.IntegrationWarning)
        for (x0, x1) in ((-50.0, 0.0), (0.0, 50.0)):
            v, e = sciint.dblquad(integrand, x0, x1, -50.0, 50.0, epsabs=1e-10)
            B += v
    nf = (2.0 / qp) ** (1.0 / qp)
    nh = (2.0 / (p * s - 1.0)) ** (1.0 / p)
    ratio = B / (nf * nh)
    L = stein_weiss_lower_constant(P, 2.0)

    assert ratio == pytest.approx(0.0077734, rel=1e-3)
    assert ratio < L                       # the claimed bound fails here
    assert ratio / L > 0.97                # ... by about two percent


def _r2_exp_gauss_form(alpha, beta, lam):
    """B(f, h) on Euclidean R^2 for f = e^{-r}, h = e^{-r^2}, by quadrature
    independent of the library.  With x = r sigma and y = s tau the angular
    integral of |x - y|^л is

        K(r, s) = (2 pi)^2 M^л 2F1(-л/2, -л/2; 1; t^2),  M = max, t = min/M,

    and B = int int F(r) H(s) r^{alpha+1} s^{beta+1} K dr ds, split at
    r = s: s = t r on one side, r = t s on the other, t in [0, 1]."""
    def quad(fn, a, b):
        return sciint.quad(fn, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    def kernel(t):
        return sp.hyp2f1(-lam / 2.0, -lam / 2.0, 1.0, t * t)

    m = alpha + beta + lam + 3.0
    outer = quad(lambda t: kernel(t) * t ** (beta + 1.0) * quad(
        lambda r: math.exp(-r - (t * r) ** 2) * r ** m, 0.0, math.inf),
        0.0, 1.0)
    inner = quad(lambda t: kernel(t) * t ** (alpha + 1.0) * quad(
        lambda s: math.exp(-t * s - s * s) * s ** m, 0.0, math.inf), 0.0, 1.0)
    return (2.0 * math.pi) ** 2 * (outer + inner)


def _r2_exp_gauss_ratio(alpha, beta, lam, p, q_prime):
    """B(f, h) / (||f||_{q'} ||h||_p) for the form above."""
    nf = (2.0 * math.pi / q_prime ** 2) ** (1.0 / q_prime)
    nh = (math.pi / p) ** (1.0 / p)
    return _r2_exp_gauss_form(alpha, beta, lam) / (nf * nh)


# finding 3's two rows (balanced л at p = 0.7, q' = 0.5, beta = 1), and
# л = 1.5 as at the H^1 calibration point
R2_CALIBRATION_POINTS = [(0.0, balanced_lambda(2.0, 0.7, 0.5, 0.0, 1.0)),
                         (0.5, balanced_lambda(2.0, 0.7, 0.5, 0.5, 1.0)),
                         (0.5, 1.5)]


@pytest.mark.parametrize("alpha,lam", R2_CALIBRATION_POINTS)
def test_stein_weiss_quadruples_calibrated_on_r2(plane_norm, z_gate,
                                                 alpha, lam):
    """On Euclidean R^2 every sample is a quarter-turn quadruple.  Over 24
    seeds at beta = 1, f = e^{-r}, h = e^{-r^2}, the z-scores of B against
    the quadrature reference pass the calibration gate."""
    ref = _r2_exp_gauss_form(alpha, 1.0, lam)
    f, h = make_profile("exp_decay", [1.0]), make_profile("gaussian", [1.0])
    z_gate([(res.value - ref) / res.stderr for res in (
        stein_weiss_form(f, h, alpha, 1.0, lam, plane_norm,
                         QuadratureSpec(sample_count=20000, seed=seed))
        for seed in range(1, 25))])


def test_stein_weiss_unbiased_under_a_gauge_the_turn_moves(plane, z_gate):
    """The gauge sqrt(x1^2 + 4 x2^2) on R^2, whose unit ball is an ellipse
    of area pi/2 (|S| = pi), gives |Jy| != |y| for the quarter turn J, so
    b = w h(|y|) |y|^beta does not carry over to Jy.  x2 -> 2 x2 maps it to
    the Euclidean gauge, so its B is the Euclidean B / 4 exactly; over 24
    seeds the estimate is unbiased against that reference."""
    ellipse = QuasiNorm("ellipse", plane,
                        lambda x: np.sqrt(x[..., 0] ** 2 + 4.0 * x[..., 1] ** 2),
                        math.pi)
    ref = _r2_exp_gauss_form(0.5, 1.0, 1.5) / 4.0
    f, h = make_profile("exp_decay", [1.0]), make_profile("gaussian", [1.0])
    z_gate([(res.value - ref) / res.stderr for res in (
        stein_weiss_form(f, h, 0.5, 1.0, 1.5, ellipse,
                         QuadratureSpec(sample_count=20000, seed=seed))
        for seed in range(1, 25))])


@pytest.mark.parametrize("alpha,expected", [(0.0, 0.0202232),
                                            (0.5, 0.0183797)])
def test_improved_a_violated_at_weighted_sweep_rows(plane, plane_norm, alpha,
                                                    expected):
    """README finding 3: the two improved_a rows of the digest case
    sweep_reverse_stein_weiss_weighted (R^2, p=0.7, q'=0.5, beta=1,
    balanced л, e^{-r} x e^{-r^2}, seed 18) read violated, and the
    quadrature reference agrees."""
    P = InequalityParams(Q=2.0, p=0.7, q_prime=0.5,
                         lam=balanced_lambda(2.0, 0.7, 0.5, alpha, 1.0),
                         alpha=alpha, beta=1.0, variant="improved_a")
    assert validate_params(P).admissible
    ref = _r2_exp_gauss_ratio(alpha, 1.0, P.lam, P.p, P.q_prime)
    assert ref == pytest.approx(expected, rel=1e-5)
    rep = verify_stein_weiss(make_profile("exp_decay", [1.0]),
                             make_profile("gaussian", [1.0]), P, plane,
                             plane_norm,
                             QuadratureSpec(sample_count=20000, seed=18))
    assert abs(rep.ratio - ref) < 4.0 * rep.stderr
    assert ref < rep.analytic_constant
    assert rep.margin < -3.0 * rep.stderr and not rep.passed


def test_improved_a_collapses_under_separated_dilations(line, line_norm):
    """README finding 3's mechanism on R^1 (improved_a, p=0.7, q'=0.3,
    alpha=0, beta=2): with f = e^{-r/R} and h = e^{-Rr}, scale ratio R^2,
    B tends to int f |x|^{alpha+л} int h |y|^beta, and ratio/C falls like
    (R^2)^{-(beta + Q/p')}.  The reference integrates the exponentials'
    radial product in closed form (s = t r on one side of r = s, r = t s
    on the other):

        B = 2 Gamma(m+1) int_0^1 k(t) (t^beta (1/R + R t)^{-m-1}
                                       + t^alpha (t/R + R)^{-m-1}) dt,

    k(t) = (1 - t)^л + (1 + t)^л, m = alpha + beta + л + 1."""
    alpha, beta, p, qp = 0.0, 2.0, 0.7, 0.3
    P = InequalityParams(Q=1.0, p=p, q_prime=qp,
                         lam=balanced_lambda(1.0, p, qp, alpha, beta),
                         alpha=alpha, beta=beta, variant="improved_a")
    assert validate_params(P).admissible
    lam, m = P.lam, alpha + beta + P.lam + 1.0
    C = stein_weiss_lower_constant(P, 2.0)
    exponent = beta + P.Q / P.p_prime
    assert exponent == pytest.approx(11.0 / 7.0, rel=1e-12)

    def reference(R):
        def quad(fn):
            return sciint.quad(fn, 0.0, 1.0, epsabs=0.0, epsrel=1e-12,
                               limit=200)[0]

        def k(t):
            return (1.0 - t) ** lam + (1.0 + t) ** lam
        B = 2.0 * math.gamma(m + 1.0) * (
            quad(lambda t: t ** beta * k(t) * (1 / R + R * t) ** (-m - 1.0))
            + quad(lambda t: t ** alpha * k(t) * (t / R + R) ** (-m - 1.0)))
        nf = (2.0 * R / qp) ** (1.0 / qp)
        nh = (2.0 / (R * p)) ** (1.0 / p)
        return B / (nf * nh) / C

    scale_ratios = (1.0, 9.0, 100.0, 900.0)
    ref = [reference(math.sqrt(s)) for s in scale_ratios]
    for got, want in zip(ref, (0.134, 1.81e-3, 3.89e-5, 1.23e-6)):
        assert got == pytest.approx(want, rel=3e-3)
    local = [math.log(ref[i] / ref[i + 1])
             / math.log(scale_ratios[i + 1] / scale_ratios[i])
             for i in range(1, 3)]
    assert abs(local[0] - exponent) < 0.03
    assert abs(local[1] - exponent) < 0.002
    e = make_profile("exp_decay", [1.0])
    spec = QuadratureSpec(sample_count=20000, seed=3)
    for s, want in zip(scale_ratios[:3], ref):
        R = math.sqrt(s)
        rep = verify_stein_weiss(e.dilated(1.0 / R), e.dilated(R), P, line,
                                 line_norm, spec)
        assert abs(rep.ratio / C - want) < 4.0 * rep.stderr / C
        assert rep.margin < -3.0 * rep.stderr and not rep.passed


def _separated_exp_B(R, alpha, beta, lam):
    """B on R^1 for f = e^{-r/R}, h = e^{-Rr} with the exponentials' radial
    product in closed form, as in the finding-3 test above."""
    m = alpha + beta + lam + 1.0

    def quad(fn):
        return sciint.quad(fn, 0.0, 1.0, epsabs=0.0, epsrel=1e-12,
                           limit=200)[0]

    def k(t):
        return (1.0 - t) ** lam + (1.0 + t) ** lam
    return 2.0 * math.gamma(m + 1.0) * (
        quad(lambda t: t ** beta * k(t) * (1 / R + R * t) ** (-m - 1.0))
        + quad(lambda t: t ** alpha * k(t) * (t / R + R) ** (-m - 1.0)))


@pytest.mark.parametrize("scale_ratio", [1.0, 9.0, 100.0])
def test_r1_bilinear_fixture_at_separated_scales(r1_bilinear, scale_ratio):
    """The R^1 reference of the calibration tests and criterion 8 agrees
    with the closed-form product at finding 3's point.  At scale ratio 100
    (f = e^{-r/10}, h = e^{-10r}) a nested quad of the whole kernel up to
    r = 200 missed 0.8% of B; split into control means and a remainder it
    agrees to 1e-12."""
    alpha, beta, p, qp = 0.0, 2.0, 0.7, 0.3
    lam = balanced_lambda(1.0, p, qp, alpha, beta)
    R = math.sqrt(scale_ratio)
    e = make_profile("exp_decay", [1.0])
    B, nf, nh = r1_bilinear(e.dilated(1.0 / R), e.dilated(R), alpha, beta,
                            lam, p, qp)
    assert B == pytest.approx(_separated_exp_B(R, alpha, beta, lam),
                              rel=1e-12)
    assert nf == pytest.approx((2.0 * R / qp) ** (1.0 / qp), rel=1e-12)
    assert nh == pytest.approx((2.0 / (R * p)) ** (1.0 / p), rel=1e-12)


# ---------------------------------------------------------------------------
# reverse integral Hardy pair
# ---------------------------------------------------------------------------

def test_integral_hardy_certified_side_worked_example(h1, koranyi, expp):
    """Ball variant with the worked weights: kappa*A*(int f^p U)^{1/p} = 256
    independently of |S|; the outer integral is structurally divergent and
    the report says so instead of passing."""
    spec = QuadratureSpec(sample_count=30000, seed=2)
    rep = verify_reverse_integral_hardy(
        "ball", -6.0, -1.0, expp, 0.5, -1.0, h1, koranyi, spec)
    assert rep.analytic_constant * rep.rhs == pytest.approx(256.0, rel=1e-6)
    assert rep.extras["kappa"] == pytest.approx(0.25)
    assert rep.degenerate is not None and "origin" in rep.degenerate
    assert rep.lhs == 0.0
    assert not rep.passed


def test_integral_hardy_inner_regime_A_is_analytic_A1(h1, koranyi, expp):
    """At the inner regime's weights the integral Hardy verifier and A1
    compute the same lemma constant, bit for bit."""
    P = WORKED
    spec = QuadratureSpec(sample_count=5000, seed=2)
    rep = verify_reverse_integral_hardy(
        "ball", (P.alpha + P.lam) * P.q, -P.beta * P.p, expp, P.p, P.q,
        h1, koranyi, spec)
    assert rep.extras["A"] == analytic_A1(P, rep.sphere)


def test_integral_hardy_complement_constant(h1, koranyi, expp):
    spec = QuadratureSpec(sample_count=30000, seed=2)
    rep = verify_reverse_integral_hardy(
        "complement", -1.0, -3.5, expp, 0.5, -1.0, h1, koranyi, spec)
    S = rep.sphere
    assert rep.extras["A"] == pytest.approx(9.0 / S ** 2, rel=1e-12)
    assert rep.degenerate is not None
    assert not rep.passed


def test_stein_weiss_rejects_params_for_another_group(plane, plane_norm,
                                                     mc_spec, expp):
    """WORKED is admissible at Q = 4, so on R^2 (Q = 2) it is refused
    before any form is estimated."""
    with pytest.raises(ParameterError, match="params.Q does not match"):
        verify_stein_weiss(expp, expp, WORKED, plane, plane_norm, mc_spec)


def test_verifiers_reject_a_gauge_on_another_group(koranyi, line, expp,
                                                  mc_spec):
    """The H1 Koranyi gauge has H1's law and |S| = 2 pi^2: on R^3 with
    weights (1, 1, 2) or on R^1 it would mix two groups, so each entry
    point that takes a group beside a gauge refuses it (exit 2): the
    verifiers, both |S| lookups, and the search, whose verifier raises at
    its first evaluation.  Two abelian groups built apart are one group."""
    r3 = abelian_group((1.0, 1.0, 2.0))
    with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
        verify_stein_weiss(expp, expp, WORKED, r3, koranyi, mc_spec)
    with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
        verify_reverse_hardy(expp, 0.5, line, koranyi, mc_spec)
    with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
        verify_reverse_integral_hardy("ball", -2.0, 0.0, expp, 0.5, -1.0,
                                      line, koranyi, mc_spec)
    with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
        sphere_measure(r3, koranyi, mc_spec)
    with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
        sphere_measure_direct(r3, koranyi)
    search = SearchSpec(method="grid", budget=2)
    for name, P, family in [("reverse_hardy", InequalityParams(Q=4, p=0.5),
                             "gaussian"),
                            ("reverse_stein_weiss", WORKED, "exp_decay")]:
        with pytest.raises(ParameterError, match="gauge 'koranyi' is on"):
            estimate_best_constant(name, P, family, search, r3, koranyi,
                                   mc_spec)
    plane = abelian_group((1.0, 1.0))
    gauge = euclidean_norm(abelian_group((1.0, 1.0)))
    assert verify_reverse_hardy(expp, 0.5, plane, gauge, mc_spec).passed
    assert sphere_measure(plane, gauge, mc_spec) == gauge.sphere
    assert sphere_measure_direct(plane, gauge) == pytest.approx(gauge.sphere)
    P = InequalityParams(Q=2.0, p=0.8, q_prime=0.8,
                         lam=balanced_lambda(2.0, 0.8, 0.8, 0.0, 0.0))
    assert verify_reverse_hls(expp, expp, P, plane, gauge, mc_spec).passed


def test_reverse_hls_near_critical_power_tail_on_h1(h1, cygan):
    """f = (1+r)^{-6.3} and a Gaussian h on H1/Cygan at p = q' = 0.8
    (lambda = 2, tail margin 0.3): over seeds 1-20 at 40000 samples B read
    22.4011 with a standard deviation of 0.0037, its median stderr.  Each
    seed gives a positive ratio that passes, B within 4 stderr of that
    mean, and the seeds agree pairwise within 4 sigma."""
    f, h = make_profile("power_decay", [6.3, 1.0]), make_profile("gaussian",
                                                                  [1.0])
    P = InequalityParams(Q=4.0, p=0.8, q_prime=0.8,
                         lam=balanced_lambda(4.0, 0.8, 0.8, 0.0, 0.0))
    reps = [verify_reverse_hls(f, h, P, h1, cygan,
                               QuadratureSpec(sample_count=40000, seed=seed))
            for seed in range(1, 4)]
    for rep in reps:
        assert math.isfinite(rep.ratio) and rep.ratio > 0 and rep.passed
        assert abs(rep.lhs - 22.4011) < 4.0 * rep.lhs_stderr, rep.lhs
    for a, b in itertools.combinations(reps, 2):
        assert abs(a.ratio - b.ratio) < 4.0 * math.hypot(a.stderr, b.stderr)


def test_integral_hardy_ball_trivial_for_a_profile_singular_at_origin(
        line, line_norm, mc_spec):
    """f = r^{-1.2} e^{-r} on R^1 is not integrable at the origin, so every
    inner ball integral is +inf and the left side is 0^{1/q} = +inf."""
    f = RadialProfile(
        value=lambda r: r ** -1.2 * np.exp(-r),
        envelope=DecayEnvelope("exp", boost=-1.2),
        derivative=lambda r: -(1.2 / r + 1.0) * r ** -1.2 * np.exp(-r),
        derivative_envelope=DecayEnvelope("exp", boost=-2.2))
    rep = verify_reverse_integral_hardy(
        "ball", -2.0, 0.0, f, 0.5, -1.0, line, line_norm, mc_spec)
    assert rep.lhs == math.inf
    assert "not integrable at the origin" in rep.degenerate
    assert math.isfinite(rep.rhs) and rep.rhs > 0


def test_integral_hardy_ball_exponent_counts_the_profile_boost(
        line, line_norm, mc_spec):
    """f = r^{1/2} e^{-r} on R^1: the inner ball integral grows like
    r^{3/2}, so at w = -2 and q = -1 the outer integrand is ~ r^{-3.5}
    near 0, not the r^{-3} of a profile positive at the origin."""
    f = RadialProfile(
        value=lambda r: np.sqrt(r) * np.exp(-r),
        envelope=DecayEnvelope("exp", boost=0.5),
        derivative=lambda r: (0.5 / np.sqrt(r) - np.sqrt(r)) * np.exp(-r),
        derivative_envelope=DecayEnvelope("exp", boost=-0.5))
    rep = verify_reverse_integral_hardy(
        "ball", -2.0, 0.0, f, 0.5, -1.0, line, line_norm, mc_spec)
    assert "(local exponent -3.5 <= -1)" in rep.degenerate
    assert rep.lhs == 0.0


def test_integral_hardy_complement_profile_tail_vanishes(line, line_norm,
                                                         mc_spec):
    """A uniform envelope of scale 3 declares the profile 0 beyond r = 3,
    so it is not strictly positive, which the lemma needs (0^q = +inf for
    q < 0): the verifier rejects it before reading the value e^{-r}."""
    f = RadialProfile(
        value=lambda r: np.exp(-r), envelope=DecayEnvelope("uniform", 3.0),
        derivative=lambda r: -np.exp(-r),
        derivative_envelope=DecayEnvelope("uniform", 3.0))
    assert f.support_radius == 3.0
    with pytest.raises(DegenerateInputError, match="strictly positive"):
        verify_reverse_integral_hardy(
            "complement", -0.5, -0.75, f, 0.5, -1.0, line, line_norm, mc_spec)


def test_integral_hardy_scaling_in_f(h1, koranyi, expp):
    """Both sides are homogeneous of degree one in f: scaling the profile
    leaves the certified right side's ratio structure unchanged."""
    from dataclasses import replace
    spec = QuadratureSpec(sample_count=20000, seed=2)
    rep1 = verify_reverse_integral_hardy(
        "ball", -6.0, -1.0, expp, 0.5, -1.0, h1, koranyi, spec)
    scaled = replace(expp, value=lambda r: 3.0 * np.exp(-np.asarray(r, float)))
    rep3 = verify_reverse_integral_hardy(
        "ball", -6.0, -1.0, scaled, 0.5, -1.0, h1, koranyi, spec)
    assert rep3.rhs == pytest.approx(3.0 * rep1.rhs, rel=1e-10)


def test_integral_hardy_parameter_errors(h1, koranyi, expp, mc_spec):
    with pytest.raises(ParameterError):
        verify_reverse_integral_hardy("ball", -6.0, -1.0, expp, 0.5, 1.0,
                                      h1, koranyi, mc_spec)
    with pytest.raises(ParameterError):
        verify_reverse_integral_hardy("ball", 2.0, -1.0, expp, 0.5, -1.0,
                                      h1, koranyi, mc_spec)
    # unbalanced exponents: the scale power does not vanish
    with pytest.raises(ParameterError):
        verify_reverse_integral_hardy("ball", -6.0, -0.5, expp, 0.5, -1.0,
                                      h1, koranyi, mc_spec)
    bump = make_profile("smooth_bump", [1.0])
    with pytest.raises(DegenerateInputError):
        verify_reverse_integral_hardy("ball", -6.0, -1.0, bump, 0.5, -1.0,
                                      h1, koranyi, mc_spec)


def test_integral_hardy_weight_exponents_must_be_finite(h1, koranyi, expp,
                                                        mc_spec):
    """The weight exponents are read from outside input, so the verifier
    rejects a non-finite one as a parameter error."""
    with pytest.raises(ParameterError, match="finite"):
        verify_reverse_integral_hardy("ball", math.inf, -1.0, expp, 0.5, -1.0,
                                      h1, koranyi, mc_spec)
    with pytest.raises(ParameterError, match="finite"):
        verify_reverse_integral_hardy("ball", -6.0, math.nan, expp, 0.5, -1.0,
                                      h1, koranyi, mc_spec)


def test_integral_hardy_complement_power_not_integrable(h1, koranyi, mc_spec):
    """(1+r)^{-3} is not integrable on H1 (Q = 4), so every complement inner
    integral is +inf and the left side is 0^{1/q} = +inf: trivially true."""
    rep = verify_reverse_integral_hardy(
        "complement", -2.0, -3.0, make_profile("power_decay", [3.0, 1.0]),
        0.5, -1.0, h1, koranyi, mc_spec)
    assert "not integrable" in rep.degenerate
    assert rep.lhs == math.inf
    assert "lhs_truncated" not in rep.extras
    assert not rep.passed


def test_integral_hardy_complement_power_diverges_at_infinity(h1, koranyi,
                                                              mc_spec):
    """The complement inner integral of (1+r)^{-8} decays like r^{-4}, so the
    outer integrand r^{4 - 2 + 3} grows and the left side degenerates to 0,
    while the windowed left side stays finite."""
    rep = verify_reverse_integral_hardy(
        "complement", -2.0, -3.0, make_profile("power_decay", [8.0, 1.0]),
        0.5, -1.0, h1, koranyi, mc_spec)
    assert "diverges at infinity" in rep.degenerate
    assert rep.lhs == 0.0
    assert 0.0 < rep.extras["lhs_truncated"] < math.inf
    assert not rep.passed


# ---------------------------------------------------------------------------
# forward cross-checks
# ---------------------------------------------------------------------------

def test_forward_hardy_bump(h1, koranyi, mc_spec):
    bump = make_profile("smooth_bump", [2.0])
    rep = verify_forward_hardy(bump, 2.0, h1, koranyi, mc_spec)
    assert rep.direction == "upper"
    assert rep.ratio <= rep.analytic_constant
    assert rep.passed


def test_forward_sobolev_bump(h1, koranyi, mc_spec):
    bump = make_profile("smooth_bump", [2.0])
    rep = verify_forward_sobolev(bump, 2.0, h1, koranyi, mc_spec)
    assert rep.passed


def test_forward_ckn_reduces_to_hardy(h1, koranyi, mc_spec):
    bump = make_profile("smooth_bump", [2.0])
    ckn = verify_forward_ckn(bump, 2.0, 0.0, 1.0, h1, koranyi, mc_spec)
    hardy = verify_forward_hardy(bump, 2.0, h1, koranyi, mc_spec)
    assert ckn.ratio == pytest.approx(hardy.ratio, rel=1e-10)


@pytest.mark.parametrize("s", [0.5, 3.0])
def test_forward_ratios_of_dilated_bump(h1, koranyi, mc_spec, s):
    """smooth_bump(R) o D_s is supported on |x| < R/s, and its uniform
    envelope ends there too.  The forward Hardy and Sobolev ratios are
    invariant under dilation, so the dilated bump gives the same ratios."""
    bump = make_profile("smooth_bump", [2.0])
    dilated = bump.dilated(s)
    assert dilated.support_radius == 2.0 / s
    assert dilated.envelope.r_max(4.0) == 2.0 / s
    for verify in (verify_forward_hardy, verify_forward_sobolev):
        assert verify(dilated, 2.0, h1, koranyi, mc_spec).ratio == \
            pytest.approx(verify(bump, 2.0, h1, koranyi, mc_spec).ratio,
                          rel=1e-9)


def test_forward_hardy_sharpness_probe(h1, koranyi, mc_spec):
    """Along (1+r)^{-s} the ratio climbs to the sharp constant as s drops
    to (Q-p)/p; Beta-function oracle for Q=4, p=2."""
    for s in (1.5, 1.1):
        f = make_profile("power_decay", [s, 1.0])
        rep = verify_forward_hardy(f, 2.0, h1, koranyi, mc_spec)
        oracle = math.sqrt((4 * s * s + 2 * s) / (6 * s * s))
        assert rep.ratio == pytest.approx(oracle, rel=1e-4)
        assert rep.passed
    assert rep.ratio >= 0.9 * rep.analytic_constant


def test_forward_range_errors(h1, koranyi, mc_spec):
    bump = make_profile("smooth_bump", [2.0])
    with pytest.raises(ParameterError):
        verify_forward_hardy(bump, 5.0, h1, koranyi, mc_spec)   # p >= Q
    with pytest.raises(ParameterError):
        verify_forward_sobolev(bump, 0.5, h1, koranyi, mc_spec)
    with pytest.raises(ParameterError):
        verify_forward_ckn(bump, 0.5, 0.0, 1.0, h1, koranyi, mc_spec)


@pytest.mark.parametrize("verify", [
    lambda f, *run: verify_reverse_hardy(f, 0.5, *run),
    lambda f, *run: verify_reverse_sobolev(f, 0.5, *run),
    lambda f, *run: verify_reverse_ckn(f, 0.5, 1.0, 1.0, *run),
    lambda f, *run: verify_forward_hardy(f, 2.0, *run),
    lambda f, *run: verify_forward_sobolev(f, 2.0, *run),
    lambda f, *run: verify_forward_ckn(f, 2.0, 0.5, 0.5, *run),
], ids=["reverse_hardy", "reverse_sobolev", "reverse_ckn", "forward_hardy",
        "forward_sobolev", "forward_ckn"])
def test_flat_profile_is_degenerate(verify, h1, koranyi, mc_spec):
    """F = 1 on [0, 2] has F' = 0, so every right side has a zero integral:
    the ratio is undefined, for the CKN pair as well."""
    flat = RadialProfile(
        value=lambda r: np.ones_like(np.asarray(r, float)),
        derivative=lambda r: np.zeros_like(np.asarray(r, float)),
        envelope=DecayEnvelope("uniform", scale=2.0),
        derivative_envelope=DecayEnvelope("uniform", scale=2.0))
    with pytest.raises(DegenerateInputError):
        verify(flat, h1, koranyi, mc_spec)


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_pass_recomputed(h1, koranyi, mc_spec, expp):
    rep = verify_reverse_hardy(expp, 0.5, h1, koranyi, mc_spec)
    assert rep.passed
    rep.analytic_constant = rep.ratio + 1.0   # force a failing margin
    assert not rep.passed
    d = rep.as_dict()
    assert d["pass"] is False and d["margin"] < 0
