import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy import special as sp

from revineq import (DecayEnvelope, DegenerateInputError, DivergenceError,
                     EvaluationError, ParameterError, QuadratureSpec,
                     QuasiNorm, RadialProfile, abelian_group,
                     anisotropic_gauge, balanced_lambda, conjugate_exponent,
                     cygan_norm, euclidean_norm, heisenberg_group,
                     kernel_bound_report, koranyi_norm, lp_functional,
                     make_profile, reverse_holder_gap, sphere_measure,
                     stein_weiss_form, weighted_p_integral)
from revineq.operators import CLOSED_FORM_RTOL, ClosedForm


@pytest.fixture(scope="module")
def expp():
    return make_profile("exp_decay", [1.0])


@pytest.fixture(scope="module")
def box_profile():
    return RadialProfile(
        value=lambda r: (np.asarray(r, float) <= 1.0).astype(float),
        envelope=DecayEnvelope("uniform", scale=1.0),
        derivative=lambda r: np.zeros_like(np.asarray(r, float)),
        derivative_envelope=DecayEnvelope("uniform", scale=1.0),
        family_tag="indicator", support_radius=1.0)


# ---------------------------------------------------------------------------
# L^p functionals
# ---------------------------------------------------------------------------

def test_lp_interval_measure(line, line_norm, mc_spec, box_profile):
    # constant 1 on [0,1] with p=1 on the line: total measure 2
    val, _ = lp_functional(box_profile, 1.0, line_norm)
    assert sphere_measure(line, line_norm, mc_spec) == 2.0
    assert val == pytest.approx(2.0, rel=1e-12)


def test_lp_exp_plane(plane, plane_norm, mc_spec, expp):
    val, _ = lp_functional(expp, 1.0, plane_norm)
    S = sphere_measure(plane, plane_norm, mc_spec)
    # Gamma(2) = 1 up to the declared 1e-8 envelope tail mass
    assert val == pytest.approx(S, rel=1e-7)


def test_lp_half_exponent(h1, koranyi, mc_spec, expp):
    val, _ = lp_functional(expp, 0.5, koranyi)
    S = sphere_measure(h1, koranyi, mc_spec)
    assert val == pytest.approx((96.0 * S) ** 2, rel=1e-7)


def test_lp_dilation_covariance(h1, koranyi, mc_spec, expp):
    """||f o D_s||_p = s^{-Q/p} ||f||_p; exact through the scaled envelope."""
    base, _ = lp_functional(expp, 0.5, koranyi)
    for s in (0.5, 2.0):
        val, _ = lp_functional(expp.dilated(s), 0.5, koranyi)
        assert val == pytest.approx(s ** (-4.0 / 0.5) * base, rel=1e-9)


def test_lp_negative_exponent_needs_window(plane, plane_norm, mc_spec, expp):
    with pytest.raises(ParameterError):
        lp_functional(expp, -1.0, plane_norm)


def test_lp_zero_p_rejected(plane, plane_norm, mc_spec, expp):
    with pytest.raises(ParameterError):
        lp_functional(expp, 0.0, plane_norm)


def test_weighted_p_integral_memoised():
    """A repeated call reads the memo without calling the profile; p <= 0
    raises on every call; a dilated profile is a key of its own."""
    calls = []

    def value(r):
        calls.append(len(r))
        return np.exp(-np.asarray(r, float))

    prof = RadialProfile(value=value, envelope=DecayEnvelope("exp"),
                         derivative=lambda r: -np.exp(-np.asarray(r, float)),
                         derivative_envelope=DecayEnvelope("exp"))
    first = weighted_p_integral(prof, 0.5, 1.0, 3.0)
    evaluated = len(calls)
    assert evaluated > 0
    assert weighted_p_integral(prof, 0.5, 1.0, 3.0) == first
    assert len(calls) == evaluated
    for p in (0.0, -0.5, 0.0):
        with pytest.raises(ParameterError):
            weighted_p_integral(prof, p, 1.0, 3.0)
    # int F(2r)^p r^{s+Q-1} dr = 2^{-(s+Q)} int F^p r^{s+Q-1} dr
    dilated = weighted_p_integral(prof.dilated(2.0), 0.5, 1.0, 3.0)
    assert len(calls) > evaluated
    assert dilated[0] == pytest.approx(first[0] / 16.0, rel=1e-9)


@pytest.mark.parametrize("family, params", [
    ("exp_decay", [1.0]), ("gaussian", [1.0]), ("power_decay", [9.0, 1.0])])
def test_dilated_family_profile_keeps_closed_form(h1, koranyi, mc_spec,
                                                  family, params):
    """The dilated moments are s^{-m} M(p, m, sR) (times s^p for F'), so
    for s a power of 2 ||f o D_s||_p = s^{-Q/p} ||f||_p holds bit for bit."""
    prof = make_profile(family, params)
    base, _ = lp_functional(prof, 0.5, koranyi)
    for s in (0.5, 2.0):
        dil = prof.dilated(s)
        assert isinstance(dil.value, ClosedForm)
        assert isinstance(dil.derivative, ClosedForm)
        assert lp_functional(dil, 0.5, koranyi)[0] == \
            s ** (-4.0 / 0.5) * base
        d0, _ = weighted_p_integral(prof, 0.5, 0.5, 4.0, use_derivative=True)
        d1, _ = weighted_p_integral(dil, 0.5, 0.5, 4.0, use_derivative=True)
        assert d1 == s ** (0.5 - 4.5) * d0


def test_replaced_callable_falls_back_to_quadrature(clear_caches, expp):
    """A profile whose value is replaced loses the closed form of its value,
    not of its derivative; only the quadrature result is memoised."""
    from revineq import operators
    clear_caches()
    calls = []

    def value(r):
        calls.append(len(r))
        return np.exp(-np.asarray(r, float))

    plain = replace(expp, value=value)
    assert not isinstance(plain.value, ClosedForm)
    assert isinstance(plain.derivative, ClosedForm)
    quad, _ = weighted_p_integral(plain, 0.5, 0.0, 4.0)
    assert calls and operators._radial_p_integral.cache_info().currsize == 1
    closed, err = weighted_p_integral(expp, 0.5, 0.0, 4.0)
    assert closed == pytest.approx(quad, rel=1e-11)
    assert err == CLOSED_FORM_RTOL * closed
    for prof in (expp, expp.dilated(2.0), plain):
        weighted_p_integral(prof, 0.7, -0.5, 4.0, use_derivative=True)
        weighted_p_integral(prof, 0.5, 1.0, 2.0)
    # the one new entry is plain's value at (0.5, 1.0, 2.0)
    assert operators._radial_p_integral.cache_info().currsize == 2


# ---------------------------------------------------------------------------
# radial derivatives
# ---------------------------------------------------------------------------

def test_power_profile_derivative():
    prof = make_profile("power_decay", [6.0, 1.0])
    r = np.array([0.3, 1.0, 2.5])
    assert np.allclose(prof.deriv(r), -6.0 * (1 + r) ** -7.0)


# ---------------------------------------------------------------------------
# cartesian divergence
# ---------------------------------------------------------------------------

def test_integrate_cartesian_divergence_flag(line, line_norm):
    from revineq import DecayEnvelope, integrate_cartesian
    spec = QuadratureSpec(sample_count=2000, seed=1)
    with pytest.raises(DivergenceError, match="integrate_cartesian"):
        integrate_cartesian(line, lambda x: np.exp(np.abs(x[:, 0])) * 1e300,
                            spec, DecayEnvelope("exp", scale=0.5))


# ---------------------------------------------------------------------------
# weighted bilinear form
# ---------------------------------------------------------------------------

def test_stein_weiss_zero(plane, plane_norm, mc_spec):
    zeros = lambda r: np.zeros_like(np.asarray(r, float))
    zero = RadialProfile(value=zeros, envelope=DecayEnvelope("exp"),
                         derivative=zeros,
                         derivative_envelope=DecayEnvelope("exp"))
    res = stein_weiss_form(zero, zero, 0.0, 0.0, 1.0, plane, plane_norm,
                           mc_spec)
    # both control means are 0, so the plain mean stands
    assert res.value == 0.0
    assert res.stderr == res.plain_stderr == 0.0


def test_stein_weiss_box_oracle(line, line_norm, box_profile):
    """alpha=beta=0, lam=1, f=h=1_{[0,1]} on R: brute-force 2-D quadrature."""
    oracle, _ = sciint.dblquad(lambda y, x: abs(x - y), -1, 1, -1, 1,
                               epsabs=1e-12)
    spec = QuadratureSpec(sample_count=200000, seed=21)
    res = stein_weiss_form(box_profile, box_profile, 0.0, 0.0, 1.0,
                           line, line_norm, spec)
    assert oracle == pytest.approx(8.0 / 3.0, rel=1e-7)
    assert abs(res.value - oracle) <= 4 * res.stderr


def test_stein_weiss_weighted_box_oracle(line, line_norm, box_profile):
    """alpha=0.5, beta=0.25, lam=1.5 against brute-force quadrature."""
    a, b, lam = 0.5, 0.25, 1.5
    oracle, _ = sciint.dblquad(
        lambda y, x: abs(x) ** a * abs(x - y) ** lam * abs(y) ** b,
        -1, 1, -1, 1, epsabs=1e-12)
    spec = QuadratureSpec(sample_count=300000, seed=22)
    res = stein_weiss_form(box_profile, box_profile, a, b, lam,
                           line, line_norm, spec)
    assert abs(res.value - oracle) <= 4 * res.stderr


def test_stein_weiss_dilation_scaling(h1, koranyi, expp):
    """B(f o D_s, h o D_s) = s^{-(2Q + a + b + lam)} B(f, h)."""
    spec = QuadratureSpec(sample_count=50000, seed=8)
    a, b, lam, s = 1.0, 2.0, 5.0, 2.0
    base = stein_weiss_form(expp, expp, a, b, lam, h1, koranyi, spec)
    scaled = stein_weiss_form(expp.dilated(s), expp.dilated(s), a, b, lam,
                              h1, koranyi, spec)
    factor = s ** -(2 * 4.0 + a + b + lam)
    assert scaled.value == pytest.approx(factor * base.value, rel=1e-9)


def test_stein_weiss_deterministic(plane, plane_norm, expp):
    spec = QuadratureSpec(sample_count=10000, seed=4)
    r1 = stein_weiss_form(expp, expp, 0.0, 0.0, 2.0, plane, plane_norm, spec)
    r2 = stein_weiss_form(expp, expp, 0.0, 0.0, 2.0, plane, plane_norm, spec)
    assert r1.value == r2.value


def _r1_point(p, q_prime, alpha_share, beta_share, f_family, h_family):
    """A point of criterion 8's R^1 grid: alpha and beta as shares of their
    upper bounds -Q/q and -Q/p', balanced lambda, and the grid's trial
    profiles (power_decay with its steep default exponent)."""
    q, pp = conjugate_exponent(q_prime), conjugate_exponent(p)
    alpha, beta = alpha_share / -q, beta_share / -pp
    lam = balanced_lambda(1.0, p, q_prime, alpha, beta)
    s = max(1.0 / q_prime, 1.0 / p) + lam + 3.0
    params = {"exp_decay": [1.0], "gaussian": [1.0], "power_decay": [s, 1.0]}
    return (make_profile(f_family, params[f_family]),
            make_profile(h_family, params[h_family]), alpha, beta, lam,
            p, q_prime)


CALIBRATION_POINTS = [
    # README finding 2 and its mirror image
    _r1_point(0.7, 0.3, 0.0, 0.5, "exp_decay", "power_decay"),
    _r1_point(0.3, 0.7, 0.5, 0.0, "power_decay", "exp_decay"),
    _r1_point(0.5, 0.5, 0.0, 0.0, "exp_decay", "gaussian"),
    _r1_point(0.3, 0.3, 0.5, 0.5, "gaussian", "power_decay"),
    _r1_point(0.5, 0.7, 0.5, 0.0, "power_decay", "power_decay"),
]


def _assert_calibrated(z):
    z = np.asarray(z)
    assert 0.6 <= np.std(z, ddof=1) <= 1.5, z
    assert np.max(np.abs(z)) < 4.0, z


@pytest.mark.parametrize("point", CALIBRATION_POINTS,
                         ids=lambda pt: f"{pt[0].family_tag}x{pt[1].family_tag}"
                                        f"-p{pt[5]}-q'{pt[6]}")
def test_stein_weiss_stderr_calibrated_on_r1(line, line_norm, r1_bilinear,
                                            point):
    """Over 24 seeds the z-scores of B against the deterministic R^1 form
    spread as a standard normal's would: the stderr is neither too small
    nor far too large.  At lambda = 2 the estimate is exact instead: the
    antithetic pair makes each sample C1 + C2, so B is E C1 + E C2 =
    4 sqrt(pi) + 2 sqrt(pi)/2 at every seed, within its stderr, which is
    then the moments' error bar alone."""
    f, h, alpha, beta, lam, p, q_prime = point
    results = [stein_weiss_form(f, h, alpha, beta, lam, line, line_norm,
                                QuadratureSpec(sample_count=20000, seed=seed))
               for seed in range(1, 25)]
    if lam == 2.0:
        exact = 5.0 * math.sqrt(math.pi)
        for res in results:
            assert abs(res.value - exact) <= res.stderr <= 1e-10 * exact
        return
    exact = r1_bilinear(f, h, alpha, beta, lam, p, q_prime)[0]
    _assert_calibrated([(res.value - exact) / res.stderr for res in results])


@pytest.mark.parametrize("seed", [3, 29])
def test_stein_weiss_exact_at_lambda_2_on_r2(plane, plane_norm, expp, seed):
    """At lambda = 2 on Euclidean R^2 the parallelogram law gives
    |y^{-1}x|^2 + |yx|^2 = 2 |x|^2 + 2 |y|^2, so every antithetic sample is
    C1 + C2 and B = |S|^2 (M_f(alpha+2) M_h(beta) + M_f(alpha) M_h(beta+2))
    at any seed, with M_f(s) = Gamma(s+2) for e^{-r} and M_h(s) =
    Gamma(s/2+1)/2 for e^{-r^2}."""
    alpha, beta = 0.5, 1.0
    gauss = make_profile("gaussian", [1.0])
    M_f = lambda s: math.gamma(s + 2.0)
    M_h = lambda s: math.gamma(s / 2.0 + 1.0) / 2.0
    exact = (2.0 * math.pi) ** 2 * (M_f(alpha + 2.0) * M_h(beta)
                                    + M_f(alpha) * M_h(beta + 2.0))
    res = stein_weiss_form(expp, gauss, alpha, beta, 2.0, plane, plane_norm,
                           QuadratureSpec(sample_count=20000, seed=seed))
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.stderr <= 1e-10 * exact


def test_stein_weiss_stderr_calibrated_on_h1(h1, koranyi, expp):
    """The same on H^1/Koranyi, f = e^{-r}, h = e^{-r^2}, alpha = 0.5,
    beta = 1, lambda = 1.5, against 32616.489 from a tabulated radial-
    angular rule (ROADMAP item 6; m = 16 and m = 32 agree to 2e-8)."""
    gauss = make_profile("gaussian", [1.0])
    z = [(res.value - 32616.489) / res.stderr for res in (
        stein_weiss_form(expp, gauss, 0.5, 1.0, 1.5, h1, koranyi,
                         QuadratureSpec(sample_count=20000, seed=seed))
        for seed in range(1, 21))]
    _assert_calibrated(z)


def _ellipse(group):
    return QuasiNorm("ellipse", group, lambda x: np.sqrt(
        x[..., 0] ** 2 + 4.0 * x[..., 1] ** 2), math.pi)


@pytest.mark.parametrize("group,gauge,calls", [
    (abelian_group((1.0,)), euclidean_norm, 3),
    (abelian_group((1.0, 2.0)), anisotropic_gauge, 3),
    (abelian_group((1.0, 1.0)), euclidean_norm, 5),
    (abelian_group((1.0, 1.0, 1.0, 2.0)), anisotropic_gauge, 5),
    (heisenberg_group(), koranyi_norm, 5),
    (heisenberg_group(), cygan_norm, 5),
    (heisenberg_group(), anisotropic_gauge, 5),
    (abelian_group((1.0, 1.0)), _ellipse, 4)],
    ids=["R1", "R2(1,2)", "R2", "R4(1,1,1,2)", "koranyi", "cygan",
         "h1-anisotropic", "ellipse"])
def test_stein_weiss_turns_where_weights_and_gauge_allow(expp, group, gauge,
                                                         calls):
    """The form evaluates the gauge at x, at y and on the pair (y^{-1}x,
    yx).  Where the first two dilation weights are equal it evaluates the
    gauge at Jy, and where that gives |y| bit for bit on the draw, as for
    every built-in gauge, on the turned pair as well: 5 calls.  Unequal
    weights make 3 calls, and a gauge that the turn moves makes 4."""
    norm = gauge(group)
    seen = []

    def evaluate(x):
        seen.append(x.shape)
        return norm.evaluate(x)
    stein_weiss_form(expp, expp, 0.5, 1.0, 1.5, group,
                     replace(norm, evaluate=evaluate),
                     QuadratureSpec(sample_count=2000, seed=3))
    assert len(seen) == calls, seen


@pytest.mark.parametrize("gauge,exact", [("koranyi", 32616.489),
                                         ("cygan", 2073.4)])
def test_stein_weiss_quadruples_calibrated_on_h1(h1, request, z_gate, expp,
                                                 gauge, exact):
    """Every sample on H^1 is a quarter-turn quadruple.  At the point
    above, over 24 seeds the z-scores pass the calibration gate on Koranyi
    and on Cygan, whose B = 2073.4 comes from the same tabulated rule
    (m = 24 and m = 32 agree to 1.3e-5)."""
    norm = request.getfixturevalue(gauge)
    gauss = make_profile("gaussian", [1.0])
    z_gate([(res.value - exact) / res.stderr for res in (
        stein_weiss_form(expp, gauss, 0.5, 1.0, 1.5, h1, norm,
                         QuadratureSpec(sample_count=20000, seed=seed))
        for seed in range(1, 25))])


@pytest.mark.parametrize("s,exact", [(1.8, 10.399446), (2.0, 5.875315)])
def test_stein_weiss_near_critical_power_tail(line, line_norm, r1_bilinear,
                                              s, exact):
    """f = (1+r)^{-s} on R^1 with alpha = beta = 0, л = 1/2: |x|^л f decays
    like r^{-(s - 1/2)}, barely integrable, so the radial sampler's 1e-8
    tail radius lies 17 (s = 1.8) or 10 (s = 2.0) decades above f's bulk.
    A grid tied to that radius alone never drew the bulk and read E C1
    (10.0907 and 5.56833) with a stderr near 1e-11; anchored at the
    envelope's length as well, 5 seeds at 40000 samples land within 4
    stderr of the R^1 reference."""
    f, h = make_profile("power_decay", [s, 1.0]), make_profile("gaussian",
                                                                [1.0])
    ref = r1_bilinear(f, h, 0.0, 0.0, 0.5, 0.8, 0.8)[0]
    assert ref == pytest.approx(exact, rel=1e-6)
    for seed in range(1, 6):
        res = stein_weiss_form(f, h, 0.0, 0.0, 0.5, line, line_norm,
                               QuadratureSpec(sample_count=40000, seed=seed))
        assert abs(res.value - ref) < 4.0 * res.stderr, (seed, res)


def test_stein_weiss_tail_radius_beyond_float_range(h1, cygan):
    """f = (1+r)^{-6.01} on H^1 at л = 2: the x-side tail radius is beyond
    the float range, so no grid can be built up to it, and the form raises
    EvaluationError (exit 3), anchored grid or not, before numpy warns."""
    f, h = make_profile("power_decay", [6.01, 1.0]), make_profile("gaussian",
                                                                   [1.0])
    with pytest.raises(EvaluationError, match="non-finite on radial grid"):
        stein_weiss_form(f, h, 0.0, 0.0, 2.0, h1, cygan,
                         QuadratureSpec(sample_count=1000, seed=1))


def test_stein_weiss_controls_on_the_quadrature_path(line, line_norm,
                                                     r1_bilinear,
                                                     monkeypatch):
    """smooth_bump has no closed-form moments, so the control means come
    from adaptive quadrature.  The estimate agrees with the R^1 double
    integral, the controls cut the stderr, and the stderr carries the
    error of the control means: biasing every moment by 5% and reporting
    that 5% as its error moves the estimate by no more than the stderr
    grows."""
    from revineq import operators
    bump = make_profile("smooth_bump", [1.0])
    spec = QuadratureSpec(sample_count=20000, seed=5)
    args = (bump, bump, 0.5, 0.25, 1.5, line, line_norm, spec)
    base = stein_weiss_form(*args)
    exact = r1_bilinear(bump, bump, 0.5, 0.25, 1.5, 0.5, 0.5, rtol=1e-7)[0]
    assert abs(base.value - exact) <= 4.0 * base.stderr
    assert base.stderr < base.plain_stderr

    moment = operators.weighted_p_integral

    def biased(*a, **kw):
        value, _ = moment(*a, **kw)
        return 1.05 * value, 0.05 * value
    monkeypatch.setattr(operators, "weighted_p_integral", biased)
    off = stein_weiss_form(*args)
    shift = abs(off.value - base.value)
    assert shift > 3.0 * base.stderr
    assert shift <= off.stderr - base.stderr


# ---------------------------------------------------------------------------
# reverse Hoelder gap
# ---------------------------------------------------------------------------

def test_gap_discrete_random(rng):
    for _ in range(200):
        n = rng.integers(2, 60)
        f = rng.random(n) + 1e-6
        g = rng.random(n) + 1e-6
        p = rng.uniform(0.05, 0.95)
        gap = reverse_holder_gap(f, g, p)
        rhs = np.sum(f ** p) ** (1 / p) * np.sum(g ** (p / (p - 1))) ** ((p - 1) / p)
        assert gap >= -1e-8 * rhs


def test_gap_zero_f():
    gap = reverse_holder_gap(np.zeros(5), np.ones(5), 0.5)
    assert gap == 0.0


def test_gap_equality_case():
    # g proportional to f^{p-1} achieves equality
    rng = np.random.default_rng(3)
    f = rng.random(40) + 0.1
    p = 0.4
    g = 2.5 * f ** (p - 1.0)
    lhs = np.sum(f * g)
    gap = reverse_holder_gap(f, g, p)
    assert abs(gap) <= 1e-10 * lhs


def test_gap_degenerate_g():
    with pytest.raises(DegenerateInputError):
        reverse_holder_gap(np.ones(4), np.array([1.0, 0.0, 1.0, 1.0]), 0.5)


@given(p=st.floats(min_value=0.05, max_value=0.95),
       data=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e3),
                               st.floats(min_value=1e-3, max_value=1e3)),
                     min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_gap_nonnegative_property(p, data):
    f = np.array([d[0] for d in data])
    g = np.array([d[1] for d in data])
    gap = reverse_holder_gap(f, g, p)
    rhs = np.sum(f ** p) ** (1 / p) * np.sum(g ** (p / (p - 1))) ** ((p - 1) / p)
    assert gap >= -1e-9 * max(rhs, 1.0)


# ---------------------------------------------------------------------------
# kernel bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["plane_norm", "cygan"])
def test_kernel_bounds_clean(request, fixture):
    norm = request.getfixturevalue(fixture)
    rep = kernel_bound_report(norm.group, norm, 10000, seed=3)
    assert rep.inner_violations == 0 and rep.outer_violations == 0


def test_kernel_bounds_require_true_norm(h1, koranyi):
    with pytest.raises(ParameterError):
        kernel_bound_report(h1, koranyi)
