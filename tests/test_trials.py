import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from revineq import (FAMILIES, DegenerateInputError, DivergenceError,
                     EstimationError, InequalityParams, ParameterError,
                     QuadratureSpec, SearchSpec, TrialFamily,
                     balanced_lambda, estimate_best_constant,
                     integrate_radial_err, make_profile, weighted_p_integral)
from revineq.operators import CLOSED_FORM_RTOL


def test_families_build_expected_profiles():
    f = make_profile("exp_decay", [1.0])
    r = np.array([0.0, 1.0, 3.0])
    assert np.allclose(f(r), np.exp(-r))
    assert np.allclose(f.deriv(r), -np.exp(-r))

    g = make_profile("power_decay", [6.0, 1.0])
    assert np.allclose(g(r), (1 + r) ** -6.0)

    b = make_profile("smooth_bump", [2.0])
    assert b(np.array([2.0]))[0] == 0.0
    assert b(np.array([2.5]))[0] == 0.0
    assert b(np.array([0.0]))[0] == pytest.approx(1.0)


def test_monotone_families_decrease():
    r = np.geomspace(1e-3, 5.0, 1000)
    for tag, params in [("exp_decay", [0.7]), ("gaussian", [2.0]),
                        ("power_decay", [4.0, 0.5]), ("smooth_bump", [6.0])]:
        prof = make_profile(tag, params)
        prof.check_decreasing()
        assert np.all(prof.deriv(r) <= 1e-12)


def test_make_profile_box_enforced():
    with pytest.raises(ParameterError):
        make_profile("exp_decay", [1000.0])
    with pytest.raises(ParameterError):
        make_profile("exp_decay", [1.0, 2.0])


def test_search_spec_validation():
    with pytest.raises(ParameterError):
        SearchSpec(method="annealing")
    with pytest.raises(ParameterError):
        SearchSpec(budget=0)


@pytest.fixture(scope="module")
def quad():
    return QuadratureSpec(sample_count=15000, seed=31)


def test_hardy_estimate_flat_in_scale(h1, koranyi, quad):
    """The Hardy ratio is dilation invariant, so the exp family is flat and
    the estimate equals the Gamma-oracle value."""
    P = InequalityParams(Q=4, p=0.5)
    rec = estimate_best_constant(
        "reverse_hardy", P, "exp_decay",
        SearchSpec(method="nelder_mead", budget=40, restarts=2, seed=9),
        h1, koranyi, quad)
    oracle = 0.5 * (sp.gamma(3.5) / sp.gamma(4.0)) ** 2
    assert rec.min_ratio == pytest.approx(oracle, rel=1e-6)
    assert rec.min_ratio >= rec.analytic_constant


def test_sobolev_estimate_above_constant(h1, koranyi, quad):
    P = InequalityParams(Q=4, p=0.5)
    rec = estimate_best_constant(
        "reverse_sobolev", P, "exp_decay",
        SearchSpec(method="grid", budget=12, seed=1), h1, koranyi, quad)
    assert rec.min_ratio == pytest.approx(0.13304054018457206, rel=1e-6)
    assert rec.min_ratio >= 0.125


def test_minimum_is_bookkept_from_trace(h1, koranyi, quad):
    P = InequalityParams(Q=4, p=0.5)
    rec = estimate_best_constant(
        "reverse_hardy", P, "power_decay",
        SearchSpec(method="grid", budget=25, seed=1), h1, koranyi, quad)
    finite = [v for _, v in rec.trace if np.isfinite(v)]
    assert rec.min_ratio == min(finite)
    assert rec.evaluations == len(rec.trace)
    assert rec.min_ratio <= finite[0]


def test_estimates_bit_identical_across_runs(h1, koranyi, quad):
    P = InequalityParams(Q=4, p=0.5)
    search = SearchSpec(method="nelder_mead", budget=30, restarts=3, seed=5)
    a = estimate_best_constant("reverse_hardy", P, "gaussian", search,
                               h1, koranyi, quad)
    b = estimate_best_constant("reverse_hardy", P, "gaussian", search,
                               h1, koranyi, quad)
    assert a.min_ratio == b.min_ratio
    assert a.argmin == b.argmin
    assert a.trace == b.trace


@pytest.mark.parametrize("family", ["gaussian", "power_decay"])
def test_estimate_evaluates_each_point_once(h1, cygan, quad, monkeypatch,
                                            family):
    """The simplex, clipped to the box, revisits points: the search calls
    the verifier once per distinct point, but every visit is in the trace
    and a revisited degenerate point counts again.  Each trace ratio is
    that of a fresh verifier call at its point."""
    from revineq import inequalities as ineq
    P = InequalityParams(Q=4, p=0.5)
    calls = []
    verify = ineq.verify_reverse_hardy

    def counted(f, *args):
        calls.append(f.params)
        return verify(f, *args)

    monkeypatch.setattr(ineq, "verify_reverse_hardy", counted)
    rec = estimate_best_constant(
        "reverse_hardy", P, family,
        SearchSpec(method="nelder_mead", budget=24, restarts=2, seed=5),
        h1, cygan, quad)
    points = [theta for theta, _ in rec.trace]
    assert rec.evaluations == len(points) == 24
    assert len(calls) == len(set(points)) < len(points)
    assert rec.degenerate_evaluations == \
        sum(ratio == math.inf for _, ratio in rec.trace)
    for theta, ratio in rec.trace:
        try:
            fresh = verify(make_profile(family, theta), P.p, h1, cygan,
                           quad).ratio
        except (DegenerateInputError, DivergenceError):
            fresh = math.inf
        assert fresh == ratio


def test_bilinear_estimate_pair(plane, plane_norm, quad):
    lam = balanced_lambda(2.0, 0.5, 0.5)
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5, lam=lam)
    rec = estimate_best_constant(
        "reverse_hls", P, ("exp_decay", "gaussian"),
        SearchSpec(method="grid", budget=9, seed=0), plane, plane_norm, quad)
    assert rec.min_ratio >= rec.analytic_constant
    assert len(rec.argmin) == 2


def test_bilinear_estimate_needs_two_families(plane, plane_norm, quad):
    """One family serves both profiles; two name one each, and any other
    count is rejected."""
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5,
                         lam=balanced_lambda(2.0, 0.5, 0.5))
    search = SearchSpec(method="grid", budget=4)
    one = estimate_best_constant("reverse_hls", P, "exp_decay", search,
                                 plane, plane_norm, quad)
    both = estimate_best_constant("reverse_hls", P, ("exp_decay",) * 2,
                                  search, plane, plane_norm, quad)
    assert one.trace == both.trace
    with pytest.raises(ParameterError, match="2 trial family"):
        estimate_best_constant("reverse_hls", P, ("exp_decay",) * 3, search,
                               plane, plane_norm, quad)


def test_near_critical_power_tail_counts_as_degenerate(h1, cygan):
    """On H1 at p = q' = 0.8 and lambda = 2 a power_decay f with s just
    above 6 has a tail radius beyond the float range (or a radial density
    that overflows), and the sampler raises EvaluationError.  The search
    counts those points as degenerate and goes on to a finite minimum."""
    P = InequalityParams(Q=4, p=0.8, q_prime=0.8, lam=2.0)
    near = TrialFamily("power_decay", ("s", "a"), ((6.005, 6.3), (0.5, 2.0)),
                       FAMILIES["power_decay"].builder)
    rec = estimate_best_constant(
        "reverse_hls", P, (near, "gaussian"),
        SearchSpec(method="grid", budget=8),
        h1, cygan, QuadratureSpec(sample_count=5000, seed=3))
    assert rec.evaluations == 8
    assert rec.degenerate_evaluations == 4
    assert all((ratio == math.inf) == (theta[0] == 6.005)
               for theta, ratio in rec.trace)
    assert math.isfinite(rec.min_ratio) and rec.argmin[0] == 6.3


def test_budget_never_exceeded(h1, koranyi, quad):
    P = InequalityParams(Q=4, p=0.5)
    for budget in (5, 17, 40):
        rec = estimate_best_constant(
            "reverse_hardy", P, "exp_decay",
            SearchSpec(method="nelder_mead", budget=budget, restarts=2, seed=2),
            h1, koranyi, quad)
        assert rec.evaluations <= budget


def test_enlarging_budget_never_raises_minimum(h1, koranyi, quad):
    P = InequalityParams(Q=4, p=0.5)
    minima = []
    for budget in (8, 16, 32):
        rec = estimate_best_constant(
            "reverse_sobolev", P, "power_decay",
            SearchSpec(method="grid", budget=budget, seed=3), h1, koranyi, quad)
        minima.append(rec.min_ratio)
    assert minima[0] >= minima[1] >= minima[2]


# ---------------------------------------------------------------------------
# closed-form radial L^p moments
# ---------------------------------------------------------------------------

CLOSED_FORM_PROFILES = [("exp_decay", (1.0,)), ("exp_decay", (7.3,)),
                        ("gaussian", (1.0,)), ("gaussian", (0.05,)),
                        ("power_decay", (3.1, 1.0)),
                        ("power_decay", (9.0, 1.0)),
                        ("power_decay", (40.0, 2.0))]

# (family, params, p, shift, Q, use_derivative) where the quadrature loses
# tail mass that the profile rounds to 0 before |F|^p is taken; the closed
# form is pinned there by test_power_decay_underflow_points_against_mpmath
QUADRATURE_UNDERFLOW = {
    ("power_decay", (3.1, 1.0), 0.5, -0.5, 2.0, False),
    ("power_decay", (3.1, 1.0), 0.5, 0.5, 1.0, False),    # the same integral
    ("power_decay", (3.1, 1.0), 0.5, 0.0, 2.0, True),
    ("power_decay", (9.0, 1.0), 0.3, 0.5, 2.0, False),
}


def _quadrature_twin(prof):
    """The same profile with plain callables, so that weighted_p_integral
    integrates it numerically over the same [0, R]."""
    return replace(prof, value=prof.value.fn, derivative=prof.derivative.fn)


@pytest.mark.parametrize("family, params", CLOSED_FORM_PROFILES)
def test_closed_form_moments_agree_with_quadrature(family, params):
    prof = make_profile(family, params)
    twin = _quadrature_twin(prof)
    checked = 0
    for p, shift, Q, deriv in itertools.product(
            (0.3, 0.5, 0.7, 1.5), (-0.5, 0.0, 0.5), (1.0, 2.0, 4.0),
            (False, True)):
        try:
            closed, err = weighted_p_integral(prof, p, shift, Q,
                                              use_derivative=deriv)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                weighted_p_integral(twin, p, shift, Q, use_derivative=deriv)
            continue
        quad, _ = weighted_p_integral(twin, p, shift, Q, use_derivative=deriv)
        off = abs(closed - quad) / closed
        case = (family, params, p, shift, Q, deriv)
        if case in QUADRATURE_UNDERFLOW:
            assert off > 1e-11, case
        else:
            assert off <= 1e-11, (case, closed, quad)
        assert err == CLOSED_FORM_RTOL * closed
        checked += 1
    assert checked >= 36


def _mp_power_moment(mp, s, a, p, m, R, deriv):
    """int_0^R |F|^p r^{m-1} dr for F = (1 + a r)^{-s} (or |F'|), by mpmath
    quadrature in u = ln r at 30 digits, on panels of width 8 in u."""
    with mp.workdps(30):
        s, a, p, m = (mp.mpf(v) for v in (s, a, p, m))
        k, c = (s + 1, (s * a) ** p) if deriv else (s, 1)
        top = mp.log(R)
        edges = [-mp.inf] + [mp.mpf(u) for u in range(-40, int(top), 8)]
        return mp.quad(lambda u: c * (1 + a * mp.exp(u)) ** (-k * p)
                       * mp.exp(m * u), edges + [top])


@pytest.mark.parametrize("params, p, shift, Q, deriv, expected", [
    ((3.1, 1.0), 0.5, -0.5, 2.0, False, 19.4122264717687),
    ((3.1, 1.0), 0.5, 0.0, 2.0, True, 33.5367936868397),
    ((9.0, 1.0), 0.3, 0.5, 2.0, False, 3.95083176138625),
])
def test_power_decay_underflow_points_against_mpmath(params, p, shift, Q,
                                                     deriv, expected):
    """Where (1 + a r)^{-s} underflows while |F|^p r^{m-1} still holds
    mass, the quadrature misses that mass by far more than its error bar;
    the closed form matches an independent mpmath quadrature within its
    own bar."""
    mp = pytest.importorskip("mpmath")
    prof = make_profile("power_decay", params)
    env = prof.derivative_envelope if deriv else prof.envelope
    R = env.powered(p).boosted(shift).r_max(Q)
    exact = float(_mp_power_moment(mp, *params, p, Q + shift, R, deriv))
    assert exact == pytest.approx(expected, rel=1e-14)

    closed, err = weighted_p_integral(prof, p, shift, Q, use_derivative=deriv)
    assert abs(closed - exact) <= err
    quad, quad_err = weighted_p_integral(_quadrature_twin(prof), p, shift, Q,
                                         use_derivative=deriv)
    assert abs(quad - exact) > 100.0 * quad_err


def test_closed_form_moments_at_infinite_and_small_radius():
    p, m = 0.5, 3.0
    exp = make_profile("exp_decay", [2.0])
    assert exp.value.moment(p, m, math.inf) == pytest.approx(
        sp.gamma(m) / (p * 2.0) ** m, rel=1e-14)
    assert exp.derivative.moment(p, m, math.inf) == pytest.approx(
        2.0 ** p * sp.gamma(m) / (p * 2.0) ** m, rel=1e-14)
    gauss = make_profile("gaussian", [2.0])
    assert gauss.value.moment(p, m, math.inf) == pytest.approx(
        sp.gamma(m / 2) / (2.0 * (p * 2.0) ** (m / 2)), rel=1e-14)
    s, a = 9.0, 2.0
    power = make_profile("power_decay", [s, a])
    assert power.value.moment(p, m, math.inf) == pytest.approx(
        sp.beta(m, p * s - m) / a ** m, rel=1e-14)
    assert power.derivative.moment(p, m, math.inf) == pytest.approx(
        (s * a) ** p * sp.beta(m, p * (s + 1) - m) / a ** m, rel=1e-14)
    for R in (0.1, 50.0):
        for fn in (power.value, power.derivative):
            quad, _ = integrate_radial_err(lambda r: np.abs(fn(r)) ** p, m,
                                           0.0, R)
            assert fn.moment(p, m, R) == pytest.approx(quad, rel=1e-12)
