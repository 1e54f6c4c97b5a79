import numpy as np
import pytest
from scipy import special as sp

from revineq import (EstimationError, InequalityParams, ParameterError,
                     QuadratureSpec, SearchSpec, balanced_lambda,
                     estimate_best_constant, make_profile)


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


def test_bilinear_estimate_pair(plane, plane_norm, quad):
    lam = balanced_lambda(2.0, 0.5, 0.5)
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5, lam=lam)
    rec = estimate_best_constant(
        "reverse_hls", P, ("exp_decay", "gaussian"),
        SearchSpec(method="grid", budget=9, seed=0), plane, plane_norm, quad)
    assert rec.min_ratio >= rec.analytic_constant
    assert len(rec.argmin) == 2


def test_bilinear_estimate_needs_two_families(plane, plane_norm, quad):
    P = InequalityParams(Q=2, p=0.5, q_prime=0.5,
                         lam=balanced_lambda(2.0, 0.5, 0.5))
    with pytest.raises(ParameterError):
        estimate_best_constant("reverse_hls", P, "exp_decay",
                               SearchSpec(budget=4), plane, plane_norm, quad)


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
