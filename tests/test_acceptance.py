"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Budgets
are desk-scale; every stochastic check runs with a pinned seed so results
are reproducible bit for bit.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate, special as sp

from revineq import (DecayEnvelope, InequalityParams, QuadratureSpec,
                     abelian_group, analytic_A1, analytic_A2,
                     balanced_lambda, bracket_kappa,
                     check_group_axioms, check_quasi_norm_axioms,
                     conjugate_exponent, cygan_norm, dilate, euclidean_norm,
                     group_inv, group_mul, heisenberg_group,
                     integrate_cartesian, integrate_radial_err,
                     kernel_bound_report, koranyi_norm, make_profile,
                     reverse_holder_gap, sphere_measure_mc, verify_forward_ckn,
                     verify_forward_hardy, verify_forward_sobolev,
                     verify_reverse_ckn, verify_reverse_hardy,
                     verify_reverse_integral_hardy, verify_reverse_sobolev,
                     verify_stein_weiss)

LINE = abelian_group((1.0,), name="abelian1")
PLANE = abelian_group((1.0, 1.0), name="abelian2")
H1 = heisenberg_group()
LINE_NORM = euclidean_norm(LINE)
PLANE_NORM = euclidean_norm(PLANE)
KORANYI = koranyi_norm(H1)
CYGAN = cygan_norm(H1)

GRID_GROUPS = [(H1, KORANYI), (LINE, LINE_NORM), (PLANE, PLANE_NORM)]
GRID_PQ = [0.3, 0.5, 0.7]
GRID_FRACTIONS = [0.0, 0.5]


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL - {label}")
        raise
    print(f"CRITERION {num}: PASS - {label}")


def _sw_grid():
    """(group, norm, params) over the admissible acceptance grid."""
    for group, norm in GRID_GROUPS:
        Q = group.homogeneous_dim
        for p, qp in itertools.product(GRID_PQ, GRID_PQ):
            q, pp = conjugate_exponent(qp), conjugate_exponent(p)
            for fa, fb in itertools.product(GRID_FRACTIONS, GRID_FRACTIONS):
                alpha, beta = fa * (-Q / q), fb * (-Q / pp)
                lam = balanced_lambda(Q, p, qp, alpha, beta)
                yield group, norm, InequalityParams(
                    Q=Q, p=p, q_prime=qp, lam=lam, alpha=alpha, beta=beta)


def _default_pairs(Q, q_prime, p, lam, alpha):
    """Default trial profiles for the bilinear grid: exponential, Gaussian
    and a power tail steep enough for all integrals with kernel growth."""
    s = max(Q / q_prime, Q / p) + lam + Q + 2.0
    singles = [make_profile("exp_decay", [1.0]),
               make_profile("gaussian", [1.0]),
               make_profile("power_decay", [s, 1.0])]
    return list(itertools.product(singles, singles))


def test_criterion_01_axioms():
    with criterion(1, "group/norm axioms, Haar invariance, dilation scaling"):
        for group in (LINE, PLANE, H1):
            rows = check_group_axioms(group, 10000, seed=41)
            assert rows["group_identity"].value <= 1e-10
            assert rows["group_inverse"].value <= 1e-10
            assert rows["group_associativity"].value <= 1e-10
            assert rows["dilation_automorphism"].value <= 1e-10

        from revineq import anisotropic_gauge
        for norm in (LINE_NORM, PLANE_NORM, KORANYI, CYGAN,
                     anisotropic_gauge(H1)):
            rows = check_quasi_norm_axioms(norm, 1000, seed=42)
            assert rows["norm_homogeneity"].value <= 1e-12
            assert rows["norm_symmetry"].value <= 1e-12
            assert rows["norm_nondegeneracy"].value == 0.0
            if norm.is_true_norm:
                assert rows["norm_triangle"].value <= 1e-12

        # Haar translation invariance and dilation scaling (stochastic)
        bump = make_profile("smooth_bump", [2.0])
        spec = QuadratureSpec(sample_count=60000, seed=43)
        env = DecayEnvelope("exp", scale=1.0)
        base = integrate_cartesian(H1, lambda x: bump(KORANYI(x)), spec, env)
        exact = 16.6565691751171   # |S| * int_0^2 bump(r) r^3 dr, radial rule
        assert abs(base.value - exact) <= 3 * base.stderr
        rng = np.random.default_rng(44)
        for _ in range(5):
            y = rng.standard_normal(3)
            shifted = integrate_cartesian(
                H1, lambda x: bump(KORANYI(group_mul(H1, group_inv(H1, y), x))),
                spec, env)
            assert abs(shifted.value - base.value) <= \
                3 * (shifted.stderr + base.stderr)
        s = 2.0
        scaled = integrate_cartesian(
            H1, lambda x: bump(KORANYI(dilate(H1, s, x))), spec,
            env.scaled(s))
        assert abs(scaled.value - s ** -4 * base.value) <= \
            3 * (scaled.stderr + s ** -4 * base.stderr)


def test_criterion_02_quadrature_oracles():
    with criterion(2, "radial Gamma oracles and sphere measure of the plane"):
        for Q in (1.0, 2.0, 4.0, 6.0):
            val = integrate_radial_err(lambda r: np.exp(-r), Q)[0]
            assert abs(val - sp.gamma(Q)) <= 1e-8 * sp.gamma(Q)
            for p in (0.3, 0.5, 0.7):
                val, _ = integrate_radial_err(
                    lambda r: np.exp(-p * r) * r ** (-p), Q)
                ref = sp.gamma(Q - p) / p ** (Q - p)
                assert abs(val - ref) <= 1e-8 * ref
        res = sphere_measure_mc(PLANE_NORM,
                                QuadratureSpec(sample_count=100000, seed=45))
        assert abs(res.value - 2 * math.pi) <= 3 * res.stderr


def test_criterion_03_reverse_hoelder_discrete():
    with criterion(3, "reverse Hoelder on 10^4 strictly positive instances"):
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(10000):
            n = int(rng.integers(2, 40))
            f = rng.random(n) + 1e-9
            g = rng.random(n) + 1e-9
            p = float(rng.uniform(0.05, 0.95))
            pp = p / (p - 1.0)
            rhs = np.sum(f ** p) ** (1 / p) * np.sum(g ** pp) ** (1 / pp)
            gap = reverse_holder_gap(f, g, p)
            worst = min(worst, gap / rhs)
        assert worst >= -1e-8


def test_criterion_04_kernel_bounds():
    with criterion(4, "two-regime kernel bounds on 10^4 pairs (true norms)"):
        for norm in (PLANE_NORM, LINE_NORM, CYGAN):
            rows = kernel_bound_report(norm, 10000, seed=47)
            assert rows["kernel_bounds_violations"].value == 0


EXP_PROFILE = make_profile("exp_decay", [1.0])
FAST_SPEC = QuadratureSpec(sample_count=30000, seed=48)


def test_criterion_05_reverse_hardy_closed_form():
    with criterion(5, "reverse Hardy ratio 0.153398 vs 1/7 (Gamma oracle)"):
        oracle = 0.5 * (sp.gamma(3.5) / sp.gamma(4.0)) ** 2
        assert f"{oracle:.6f}" == "0.153398"
        rep = verify_reverse_hardy(EXP_PROFILE, 0.5, H1, KORANYI, FAST_SPEC)
        assert abs(rep.ratio - oracle) <= 1e-3 * oracle
        assert rep.analytic_constant == pytest.approx(1 / 7, rel=1e-12)
        assert rep.passed


def test_criterion_06_reverse_sobolev_closed_form():
    with criterion(6, "reverse Sobolev ratio 0.133040 vs 1/8 (Gamma oracle)"):
        oracle = (sp.gamma(4.0) * math.sqrt(0.5) / sp.gamma(4.5)) ** 2
        assert f"{oracle:.6f}" == "0.133041"   # 0.13304054
        rep = verify_reverse_sobolev(EXP_PROFILE, 0.5, H1, KORANYI, FAST_SPEC)
        assert abs(rep.ratio - oracle) <= 1e-3 * oracle
        assert rep.analytic_constant == pytest.approx(0.125, rel=1e-12)
        assert rep.passed


def test_criterion_07_ckn_reductions():
    with criterion(7, "CKN reduces to Hardy (g=p, a=0) and Sobolev (g=0, b=0)"):
        p = 0.5
        hardy = verify_reverse_hardy(EXP_PROFILE, p, H1, KORANYI, FAST_SPEC)
        ckn_h = verify_reverse_ckn(EXP_PROFILE, p, 0.0, p - 1.0,
                                   H1, KORANYI, FAST_SPEC)
        assert abs(ckn_h.ratio - hardy.ratio) <= \
            3 * (ckn_h.stderr + hardy.stderr) + 1e-9
        sob = verify_reverse_sobolev(EXP_PROFILE, p, H1, KORANYI, FAST_SPEC)
        ckn_s = verify_reverse_ckn(EXP_PROFILE, p, -1.0, 0.0,
                                   H1, KORANYI, FAST_SPEC)
        assert abs(ckn_s.ratio - sob.ratio) <= \
            3 * (ckn_s.stderr + sob.stderr) + 1e-9


# README finding 2 and its mirror image on R^1, as (p, q', alpha > 0,
# beta > 0, f, h): the certified constant exceeds the true ratio there
FINDING_2_POINTS = {(0.7, 0.3, False, True, "exp_decay", "power_decay"),
                    (0.3, 0.7, True, False, "power_decay", "exp_decay")}


def test_criterion_08_stein_weiss_grid(r1_bilinear):
    """The certified bilinear constant holds within 3 stderr at every grid
    evaluation but two, and the ratio is invariant under dilation.

    The two are README finding 2's point and its mirror image (x and y
    swapped, which on R^1 leaves the kernel as it is).  There the verdict
    is the failing one, and an R^1 double integral computed here backs it:
    the ratio is 0.0077734 at both, 0.98092 of the constant."""
    with criterion(8, "bilinear lower bound + dilation drift on the full grid"):
        spec = QuadratureSpec(sample_count=20000, seed=17)
        checked = violated = 0
        for group, norm, params in _sw_grid():
            assert params.lam > 0
            pairs = _default_pairs(params.Q, params.q_prime, params.p,
                                   params.lam, params.alpha)
            for f, h in pairs:
                rep = verify_stein_weiss(f, h, params, group, norm, spec)
                point = (params.p, params.q_prime, params.alpha > 0,
                         params.beta > 0, f.family_tag, h.family_tag)
                if group is LINE and point in FINDING_2_POINTS:
                    B, nf, nh = r1_bilinear(f, h, params.alpha, params.beta,
                                            params.lam, params.p,
                                            params.q_prime)
                    exact = B / (nf * nh)
                    assert exact == pytest.approx(0.0077734381, rel=1e-8)
                    assert exact / rep.analytic_constant == pytest.approx(
                        0.980923, abs=1e-6)
                    assert abs(rep.ratio - exact) <= 4.0 * rep.stderr
                    assert rep.margin < -3.0 * rep.stderr
                    assert not rep.passed
                    violated += 1
                else:
                    assert rep.margin >= -3.0 * rep.stderr, (
                        f"margin {rep.margin:.3g} at {params.as_dict()} "
                        f"({f.family_tag} x {h.family_tag})")
                checked += 1
            # dilation drift of the ratio, exp x gauss representative pair
            f = make_profile("exp_decay", [1.0])
            h = make_profile("gaussian", [1.0])
            base = verify_stein_weiss(f, h, params, group, norm, spec)
            for s in (0.5, 2.0, 4.0):
                rep = verify_stein_weiss(f.dilated(s), h.dilated(s), params,
                                         group, norm, spec)
                assert abs(rep.ratio - base.ratio) <= 1e-2 * base.ratio
        assert checked == 3 * 9 * 4 * 9
        assert violated == len(FINDING_2_POINTS)


def _windowed_integral_hardy_lhs(region, Q, q, w, sphere, window):
    """Independent oracle for the truncated-window left side at f = e^{-r}:

        [|S| int_lo^hi G(r)^q r^{w+Q-1} dr]^{1/q},

    with the exact inner integral G(r) = |S| Gamma(Q) P(Q, r) over the ball
    and |S| Gamma(Q) (1 - P(Q, r)) over the complement (P the regularized
    lower incomplete Gamma function), integrated in log r by adaptive quad.
    """
    lo, hi = window
    regularized = sp.gammainc if region == "ball" else sp.gammaincc
    inner_mass = sphere * sp.gamma(Q)

    def integrand(s):
        r = math.exp(s)
        return (inner_mass * regularized(Q, r)) ** q * r ** (w + Q)

    val, _ = integrate.quad(integrand, math.log(lo), math.log(hi),
                            limit=200, epsabs=0.0, epsrel=1e-10)
    return (sphere * val) ** (1.0 / q)


def test_criterion_09_reverse_integral_hardy_grid():
    """Both reverse integral Hardy variants with the scale-invariant power
    weights of the bilinear proof, on the acceptance grid: the inequality
    with the certified constant kappa*A fails at every grid point.

    The admissibility conditions that make the characteristic constant A
    finite force the outer integral to diverge for every strictly positive
    integrable profile (inner-ball variant: the weight is not locally
    integrable at the origin; complement variant: the inner tail's q-th
    power outgrows the weight), so under the negative-exponent convention
    the left side is (+inf)^{1/q} = 0 < kappa*A*rhs (README finding 1).

    The verdict is proven by numbers, not read off the ``degenerate`` flag:
    A, kappa and the right side are checked against closed forms, and the
    verifier's truncated-window left side is checked against an independent
    oracle that lies strictly below kappa*A*rhs.  The outer integrand is
    positive and t -> t^{1/q} is decreasing, so the true left side is at most
    the windowed one: the inequality fails without relying on 0^q = +inf.

    Where Q + u <= 0 (complement weights, u = -(beta+lambda)p) the right
    side int f^p |y|^u dy is itself +inf for every profile positive at the
    origin, and the verifier raises DivergenceError.
    """
    with criterion(9, "reverse integral Hardy with certified constants fails "
                      "(degenerate verdict, finite witness)"):
        from revineq import DivergenceError
        spec = QuadratureSpec(sample_count=20000, seed=18)
        f = make_profile("exp_decay", [1.0])
        # largest deviation over the grid: ball 5.1e-5, complement 1.6e-5
        witness_rtol = {"ball": 1e-3, "complement": 1e-4}
        counts = {"ball": 0, "complement": 0, "divergent": 0}
        for group, norm, params in _sw_grid():
            Q, p, q = params.Q, params.p, params.q
            weight_sets = [
                ("ball", (params.alpha + params.lam) * q,
                 -params.beta * p, analytic_A1, "at the origin"),
                ("complement", params.alpha * q,
                 -(params.beta + params.lam) * p, analytic_A2, "at infinity"),
            ]
            for region, w_exp, u_exp, analytic_A, diverges_at in weight_sets:
                case = f"{region} on {group.name} at {params.as_dict()}"
                args = (region, w_exp, u_exp, f, p, q, group, norm, spec)
                if Q + u_exp <= 0.0:
                    with pytest.raises(DivergenceError, match="not integrable"):
                        verify_reverse_integral_hardy(*args)
                    counts["divergent"] += 1
                    continue
                rep = verify_reverse_integral_hardy(*args)
                counts[region] += 1

                # certified constant kappa*A in closed form
                S = rep.sphere
                A = analytic_A(params, S)
                kappa = bracket_kappa(params.p_prime, q)
                assert rep.extras["A"] == pytest.approx(A, rel=1e-12), case
                assert rep.extras["kappa"] == kappa, case
                assert rep.analytic_constant == pytest.approx(kappa * A,
                                                              rel=1e-12), case
                assert math.isfinite(rep.analytic_constant), case
                assert rep.analytic_constant > 0.0, case

                # right side against its Gamma integral
                rhs = (S * sp.gamma(Q + u_exp) / p ** (Q + u_exp)) ** (1 / p)
                assert rep.rhs == pytest.approx(rhs, rel=1e-6), case

                # verdict: the outer integral diverges, the left side is 0
                assert rep.degenerate is not None, case
                assert f"outer integral diverges {diverges_at}" in \
                    rep.degenerate, case
                assert rep.lhs == 0.0, case
                assert not rep.passed, case

                # finite witness: the windowed left side bounds the true one
                # from above and is already below the certified right side
                assert "lhs_truncated" in rep.extras, case
                witness = _windowed_integral_hardy_lhs(
                    region, Q, q, w_exp, S, rep.extras["lhs_truncated_window"])
                assert rep.extras["lhs_truncated"] == pytest.approx(
                    witness, rel=witness_rtol[region]), case
                assert witness < rep.analytic_constant * rep.rhs, case
        assert counts == {"ball": 108, "complement": 54, "divergent": 54}


def test_criterion_10_forward_cross_checks():
    with criterion(10, "forward Hardy/Sobolev/CKN + sharpness probe"):
        bump = make_profile("smooth_bump", [2.0])
        for p in (1.5, 2.0, 3.0):
            rep = verify_forward_hardy(bump, p, H1, KORANYI, FAST_SPEC)
            assert rep.passed
            rep = verify_forward_sobolev(bump, p, H1, KORANYI, FAST_SPEC)
            assert rep.passed
            rep = verify_forward_ckn(bump, p, 0.5, 0.5, H1, KORANYI, FAST_SPEC)
            assert rep.passed
        # forward CKN at gamma = p recovers forward Hardy numbers
        ckn = verify_forward_ckn(bump, 2.0, 0.0, 1.0, H1, KORANYI, FAST_SPEC)
        hardy = verify_forward_hardy(bump, 2.0, H1, KORANYI, FAST_SPEC)
        assert abs(ckn.ratio - hardy.ratio) <= 1e-9

        # sharpness probe: ratio approaches p/(Q-p) along (1+r)^{-s}
        p, Q = 2.0, 4.0
        s_threshold = (Q - p) / p
        f = make_profile("power_decay", [1.1 * s_threshold, 1.0])
        rep = verify_forward_hardy(f, p, H1, KORANYI, FAST_SPEC)
        assert rep.passed
        assert rep.ratio >= 0.9 * rep.analytic_constant
