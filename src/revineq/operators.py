"""Integral operators and functionals entering the reverse inequalities.

All trial data is radial: a profile F of the gauge radius r = |x| represents
the function x -> F(|x|) on the group.  The L^p functional for p > 0 is

    ||f||_p = ( |S| int_0^inf F(r)^p r^{Q-1} dr )^{1/p},

which for p in (0, 1) is the formal quasi-norm entering the reverse Hoelder
inequality; |S| is the gauge's exact quasi-sphere measure
(``QuasiNorm.sphere``).  Each radial integral runs over [0, R], where R is
the radius beyond which the integrand's declared decay envelope holds less
than 1e-8 of its mass (capped at the profile's support radius).  A
profile whose value or derivative is a ``ClosedForm`` (exp_decay, gaussian
and power_decay, dilated or not) has that integral as an incomplete Gamma
or Beta function, with a 1e-12 relative error bar; any other profile goes
through adaptive Gauss-Kronrod quadrature, whose results are memoised.

The doubly weighted bilinear form with growing kernel

    B(f, h) = int int |x|^a |y^{-1}x|^л f(|x|) h(|y|) |y|^b dx dy,   л > 0,

is estimated by importance-sampled Monte Carlo with the exact polar
Jacobian from the quadrature module, on antithetic pairs y, y^{-1} of
draws, and quadruples y, y^{-1}, Jy, (Jy)^{-1} with J a quarter turn of
the first two coordinates where their dilation weights are equal (R^N
for N >= 2, H1), corrected by two control variates whose means are
products of radial moments; estimates are deterministic per seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .exceptions import DegenerateInputError, ParameterError
from .groups import (HomogeneousGroup, QuasiNorm, _sample_points, dilate,
                     group_inv, group_mul)
from .quadrature import (DecayEnvelope, IntegralResult, QuadratureSpec,
                         RadialSampler, _checked_mean, draw_block,
                         integrate_radial_err, sample_group_points)

_MODULE = "operators"


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """A radial function r -> fn(r) with its L^p moments in closed form:
    ``moment(p, m, R)`` = int_0^R |fn(r)|^p r^{m-1} dr for m > 0 and
    R <= inf.  ``weighted_p_integral`` returns the moment instead of
    integrating fn; like a lambda, it equals only itself."""

    fn: Callable[[np.ndarray], np.ndarray]
    moment: Callable[[float, float, float], float]

    def __call__(self, r):
        return self.fn(r)


@dataclass(frozen=True)
class RadialProfile:
    """A scalar profile r -> value(r) on (0, inf) with its decay envelope.

    A profile is positive on [0, support_radius) and 0 beyond.
    ``derivative`` is the analytic radial derivative dF/dr.  The envelope
    declares the decay used for truncation radii and Monte Carlo importance
    sampling; ``derivative_envelope`` bounds |dF/dr| in the same way.
    ``value`` and ``derivative`` may be ``ClosedForm`` callables, whose L^p
    moments need no quadrature.
    """

    value: Callable[[np.ndarray], np.ndarray]
    envelope: DecayEnvelope
    derivative: Callable[[np.ndarray], np.ndarray]
    derivative_envelope: DecayEnvelope
    family_tag: str = "custom"
    params: tuple[float, ...] = ()
    support_radius: float = math.inf

    def __call__(self, r):
        return self.value(np.asarray(r, dtype=float))

    def deriv(self, r):
        return self.derivative(np.asarray(r, dtype=float))

    def dilated(self, s: float) -> "RadialProfile":
        """The profile of f(D_s x), i.e. r -> value(s r).  Closed forms
        stay closed: int_0^R |F(s r)|^p r^{m-1} dr = s^{-m} M(p, m, sR),
        and s^p times that for s F'(s r)."""
        if s <= 0:
            raise ParameterError("dilation factor must be positive",
                                 module=_MODULE, operation="RadialProfile.dilated")
        base_v, base_d = self.value, self.derivative
        value = lambda r: base_v(np.asarray(r, float) * s)
        derivative = lambda r: s * base_d(np.asarray(r, float) * s)
        if isinstance(base_v, ClosedForm):
            value = ClosedForm(value, lambda p, m, R:
                               s ** -m * base_v.moment(p, m, s * R))
        if isinstance(base_d, ClosedForm):
            derivative = ClosedForm(derivative, lambda p, m, R:
                                    s ** (p - m) * base_d.moment(p, m, s * R))
        return replace(
            self, value=value, derivative=derivative,
            envelope=self.envelope.scaled(s),
            derivative_envelope=self.derivative_envelope.scaled(s),
            family_tag=f"{self.family_tag}|D_{s:g}",
            support_radius=self.support_radius / s,
        )

    def check_decreasing(self, operation: str = "profile"):
        """Verify derivative <= 0 on a log grid (hypothesis of the reverse
        Hardy/Sobolev/CKN class)."""
        hi = min(self.support_radius, self.envelope.r_max(1.0, 1e-10))
        r = np.geomspace(hi * 1e-6, hi * (1 - 1e-9), 1000)
        d = self.deriv(r)
        scale = float(np.max(np.abs(d))) + 1e-300
        if np.any(d > 1e-8 * scale):
            bad = r[np.argmax(d)]
            raise ParameterError(
                f"profile is not radially decreasing (derivative > 0 near "
                f"r={bad:g})", module=_MODULE, operation=operation)


# ---------------------------------------------------------------------------
# radial L^p machinery
# ---------------------------------------------------------------------------

# relative error bar of a closed-form moment.  Against 40-digit mpmath the
# built-in families' moments were off by at most 5.5e-13 over their
# parameter boxes, p <= 3 and Q + shift <= 9: the complete Beta function
# and the rounding of p s - m lose about (p s) ln(p s) ulp; exp_decay and
# gaussian stayed below 2.4e-15
CLOSED_FORM_RTOL = 1e-12


def weighted_p_integral(profile: RadialProfile, p: float, power_shift: float,
                        Q: float, *, use_derivative: bool = False,
                        to_support: bool = False) -> tuple[float, float]:
    """(int |F(r)|^p r^{power_shift} r^{Q-1} dr, error estimate) for p > 0.

    With use_derivative the integrand uses |dF/dr| instead of F.  The upper
    limit R is the envelope-based truncation radius of the integrand
    (|F|^p r^shift), beyond which its mass is below 1e-8 of the total; the
    error estimate leaves that mass out.  With to_support R is the
    profile's support radius instead (inf for the built-in families), and
    no mass is left out.

    If the function integrated is a ``ClosedForm``, the value is its
    ``moment(p, Q + power_shift, R)`` and the error CLOSED_FORM_RTOL times
    its size; that is not memoised.  Otherwise ``_radial_p_integral``
    evaluates and memoises it.
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p:g}", module=_MODULE,
                             operation="weighted_p_integral")
    env = profile.derivative_envelope if use_derivative else profile.envelope
    env = env.powered(p).boosted(power_shift)
    env.check_integrable(Q, "weighted_p_integral")
    r_max = (profile.support_radius if to_support
             else min(env.r_max(Q), profile.support_radius))

    fn = profile.derivative if use_derivative else profile.value
    if isinstance(fn, ClosedForm):
        value = float(fn.moment(p, Q + power_shift, r_max))
        return value, CLOSED_FORM_RTOL * abs(value)
    return _radial_p_integral(fn, p, power_shift, Q, r_max)


@functools.lru_cache(maxsize=1024)
def _radial_p_integral(fn: Callable, p: float, power_shift: float, Q: float,
                       r_max: float) -> tuple[float, float]:
    """``integrate_radial_err`` of |fn(r)|^p r^{power_shift} r^{Q-1} over
    [0, r_max], memoised on what it depends on; a function equals only
    itself, so ``fn`` is compared by identity."""

    def integrand(r):
        return np.abs(fn(r)) ** p * r ** power_shift

    return integrate_radial_err(integrand, Q, 0.0, r_max)


def lp_functional(profile: RadialProfile, p: float,
                  norm: QuasiNorm) -> tuple[float, float]:
    """(v, error estimate) of v = ( |S| int F(r)^p r^{Q-1} dr )^{1/p} for
    p > 0 on the gauge's group; the radial integral's error e carries to
    first order, as v e / (p I).  |S| is the gauge's exact ``sphere`` and
    adds none."""
    val, err = weighted_p_integral(profile, p, 0.0, norm.group.homogeneous_dim)
    v = float((norm.sphere * val) ** (1.0 / p))
    return v, (v * err / (p * val) if val else 0.0)


# ---------------------------------------------------------------------------
# the bilinear form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilinearEstimate(IntegralResult):
    """A bilinear form's estimate; ``plain_stderr`` is the stderr that the
    plain mean of the unpaired samples a b |y^{-1}x|^л would have, without
    the antithetic pair or quadruple and the control variates."""

    plain_stderr: float


def stein_weiss_form(f: RadialProfile, h: RadialProfile, alpha: float,
                     beta: float, lam: float, group: HomogeneousGroup,
                     norm: QuasiNorm, spec: QuadratureSpec) -> BilinearEstimate:
    """Monte Carlo estimate of the doubly weighted bilinear form

        B(f, h) = int int |x|^alpha |y^{-1}x|^л f(|x|) h(|y|) |y|^beta dx dy.

    x and y are drawn independently, each from its profile's envelope with a
    polynomial boost of alpha + л/2 (resp. beta + л/2) so the kernel growth
    is shared between the two radial proposals.

    With weights w, a = w_x f(|x|) |x|^alpha and b = w_y h(|y|) |y|^beta,
    the sample is the antithetic pair Y = a b (|y^{-1}x|^л + |yx|^л) / 2.
    Every built-in chart inverts by negation and every gauge is symmetric,
    and the proposal density depends only on r and L(u), so -y = y^{-1} has
    the density and the weight of y, and its kernel is |(-y)^{-1}x| = |yx|:
    Y is unbiased, and the part of the kernel odd under y -> y^{-1} (the
    x.y term on R^N) cancels.

    Where the first two dilation weights are equal, the quarter turn
    J (y1, y2, ...) = (-y2, y1, ...) commutes with D_r, keeps Lebesgue
    measure and L(u), and so Jy too has the density and the weight of y.
    Where the gauge also gives |Jy| = |y| bit for bit on the draw, as
    every built-in gauge does, b is that of y, and the sample is the
    quadruple Y = a b (|y^{-1}x|^л + |yx|^л + |(Jy)^{-1}x|^л + |(Jy)x|^л)
    / 4, whose turned pair runs as a second pass through the buffer of
    the first; for any other gauge Y stays the pair.  On R^2 the
    Euclidean kernel depends on the angle between x and y alone, which the
    quadruple samples at four points 90 degrees apart.

    The kernel is close to |x|^л where |y| << |x| and to |y|^л where
    |x| << |y|, so C1 = a b |x|^л and C2 = a b |y|^л are control
    variates, with the exact means

        E C1 = |S|^2 M_f(alpha + л) M_h(beta),
        E C2 = |S|^2 M_f(alpha) M_h(beta + л),

    M_g(s) = int g(r) r^{s+Q-1} dr up to g's support radius
    (``weighted_p_integral`` at p = 1).  These are finite wherever B is.
    At л = 2 on Euclidean R^N the parallelogram law makes Y = C1 + C2, and
    the estimate is E C1 + E C2, exact to the moments' error bars.  See
    ``_control_variate_estimate`` for the estimate and its stderr.
    """
    if lam <= 0:
        raise ParameterError("lambda must be positive", module=_MODULE,
                             operation="stein_weiss_form")
    Q = group.homogeneous_dim
    env_x = f.envelope.boosted(alpha + lam / 2.0)
    env_y = h.envelope.boosted(beta + lam / 2.0)
    # B is finite only if both moments of each profile are: the kernel
    # grows like |x|^л far out and tends to |y|^л > 0 as x -> 0
    for env, side in ((env_x, "f"), (env_y, "h")):
        for k in (lam / 2.0, -lam / 2.0):
            env.boosted(k).check_integrable(
                Q, f"stein_weiss_form[{side}-side]")

    n = spec.sample_count
    sx = RadialSampler(env_x, Q, min(env_x.boosted(lam / 2.0).r_max(Q),
                                     f.support_radius))
    sy = RadialSampler(env_y, Q, min(env_y.boosted(lam / 2.0).r_max(Q),
                                     h.support_radius))
    x, _, wx = sample_group_points(group, sx, draw_block(group, spec, 0))
    y, _, wy = sample_group_points(group, sy, draw_block(group, spec, 1))

    gx, gy = norm(x), norm(y)
    # (y^{-1}, y) in one buffer, y^{-1} = -y in every built-in chart; both
    # products in one group_mul and one gauge call
    ys = np.empty((2,) + y.shape)
    np.negative(y, out=ys[0])
    ys[1] = y
    kernel = [norm(group_mul(group, ys, x))]
    # the second pass turns the buffer to ((Jy)^{-1}, Jy), where J keeps
    # the draw's density and the gauge keeps b
    if group.dim >= 2 and group.weights[0] == group.weights[1]:
        _quarter_turn(y, ys)
        if np.array_equal(norm(ys[1]), gy):
            kernel.append(norm(group_mul(group, ys, x)))
    m = 2 * len(kernel)                 # kernel rows
    # (|y^{-1}x|, |yx|, ..., |x|, |y|)^л times a b, every power as exp(s log)
    rows = np.concatenate(kernel + [gx[None], gy[None]])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.log(rows, out=rows)
        a = _times_power(f(gx) * wx, alpha, rows[m])
        b = _times_power(h(gy) * wy, beta, rows[m + 1])
        rows *= lam
        np.exp(rows, out=rows)
        a *= b
        rows *= a
        # Y, the mean of the kernel rows, summed pair by pair into row m - 1
        rows[1:m:2] += rows[0:m:2]
        if m == 4:
            rows[3] += rows[1]
        rows[m - 1] *= 1.0 / m
    unpaired, rows = rows[0], rows[m - 1:]  # a b |y^{-1}x|^л; Y, C1, C2
    mean_y = _checked_mean(rows[0], n, "stein_weiss_form",
                           hint="; tighten the trial decay or reduce lambda")
    controls = (_control_mean(f, alpha + lam, h, beta, Q, norm.sphere),
                _control_mean(f, alpha, h, beta + lam, Q, norm.sphere))
    value, stderr = _control_variate_estimate(rows, n, mean_y, controls)
    return BilinearEstimate(value, stderr, _plain_stderr(unpaired, n))


def _quarter_turn(y: np.ndarray, ys: np.ndarray) -> None:
    """Turns ys = (-y, y) into (-Jy, Jy) in place, J (y1, y2, ...) =
    (-y2, y1, ...); only the first two columns change, exactly."""
    np.negative(y[:, 1], out=ys[1, :, 0])
    ys[1, :, 1] = y[:, 0]
    ys[0, :, 0] = y[:, 1]
    np.negative(y[:, 0], out=ys[0, :, 1])


def _times_power(vals: np.ndarray, s: float, log_r: np.ndarray) -> np.ndarray:
    """vals r^s in place, r^s taken as exp(s log r); an exponent of 0 is
    skipped, as exp(0 log 0) would be NaN where r^0 is 1."""
    if s:
        vals *= np.exp(s * log_r)
    return vals


def _plain_stderr(vals: np.ndarray, n: int) -> float:
    """The stderr of the plain mean of n samples."""
    if n <= 1:
        return math.inf
    dev = vals - np.sum(vals) / n
    return math.sqrt(float(np.einsum("i,i->", dev, dev)) / (n - 1) / n)


def _control_mean(f: RadialProfile, f_shift: float, h: RadialProfile,
                  h_shift: float, Q: float, S: float) -> tuple[float, float]:
    """(|S|^2 M_f(f_shift) M_h(h_shift), its relative error), the moments
    taken up to each profile's support radius; the error is inf where the
    mean is 0."""
    (mf, ef), (mh, eh) = (weighted_p_integral(f, 1.0, f_shift, Q,
                                              to_support=True),
                          weighted_p_integral(h, 1.0, h_shift, Q,
                                              to_support=True))
    mean = S * S * mf * mh
    return mean, (ef / mf + eh / mh if mean else math.inf)


def _control_variate_estimate(rows: np.ndarray, n: int, mean_y: float,
                              controls) -> tuple[float, float]:
    """(estimate, stderr): the regression estimate of E Y from n samples of
    rows = (Y, C1, C2), whose controls have the (mean, relative error)
    pairs ``controls``; ``mean_y`` is the checked mean of Y.  Overwrites
    ``rows``.

    With each control divided by its mean, so that c_j = C_j / E C_j has
    mean 1, k solves G_cc k = G_cy in the centred Gram matrix G of
    (Y, c1, c2).  The estimate is mean(Y) - k . (mean(c) - 1).  Its stderr
    is the residual standard deviation of the centred samples,
    sqrt(sum (Y - k . c)^2 / (n - 3)), over sqrt(n), plus |k_j| times the
    relative error of each control mean.  Where the controls are
    degenerate (a zero mean, a singular or non-finite Gram matrix, or
    n <= 3) the mean of Y stands, with its stderr sqrt(G_yy / (n - 1) / n).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # 1 / E C_j scales the sums of C_j to those of c_j
        scale = 1.0 / np.array([1.0, *(mean for mean, _ in controls)])
        avg = np.sum(rows, axis=1) / n
        rows -= avg[:, None]
        # einsum's own loops: a BLAS product rounds differently with the
        # number of BLAS threads, and takes longer on rows this shape
        gram = np.einsum("ij,kj->ik", rows, rows)
        avg *= scale
        gram *= np.outer(scale, scale)
    gcc, gcy = gram[1:, 1:], gram[1:, 0]
    det = gcc[0, 0] * gcc[1, 1] - gcc[0, 1] * gcc[0, 1]
    if not (n > 3 and np.isfinite(gram).all()
            and det > 1e-12 * gcc[0, 0] * gcc[1, 1]):
        return mean_y, (math.sqrt(gram[0, 0] / (n - 1) / n) if n > 1
                         else math.inf)
    k = np.linalg.solve(gcc, gcy)
    # the residuals summed afresh: G_yy - k . G_cy cancels to rounding where
    # Y is nearly a combination of the controls (л = 2 on R^N)
    rows[0] -= k[0] * scale[1] * rows[1]
    rows[0] -= k[1] * scale[2] * rows[2]
    resid = float(np.einsum("i,i->", rows[0], rows[0]))
    stderr = (math.sqrt(resid / (n - 3) / n)
              + float(np.abs(k) @ [rel for _, rel in controls]))
    return float(mean_y - k @ (avg[1:] - 1.0)), stderr


# ---------------------------------------------------------------------------
# reverse Hoelder gap
# ---------------------------------------------------------------------------

def reverse_holder_gap(f, g, p: float) -> float:
    """gap = sum f g - (sum f^p)^{1/p} (sum g^{p'})^{1/p'} for p in (0,1).

    ``f`` and ``g`` are 1-D sample arrays (counting measure).  For
    nonnegative f and strictly positive g the reverse Hoelder inequality
    makes the gap nonnegative; a g that vanishes at a sample is rejected as
    degenerate, as 0^{p'} = +inf for p' < 0.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in (0, 1)", module=_MODULE,
                             operation="reverse_holder_gap")
    pp = p / (p - 1.0)
    fv, gv = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if fv.shape != gv.shape:
        raise ParameterError("sample arrays must have matching shapes",
                             module=_MODULE, operation="reverse_holder_gap")
    if np.any(fv < 0):
        raise ParameterError("f must be nonnegative", module=_MODULE,
                             operation="reverse_holder_gap")
    if np.any(gv <= 0):
        raise DegenerateInputError(
            "g vanishes at a sample; 0^{p'} = +inf for p' < 0",
            module=_MODULE, operation="reverse_holder_gap")
    lhs = float(np.sum(fv * gv))
    rhs = float(np.sum(fv ** p) ** (1.0 / p) * np.sum(gv ** pp) ** (1.0 / pp))
    return lhs - rhs


# ---------------------------------------------------------------------------
# pointwise kernel bounds from the proof's two regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    """Sampled check of the two triangle-inequality kernel bounds:

    inner regime |y| <= |x|/2  =>  |x|/2 <= |y^{-1}x|  (so 2^{-л}|x|^л <= |y^{-1}x|^л),
    outer regime 2|x| <= |y|   =>  |y|/2 <= |y^{-1}x|.
    """

    samples: int
    inner_violations: int
    outer_violations: int
    inner_worst: float          # max of |x|/2 - |y^{-1}x| (<= 0 when clean)
    outer_worst: float


def kernel_bound_report(group: HomogeneousGroup, norm: QuasiNorm,
                        sample_count: int = 10000, seed: int = 0,
                        ) -> KernelBoundReport:
    """Sample admissible pairs directly in each regime and test the bounds.

    Requires a gauge satisfying the triangle inequality; the bounds are a
    consequence of subadditivity plus symmetry, so violations indicate a
    broken norm implementation.
    """
    if not norm.is_true_norm:
        raise ParameterError("kernel bounds require a true norm (triangle "
                             "inequality asserted)", module=_MODULE,
                             operation="kernel_bound_report")
    rng = np.random.default_rng(seed)
    n = sample_count
    x = _sample_points(group, n, rng)
    nx = norm(x)

    # inner: y with |y| = frac * |x|/2, frac in (0, 1]; directions drawn on
    # the unit quasi-sphere via dilation by 1/|y0|
    y0 = rng.standard_normal((n, group.dim))
    y0 = dilate(group, 1.0 / norm(y0), y0)
    frac = rng.uniform(1e-3, 1.0, size=n)
    y_in = dilate(group, frac * nx / 2.0, y0)
    d_in = norm(group_mul(group, group_inv(group, y_in), x))
    inner_gap = nx / 2.0 - d_in

    # outer: y with |y| = (2 + spread) * |x|
    spread = rng.uniform(0.0, 8.0, size=n)
    y_out = dilate(group, (2.0 + spread) * nx, y0)
    ny_out = norm(y_out)
    d_out = norm(group_mul(group, group_inv(group, y_out), x))
    outer_gap = ny_out / 2.0 - d_out

    tol = 1e-12
    return KernelBoundReport(
        samples=n,
        inner_violations=int(np.sum(inner_gap > tol * np.maximum(nx, 1.0))),
        outer_violations=int(np.sum(outer_gap > tol * np.maximum(ny_out, 1.0))),
        inner_worst=float(np.max(inner_gap)),
        outer_worst=float(np.max(outer_gap)),
    )
