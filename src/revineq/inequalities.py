"""Admissibility, analytic constants, and numerical inequality verifiers.

Conventions used throughout:

* Conjugate exponents are always derived, never stored: p' = p/(p-1) and
  q = q'/(q'-1).  For p, q' in (0, 1) both conjugates are negative.
* A verification report carries the two functional sides WITHOUT the
  analytic constant: ``ratio = lhs / rhs`` is compared against
  ``analytic_constant`` with direction "lower" (reverse inequalities,
  ratio >= constant) or "upper" (forward cross-checks, ratio <= constant).
  ``passed`` is recomputed from the stored fields, never set directly, with
  tolerance 3 x combined stderr plus 1e-9, which must be finite.
* The certified lower constant for the weighted bilinear form uses the
  certified ends kappa*A1, kappa*A2 of the best-constant brackets, since
  only those ends are guaranteed:  A >= C >= kappa * A  with
  kappa = (p'/(p'+q))^{-1/q} (q/(p'+q))^{-1/p'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DegenerateInputError, DivergenceError, ParameterError
from .groups import HomogeneousGroup, QuasiNorm
from .operators import (RadialProfile, lp_functional, stein_weiss_form,
                        weighted_p_integral)
from .quadrature import QuadratureSpec, integrate_radial_err

_ABS_TOL_FLOOR = 1e-9
_BALANCE_TOL = 1e-12


def conjugate_exponent(p: float) -> float:
    """p' = p/(p-1); an involution, negative exactly when p in (0, 1)."""
    if p == 1.0:
        raise ParameterError("p = 1 has no conjugate exponent")
    return p / (p - 1.0)


def balanced_lambda(Q: float, p: float, q_prime: float,
                    alpha: float = 0.0, beta: float = 0.0) -> float:
    """The kernel exponent fixed by the balance condition
    1/q' + 1/p = (alpha+beta+lambda)/Q + 2."""
    return Q * (1.0 / q_prime + 1.0 / p - 2.0) - alpha - beta


# ---------------------------------------------------------------------------
# parameters and admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityParams:
    """Exponent tuple for the weighted bilinear (Stein-Weiss type) setting.

    variant:
      "full"        both weight sign conditions required,
      "improved_a"  only 0 <= alpha < -Q/q required,
      "improved_b"  only 0 <= beta < -Q/p' required;
    every variant requires alpha > -Q and beta > -Q, without which B is
    infinite.
    """

    Q: float
    p: float
    q_prime: float = float("nan")
    lam: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in ("full", "improved_a", "improved_b"):
            raise ParameterError(f"unknown variant {self.variant!r}")

    @property
    def p_prime(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q(self) -> float:
        return conjugate_exponent(self.q_prime)

    @property
    def balance_residual(self) -> float:
        return (1.0 / self.q_prime + 1.0 / self.p
                - (self.alpha + self.beta + self.lam) / self.Q - 2.0)

    def as_dict(self) -> dict:
        return {"Q": self.Q, "p": self.p, "q_prime": self.q_prime,
                "lambda": self.lam, "alpha": self.alpha, "beta": self.beta,
                "variant": self.variant, "p_prime": self.p_prime, "q": self.q}


def _regimes(P: InequalityParams) -> dict[str, tuple[float, float]]:
    """(Q + w, Q + u(1-p')) of the power weights the bilinear proof feeds to
    power_weight_A: the inner regime (ball) has W = |x|^{(alpha+lambda)q},
    U = |y|^{-beta p}; the outer regime (complement) W = |x|^{alpha q},
    U = |y|^{-(beta+lambda)p}.  By p(1-p') = -p' and the balance condition
    they are Q + (alpha+lambda)q = -q b, Q - beta p(1-p') = p' b and
    Q + alpha q = q a, Q + (beta+lambda)p' = -p' a in the hypothesis
    margins b = beta + Q/p' and a = alpha + Q/q, free of lambda's rounding."""
    q, pp = P.q, P.p_prime
    b, a = P.beta + P.Q / pp, P.alpha + P.Q / q
    return {"ball": (-q * b, pp * b), "complement": (q * a, -pp * a)}


def validate_params(params: InequalityParams) -> list[str]:
    """The names of the hypotheses of the weighted bilinear lower bound that
    the variant requires and that fail here; empty for an admissible point.
    p' and q exist only for p, q' in (0, 1), so a p or q' out of that range
    lists the range failures alone."""
    P = params
    ranges = [f"{n} in (0,1)" for n, x in (("p", P.p), ("q'", P.q_prime))
              if not 0.0 < x < 1.0]
    if ranges:
        return ranges
    q, pp = P.q, P.p_prime
    full = P.variant == "full"
    need_alpha = full or P.variant == "improved_a"
    need_beta = full or P.variant == "improved_b"

    checks = [  # (name, satisfied, required)
        ("lambda > 0", P.lam > 0.0, True),
        ("balance 1/q'+1/p = (alpha+beta+lambda)/Q + 2",
         abs(P.balance_residual) <= _BALANCE_TOL, True),
        # |x|^alpha and |y|^beta must be integrable at the origin, where
        # the kernel tends to a positive limit; otherwise B is infinite
        ("alpha > -Q", P.alpha > -P.Q, True),
        ("beta > -Q", P.beta > -P.Q, True),
        ("0 <= alpha", P.alpha >= 0.0, need_alpha),
        ("alpha < -Q/q", P.alpha < -P.Q / q, need_alpha),
        ("0 <= beta", P.beta >= 0.0, need_beta),
        ("beta < -Q/p'", P.beta < -P.Q / pp, need_beta),
    ]
    return [name for name, satisfied, required in checks
            if required and not satisfied]


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def power_weight_A(region: str, mW: float, mU: float, q: float,
                   p_prime: float, sphere: float) -> float:
    """Characteristic constant of the reverse integral Hardy lemma for power
    weights W = |x|^w, U = |x|^u, given mW = Q + w and mU = Q + u(1-p'):
    A = (|S|/|mW|)^{1/q} (|S|/|mU|)^{1/p'}, finite and positive on the ball
    when mW < 0 < mU and on the complement when mU < 0 < mW.  It takes the
    exponents, not w and u, so that each caller keeps its own rounding."""
    if not {"ball": mW < 0.0 < mU, "complement": mU < 0.0 < mW}.get(region):
        raise ParameterError(
            f"no power-weight A on {region!r} at Q + w = {mW:g}, Q + u(1-p') "
            f"= {mU:g}: the ball needs Q + w < 0 < Q + u(1-p'), the "
            "complement Q + u(1-p') < 0 < Q + w")
    return float((sphere / abs(mW)) ** (1.0 / q)
                 * (sphere / abs(mU)) ** (1.0 / p_prime))


def analytic_A1(params: InequalityParams, sphere: float) -> float:
    """A1: power_weight_A in the inner regime (ball) of the bilinear proof,
    W = |x|^{(alpha+lambda)q}, U = |y|^{-beta p}."""
    return power_weight_A("ball", *_regimes(params)["ball"], params.q,
                          params.p_prime, sphere)


def analytic_A2(params: InequalityParams, sphere: float) -> float:
    """A2: power_weight_A in the outer regime (complement) of the bilinear
    proof, W = |x|^{alpha q}, U = |y|^{-(beta+lambda)p}."""
    return power_weight_A("complement", *_regimes(params)["complement"],
                          params.q, params.p_prime, sphere)


def bracket_kappa(p_prime: float, q: float) -> float:
    """kappa = (p'/(p'+q))^{-1/q} (q/(p'+q))^{-1/p'}, in (0, 1] for
    negative conjugates."""
    if not (p_prime < 0.0 and q < 0.0):
        raise ParameterError("bracket requires p' < 0 and q < 0")
    s = p_prime + q
    return float((p_prime / s) ** (-1.0 / q) * (q / s) ** (-1.0 / p_prime))


def stein_weiss_lower_constant(params: InequalityParams, sphere: float) -> float:
    """Certified lower bound for the bilinear-form constant.

    full:        2^{-lambda-1} kappa (A1 + A2)   (both regimes, averaged),
    improved_a:  2^{-lambda}   kappa A2          (outer regime only),
    improved_b:  2^{-lambda}   kappa A1          (inner regime only).
    """
    failures = validate_params(params)
    if failures:
        raise ParameterError("inadmissible parameters: " + "; ".join(failures))
    kap = bracket_kappa(params.p_prime, params.q)
    if params.variant == "improved_a":
        return 2.0 ** (-params.lam) * kap * analytic_A2(params, sphere)
    if params.variant == "improved_b":
        return 2.0 ** (-params.lam) * kap * analytic_A1(params, sphere)
    a1 = analytic_A1(params, sphere)
    a2 = analytic_A2(params, sphere)
    return 2.0 ** (-params.lam - 1.0) * kap * (a1 + a2)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one inequality check.

    lhs and rhs are the two functional sides without the analytic constant;
    ratio = lhs/rhs; direction "lower" passes when ratio >= constant within
    tolerance, "upper" when ratio <= constant.
    """

    inequality: str
    params: dict
    lhs: float
    rhs: float
    analytic_constant: float
    sphere: float           # the exact |S| of the gauge
    direction: str = "lower"
    stderr: float = 0.0
    lhs_stderr: float = 0.0
    rhs_stderr: float = 0.0
    degenerate: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs != 0 else math.inf

    @property
    def margin(self) -> float:
        if self.direction == "upper":
            return self.analytic_constant - self.ratio
        return self.ratio - self.analytic_constant

    @property
    def tolerance(self) -> float:
        return 3.0 * self.stderr + _ABS_TOL_FLOOR

    @property
    def passed(self) -> bool:
        """Not degenerate, and the margin within a finite tolerance."""
        return (self.degenerate is None and self.tolerance < math.inf
                and self.margin >= -self.tolerance)

    def as_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "analytic_constant": self.analytic_constant,
            "margin": self.margin,
            "direction": self.direction,
            "stderr": self.stderr,
            "lhs_stderr": self.lhs_stderr,
            "rhs_stderr": self.rhs_stderr,
            "sphere": {"value": self.sphere, "method": "exact"},
            "pass": self.passed,
            "degenerate": self.degenerate,
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# radial ratios: reverse and forward Hardy, L^p-Sobolev and CKN
# ---------------------------------------------------------------------------

class _RadialForm(NamedTuple):
    """The two sides of a radial inequality.

    Each side is a product of factors I^{k/p}, one per term
    (shift, use_derivative, k), with I = int |F|^p r^{shift} r^{Q-1} dr or
    the same integral of |dF/dr|.  ``sides(p, Q, alpha, beta, gamma)``
    returns (constant, lhs terms, rhs terms); ``conditions(p, Q, alpha,
    gamma)`` returns the (holds, message) pairs checked before it.
    """

    name: str
    weighted: bool          # CKN: the report lists alpha, beta and gamma
    conditions: Callable
    sides: Callable


_HARDY = _RadialForm(
    "hardy", False, lambda p, Q, alpha, gamma: [(p < Q, "requires Q > p")],
    lambda p, Q, alpha, beta, gamma: (
        p / (Q - p), [(-p, False, 1.0)], [(0.0, True, 1.0)]))
_SOBOLEV = _RadialForm(
    "sobolev", False, lambda p, Q, alpha, gamma: [],
    lambda p, Q, alpha, beta, gamma: (
        p / Q, [(0.0, False, 1.0)], [(p, True, 1.0)]))
_CKN = _RadialForm(
    "ckn", True,
    lambda p, Q, alpha, gamma: [
        (gamma < Q, f"requires gamma = alpha+beta+1 < Q "
                    f"(gamma={gamma:g}, Q={Q:g})"),
        (Q > alpha * p, "requires Q > alpha p for profiles positive at the "
                        "origin")],
    lambda p, Q, alpha, beta, gamma: (
        p / abs(Q - gamma), [(-gamma, False, p)],
        [(-alpha * p, True, 1.0), (-beta * p / (p - 1.0), False, p - 1.0)]))


def _radial_side(f: RadialProfile, p: float, Q: float,
                 terms) -> tuple[float, float]:
    """(v, error) of v = prod I^{k/p} over terms (shift, use_derivative, k);
    each factor adds err/|I| * v * |k|/p.  (0, 0) when an I is 0."""
    factors = [(*weighted_p_integral(f, p, shift, Q, use_derivative=deriv), k)
               for shift, deriv, k in terms]
    if not all(i for i, _, _ in factors):
        return 0.0, 0.0
    v = 1.0
    for i, _, k in factors:
        v *= i ** (k / p)
    return v, sum(e / abs(i) * v * abs(k) / p for i, e, k in factors)


def _verify_radial(direction: str, form: _RadialForm, f: RadialProfile,
                   p: float, alpha: float, beta: float,
                   group: HomogeneousGroup,
                   norm: QuasiNorm) -> VerificationReport:
    """The reverse ("lower": lhs >= C rhs for radially decreasing f and
    p in (0, 1)) or forward ("upper": lhs <= C rhs for p > 1) inequality of
    a radial form, gamma = alpha + beta + 1.  Nothing here is Monte Carlo:
    the six public verifiers take a ``spec`` only for the shared verifier
    signature, and their reports do not depend on it."""
    label = ("reverse_" if direction == "lower" else "forward_") + form.name
    norm.require_on(group)
    Q = group.homogeneous_dim
    gamma = alpha + beta + 1.0
    if direction == "lower":
        if not 0.0 < p < 1.0:
            raise ParameterError(f"p must lie in (0,1), got {p:g}")
        f.check_decreasing()
    elif not p > 1.0:
        raise ParameterError(f"needs p > 1, got p={p:g}")
    for holds, message in form.conditions(p, Q, alpha, gamma):
        if not holds:
            raise ParameterError(message)
    constant, lhs_terms, rhs_terms = form.sides(p, Q, alpha, beta, gamma)
    lhs, lhs_err = _radial_side(f, p, Q, lhs_terms)
    rhs, rhs_err = _radial_side(f, p, Q, rhs_terms)
    if rhs == 0.0:
        raise DegenerateInputError("right side is zero; ratio undefined")
    rel = lhs_err / abs(lhs) if lhs else 0.0
    rel += rhs_err / abs(rhs)
    params = {"Q": Q, "p": p}
    if form.weighted:
        params.update(alpha=alpha, beta=beta, gamma=gamma)
    return VerificationReport(
        inequality=label, params=params, lhs=lhs, rhs=rhs,
        analytic_constant=constant, direction=direction,
        stderr=abs(lhs / rhs) * rel, lhs_stderr=lhs_err, rhs_stderr=rhs_err,
        sphere=norm.sphere)


def verify_reverse_hardy(f: RadialProfile, p: float, group: HomogeneousGroup,
                         norm: QuasiNorm, spec: QuadratureSpec) -> VerificationReport:
    """||f/|x|||_p >= p/(Q-p) ||dF/dr||_p for radially decreasing f, p in (0,1)."""
    return _verify_radial("lower", _HARDY, f, p, 0.0, 0.0, group, norm)


def verify_reverse_sobolev(f: RadialProfile, p: float, group: HomogeneousGroup,
                           norm: QuasiNorm, spec: QuadratureSpec) -> VerificationReport:
    """||f||_p >= (p/Q) ||r dF/dr||_p for radially decreasing f, p in (0,1)."""
    return _verify_radial("lower", _SOBOLEV, f, p, 0.0, 0.0, group, norm)


def verify_reverse_ckn(f: RadialProfile, p: float, alpha: float, beta: float,
                       group: HomogeneousGroup, norm: QuasiNorm,
                       spec: QuadratureSpec) -> VerificationReport:
    """||f/|x|^{g/p}||_p^p >= p/(Q-g) ||F'/|x|^a||_p ||f/|x|^{b/(p-1)}||_p^{p-1},
    g = a + b + 1 < Q, for radially decreasing f and p in (0, 1)."""
    return _verify_radial("lower", _CKN, f, p, alpha, beta, group, norm)


def verify_forward_hardy(f: RadialProfile, p: float, group: HomogeneousGroup,
                         norm: QuasiNorm, spec: QuadratureSpec) -> VerificationReport:
    """||f/|x|||_p <= p/(Q-p) ||dF/dr||_p for 1 < p < Q."""
    return _verify_radial("upper", _HARDY, f, p, 0.0, 0.0, group, norm)


def verify_forward_sobolev(f: RadialProfile, p: float, group: HomogeneousGroup,
                           norm: QuasiNorm, spec: QuadratureSpec) -> VerificationReport:
    """||f||_p <= (p/Q) ||r dF/dr||_p for 1 < p < inf."""
    return _verify_radial("upper", _SOBOLEV, f, p, 0.0, 0.0, group, norm)


def verify_forward_ckn(f: RadialProfile, p: float, alpha: float, beta: float,
                       group: HomogeneousGroup, norm: QuasiNorm,
                       spec: QuadratureSpec) -> VerificationReport:
    """(|Q-g|/p) ||f/|x|^{g/p}||_p^p <= ||F'/|x|^a||_p ||f/|x|^{b/(p-1)}||_p^{p-1},
    g = a + b + 1 < Q (g > Q needs trial data vanishing near the origin),
    for 1 < p < inf."""
    return _verify_radial("upper", _CKN, f, p, alpha, beta, group, norm)


# ---------------------------------------------------------------------------
# weighted bilinear form (Stein-Weiss type) and its unweighted corollary
# ---------------------------------------------------------------------------

def _bilinear_name(name: str, params: InequalityParams) -> str:
    """A bilinear report's name, with any variant but "full" in brackets."""
    return name if params.variant == "full" else f"{name}[{params.variant}]"


def verify_stein_weiss(f: RadialProfile, h: RadialProfile,
                       params: InequalityParams, group: HomogeneousGroup,
                       norm: QuasiNorm, spec: QuadratureSpec, *,
                       forms: dict | None = None) -> VerificationReport:
    """B(f,h) >= C ||f||_{q'} ||h||_p with the certified constant C.

    ``forms`` holds bilinear forms already computed, keyed by every input
    of stein_weiss_form: B is read from it when there and stored in it when
    not.  B does not depend on p and q' apart from lambda, so the points of
    a sweep that share (alpha, beta, lambda) share one B."""
    # the constant validates params: an inadmissible point raises first
    const = stein_weiss_lower_constant(params, norm.sphere)
    if abs(params.Q - group.homogeneous_dim) > 1e-12:
        raise ParameterError("params.Q does not match the group")
    norm.require_on(group)
    forms = {} if forms is None else forms
    inputs = (f, h, params.alpha, params.beta, params.lam, norm, spec)
    if inputs not in forms:
        forms[inputs] = stein_weiss_form(*inputs)
    B = forms[inputs]
    nf, nf_err = lp_functional(f, params.q_prime, norm)
    nh, nh_err = lp_functional(h, params.p, norm)
    if nf == 0.0 or nh == 0.0:
        raise DegenerateInputError("a trial profile has zero quasi-norm")
    den = nf * nh
    den_err = nf_err * nh + nf * nh_err
    # the relative errors of the two sides add, as in _verify_radial
    return VerificationReport(
        inequality=_bilinear_name("reverse_stein_weiss", params),
        params=params.as_dict(),
        lhs=B.value, rhs=den, analytic_constant=const,
        stderr=B.stderr / den + abs(B.value / den) * den_err / den,
        lhs_stderr=B.stderr, rhs_stderr=den_err, sphere=norm.sphere,
        extras={"f": f.family_tag, "h": h.family_tag,
                "lhs_stderr_plain": B.plain_stderr},
    )


def verify_reverse_hls(f: RadialProfile, h: RadialProfile,
                       params: InequalityParams, group: HomogeneousGroup,
                       norm: QuasiNorm, spec: QuadratureSpec, *,
                       forms: dict | None = None) -> VerificationReport:
    """The unweighted corollary (alpha = beta = 0) of the bilinear bound;
    ``forms`` as in verify_stein_weiss."""
    if params.alpha != 0.0 or params.beta != 0.0:
        raise ParameterError("the unweighted corollary requires "
                             "alpha = beta = 0")
    rep = verify_stein_weiss(f, h, params, group, norm, spec, forms=forms)
    rep.inequality = _bilinear_name("reverse_hls", params)
    return rep


# ---------------------------------------------------------------------------
# reverse integral Hardy pair
# ---------------------------------------------------------------------------

def _inner_integral(f: RadialProfile, Q: float, sphere: float, r_hi: float,
                    variant: str, n: int = 4096):
    """The inner integral G(r) as a function of r, tabulated on a log grid
    over [0, r_hi]: for the ball G(r) = |S| int_0^r F(t) t^{Q-1} dt by the
    trapezoid rule, for the complement the same integral over [r, r_hi].

    The complement tail is summed from the outer end and treated as
    exponential on each grid segment, both when it is integrated and when
    it is interpolated: the trapezoid rule and linear interpolation each
    have relative error of order h^2 on an e^{-t} tail, and the log grid's
    step h grows like t (3e-3 in the windowed left side at n = 4096).
    """
    grid = np.concatenate([[0.0], np.geomspace(r_hi * 1e-10, r_hi, n)])
    vals = f(grid[1:]) * grid[1:] ** (Q - 1.0)
    vals = np.concatenate([[0.0], vals])
    h = np.diff(grid)
    seg = 0.5 * (vals[1:] + vals[:-1]) * h
    if variant == "ball":
        cum = sphere * np.concatenate([[0.0], np.cumsum(seg)])
        return lambda r: np.interp(r, grid, cum)
    v0, v1 = vals[:-1], vals[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(v1 / v0)
        expo = h * (v1 - v0) / log_ratio
        seg = np.where(np.isfinite(expo) & (log_ratio != 0.0), expo, seg)
        tail = sphere * np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        log_tail = np.log(tail)
    return lambda r: np.maximum(np.exp(np.interp(r, grid, log_tail)), 1e-300)


def verify_reverse_integral_hardy(variant: str, w: float, u: float,
                                  f: RadialProfile, p: float, q: float,
                                  group: HomogeneousGroup, norm: QuasiNorm,
                                  spec: QuadratureSpec) -> VerificationReport:
    """Reverse integral Hardy inequality with power weights W = |x|^w and
    U = |x|^u, both variants:

    ball:        [int ( int_{B(0,|x|)} f )^q W dx]^{1/q}  >= C (int f^p U dx)^{1/p},
    complement:  [int ( int_{G \\ B(0,|x|)} f )^q W dx]^{1/q} >= C (...),

    with the certified constant C = kappa * A, A = power_weight_A(variant,
    Q + w, Q + u(1-p'), q, p', |S|) (A finite and positive exactly when the
    weight exponents satisfy its sign conditions and the scale exponent of
    the characteristic quantity vanishes).

    Degeneracy note: with pure power weights the admissibility conditions
    force the outer integral to diverge for every profile of finite positive
    mass (inner regime: W is not locally integrable at the origin; outer
    regime: the inner integral's q-th power outgrows the weight's tail).
    Under the negative-exponent convention the left side then equals
    (+inf)^{1/q} = 0 and the report is returned with ``degenerate`` set and
    a truncated-window diagnostic in ``extras`` instead of a fake pass.
    With admissible power weights every input therefore ends in a degenerate
    branch (or in the exception below), so no finite branch is kept.

    ``extras["lhs_truncated"]`` is the left side with the outer integral
    restricted to ``extras["lhs_truncated_window"]``.  The outer integrand is
    positive and t -> t^{1/q} is decreasing, so it is an upper bound on the
    true left side: a value below ``analytic_constant * rhs`` shows the
    inequality fails without the 0^q convention.

    Raises DivergenceError when the right-hand functional int f^p |y|^u dy
    diverges; for a profile positive at the origin that is exactly when
    Q + u <= 0, where the functional is +inf.  Nothing here is Monte Carlo:
    ``spec`` is kept for the shared verifier signature and not read.
    """
    if not (math.isfinite(w) and math.isfinite(u)):
        raise ParameterError("weight exponents must be finite")
    if variant not in ("ball", "complement"):
        raise ParameterError(f"unknown variant {variant!r}")
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in (0,1)")
    if not q < 0.0:
        raise ParameterError("q must be negative")
    norm.require_on(group)
    if math.isfinite(f.support_radius):
        raise DegenerateInputError(
            "profile must be strictly positive (0^q = +inf convention)")

    Q = group.homogeneous_dim
    pp = conjugate_exponent(p)
    mW, mU = Q + w, Q + u * (1.0 - pp)
    S = norm.sphere
    A = power_weight_A(variant, mW, mU, q, pp, S)
    scale_expo = mW / q + mU / pp
    if abs(scale_expo) > 1e-10:
        raise ParameterError(
            f"characteristic quantity scales like |x|^{scale_expo:g}; its "
            "infimum over x != 0 vanishes, so A = 0")
    kap = bracket_kappa(pp, q)

    iv, ie = weighted_p_integral(f, p, u, Q)
    rhs = float((S * iv) ** (1.0 / p))
    rhs_err = rhs * (ie / iv) / p

    # ---- divergence analysis of the outer integral ----
    # the parameter checks above leave no finite case: every branch below
    # ends in a degenerate left side, which is +inf where ``trivial``
    trivial = False
    if variant == "ball":
        if f.envelope.boost <= -Q:
            trivial = True
            degenerate = ("profile is not integrable at the origin, so every "
                          "inner ball integral is +inf and the left side is "
                          "0^{1/q} = +inf (trivially true by the convention; "
                          "no numerical content)")
        else:
            # near 0 the inner integral grows like r^{Q + boost}, so the
            # outer integrand is ~ r^{(Q + boost) q + w + Q - 1}; with
            # Q + boost > 0, Q + w < 0 and q < 0 this is never integrable
            m = Q + f.envelope.boost
            degenerate = ("outer integral diverges at the origin "
                          f"(local exponent {m * q + w + Q - 1.0:g} <= -1); "
                          "by the convention the left side is (+inf)^{1/q} = 0")
    elif f.envelope.kind in ("exp", "gauss"):
        degenerate = ("outer integral diverges at infinity: the inner "
                      "tail decays super-polynomially so its q-th power "
                      "outgrows every power weight")
    else:
        # a power envelope: a uniform one has finite support, refused above
        s_eff = f.envelope.shape - f.envelope.boost
        if s_eff <= Q:
            trivial = True
            degenerate = ("profile is not integrable, so every outer-"
                          "complement inner integral is +inf and the "
                          "left side is 0^{1/q} = +inf (trivially true "
                          "by the convention; no numerical content)")
        else:
            # the inner tail decays like r^{Q - s_eff}; with
            # Q - s_eff < 0, q < 0 and Q + w > 0 the outer integrand
            # r^{(Q - s_eff) q + w + Q - 1} is never integrable at infinity
            degenerate = ("outer integral diverges at infinity "
                          f"(tail exponent {(Q - s_eff) * q + w + Q - 1.0:g}"
                          " >= -1); left side degenerates to 0")

    extras = {"A": A, "kappa": kap, "certified_constant": kap * A,
              "bracket": [kap * A, A], "variant": variant,
              "W_exponent": w, "U_exponent": u}

    if trivial:
        lhs = math.inf
    else:
        lhs = 0.0
        # truncated-window diagnostic: the same functional with the outer
        # integral restricted to [r_lo, r_hi]; finite because the inner
        # integral is bounded away from 0 there
        r_hi = f.envelope.r_max(Q)
        r_lo = r_hi * 1e-4
        inner = _inner_integral(f, Q, S, r_hi * 4.0, variant)
        try:
            tv, _ = integrate_radial_err(
                lambda r: inner(r) ** q * np.abs(r) ** w, Q, r_lo, r_hi,
                rtol=1e-6)
            extras["lhs_truncated_window"] = [r_lo, r_hi]
            extras["lhs_truncated"] = float((S * tv) ** (1.0 / q))
        except DivergenceError:
            pass

    # lhs is exactly 0 or +inf and the constant exact: the ratio has no
    # error bar
    rep = VerificationReport(
        inequality=f"reverse_integral_hardy[{variant}]",
        params={"Q": Q, "p": p, "q": q, "p_prime": pp,
                "W_exponent": w, "U_exponent": u},
        lhs=lhs, rhs=rhs, analytic_constant=kap * A, rhs_stderr=rhs_err,
        sphere=S,
        degenerate=degenerate, extras=extras,
    )
    return rep


# ---------------------------------------------------------------------------
# inequality names
# ---------------------------------------------------------------------------

class InequalityEntry(NamedTuple):
    """How a config names one inequality (see cli.read_inequality)."""

    trials: tuple[str, ...]     # config sections of its profiles, in order
    read: Callable              # (get, Q) -> the verifier's arguments
    # (*profiles, arguments, group, norm, spec); the bilinear entries, which
    # sweep serves, also take forms= (see verify_stein_weiss)
    verify: Callable
    commands: tuple[str, ...] = ("verify", "estimate")


def _read_p(get, Q: float) -> InequalityParams:
    return InequalityParams(Q=Q, p=get("p"))


def _read_ckn(get, Q: float) -> InequalityParams:
    return InequalityParams(Q=Q, p=get("p"), alpha=get("alpha", 0.0),
                            beta=get("beta", 0.0))


def _read_bilinear(get, Q: float) -> InequalityParams:
    """lambda defaults to the value solving the balance condition, which
    has none (NaN) at p = 0 or q' = 0; validate_params rejects both."""
    p, qp = get("p"), get("q_prime")
    alpha, beta = get("alpha", 0.0), get("beta", 0.0)
    lam = get("lambda", None)
    if lam is None:
        lam = (balanced_lambda(Q, p, qp, alpha, beta) if p and qp
               else math.nan)
    return InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam, alpha=alpha,
                            beta=beta, variant=get("variant", "full", str))


def _read_integral_hardy(get, Q: float) -> tuple:
    """(variant, w, u, p, q): the profile goes between u and p."""
    return (get("region", "ball", str), get("W_exponent"),
            get("U_exponent"), get("p"), get("q"))


_TRIAL, _PAIR = ("trial",), ("trial_f", "trial_h")
_VERIFY, _SWEEP = ("verify",), ("verify", "estimate", "sweep")

# The lambdas look the verifiers up as module attributes when called, so a
# rebinding of verify_* (a tracer, a test double) is seen.  sweep defaults
# to the first entry that accepts it.  estimate minimises a ratio, so it
# serves the reverse (lower-bound) rows only: it rejects the forward rows,
# whose ratios are bounded from above, and the integral Hardy pair, every
# one of whose reports is degenerate.
INEQUALITIES: dict[str, InequalityEntry] = {
    "reverse_hardy": InequalityEntry(
        _TRIAL, _read_p, lambda f, P, *r: verify_reverse_hardy(f, P.p, *r)),
    "reverse_sobolev": InequalityEntry(
        _TRIAL, _read_p, lambda f, P, *r: verify_reverse_sobolev(f, P.p, *r)),
    "reverse_ckn": InequalityEntry(
        _TRIAL, _read_ckn,
        lambda f, P, *r: verify_reverse_ckn(f, P.p, P.alpha, P.beta, *r)),
    "forward_hardy": InequalityEntry(
        _TRIAL, _read_p, lambda f, P, *r: verify_forward_hardy(f, P.p, *r),
        _VERIFY),
    "forward_sobolev": InequalityEntry(
        _TRIAL, _read_p, lambda f, P, *r: verify_forward_sobolev(f, P.p, *r),
        _VERIFY),
    "forward_ckn": InequalityEntry(
        _TRIAL, _read_ckn,
        lambda f, P, *r: verify_forward_ckn(f, P.p, P.alpha, P.beta, *r),
        _VERIFY),
    "reverse_stein_weiss": InequalityEntry(
        _PAIR, _read_bilinear, lambda *a, **k: verify_stein_weiss(*a, **k),
        _SWEEP),
    "reverse_hls": InequalityEntry(
        _PAIR, _read_bilinear, lambda *a, **k: verify_reverse_hls(*a, **k),
        _SWEEP),
    "reverse_integral_hardy": InequalityEntry(
        _TRIAL, _read_integral_hardy,
        lambda f, a, *r: verify_reverse_integral_hardy(*a[:3], f, *a[3:], *r),
        _VERIFY),
}
