"""Trial-function families and empirical best-constant estimation.

Each family builds radially decreasing profiles with analytic derivatives
and matching decay envelopes:

    exp_decay(c)      e^{-c r}
    gaussian(c)       e^{-c r^2}
    power_decay(s,a)  (1 + a r)^{-s}
    smooth_bump(R)    exp(1 - 1/(1 - (r/R)^2)) on [0, R), 0 beyond

The first three build their value and derivative as ``ClosedForm``
callables, whose moments int_0^R |F|^p r^{m-1} dr are

    e^{-c r}          Gamma(m) P(m, pcR) / (pc)^m
    e^{-c r^2}        Gamma(m/2) P(m/2, pcR^2) / (2 (pc)^{m/2})
    (1 + a r)^{-s}    B(m, ps-m) I(m, ps-m) / a^m

with P the regularized lower incomplete Gamma function and I the
regularized incomplete Beta function at aR/(1+aR), taken as the
complement of I(ps-m, m) at 1/(1+aR).  R = inf gives the complete
integrals.  |F'|^p is c^p |F|^p, (2c)^p r^p |F|^p and (sa)^p times the
power moment at s+1.  The callables evaluate the same numpy expressions as
plain lambdas would, so Monte Carlo estimates are unchanged.  smooth_bump
has no closed form and goes through quadrature.

Every inequality ratio in scope is invariant under profile rescaling
f -> c f, and the families are closed under dilation (f o D_s stays in the
family with transformed parameters), which the optimizer exploits: ratios
are flat along pure-scaling directions, so restarts matter more than long
polish runs.

``estimate_best_constant`` minimizes a ratio over a family's parameter box
with common random numbers: the quadrature seed is reused for every
evaluation inside one search, turning Monte Carlo noise into a smooth
surrogate.  The reported minimum is the best of *all* evaluations (grid or
simplex trajectory), so enlarging the budget can never raise it; ties break
lexicographically on the parameter vector.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

from . import inequalities as ineq
from .exceptions import EstimationError, NumericalError, ParameterError
from .groups import HomogeneousGroup, QuasiNorm
from .operators import ClosedForm, RadialProfile
from .quadrature import DecayEnvelope, QuadratureSpec

_MODULE = "trials"


@dataclass(frozen=True)
class TrialFamily:
    family_tag: str
    param_names: tuple[str, ...]
    param_box: tuple[tuple[float, float], ...]
    builder: Callable[..., RadialProfile]

    @property
    def dim(self) -> int:
        return len(self.param_names)


def _gamma_moment(k: float, m: float, R: float) -> float:
    """int_0^R e^{-k r} r^{m-1} dr = Gamma(m) P(m, kR) / k^m."""
    return _sp.gamma(m) * _sp.gammainc(m, k * R) / k ** m


def _beta_moment(a: float, k: float, m: float, R: float) -> float:
    """int_0^R (1 + a r)^{-k} r^{m-1} dr = B(m, k-m) I_t(m, k-m) / a^m with
    t = aR/(1+aR), k > m.  I_t is taken as the complement of
    I_{1/(1+aR)}(k-m, m), which keeps the tail that t rounded towards 1
    would lose (truncation radii have aR >= 10)."""
    return (_sp.beta(m, k - m) * _sp.betaincc(k - m, m, 1.0 / (1.0 + a * R))
            / a ** m)


def _exp_decay(c: float) -> RadialProfile:
    return RadialProfile(
        value=ClosedForm(lambda r: np.exp(-c * np.asarray(r, float)),
                         lambda p, m, R: _gamma_moment(p * c, m, R)),
        derivative=ClosedForm(
            lambda r: -c * np.exp(-c * np.asarray(r, float)),
            lambda p, m, R: c ** p * _gamma_moment(p * c, m, R)),
        envelope=DecayEnvelope("exp", scale=c),
        derivative_envelope=DecayEnvelope("exp", scale=c),
        family_tag="exp_decay", params=(c,),
    )


def _gaussian(c: float) -> RadialProfile:
    def moment(p, m, R):
        # u = r^2: int_0^{R^2} e^{-pc u} u^{m/2-1} du / 2
        return 0.5 * _gamma_moment(p * c, m / 2.0, R * R)

    return RadialProfile(
        value=ClosedForm(lambda r: np.exp(-c * np.asarray(r, float) ** 2),
                         moment),
        derivative=ClosedForm(
            lambda r: -2.0 * c * np.asarray(r, float)
            * np.exp(-c * np.asarray(r, float) ** 2),
            lambda p, m, R: (2.0 * c) ** p * moment(p, m + p, R)),
        envelope=DecayEnvelope("gauss", scale=c),
        derivative_envelope=DecayEnvelope("gauss", scale=c, boost=1.0),
        family_tag="gaussian", params=(c,),
    )


def _power_decay(s: float, a: float = 1.0) -> RadialProfile:
    return RadialProfile(
        value=ClosedForm(lambda r: (1.0 + a * np.asarray(r, float)) ** (-s),
                         lambda p, m, R: _beta_moment(a, p * s, m, R)),
        derivative=ClosedForm(
            lambda r: -s * a * (1.0 + a * np.asarray(r, float)) ** (-s - 1.0),
            lambda p, m, R:
            (s * a) ** p * _beta_moment(a, p * (s + 1.0), m, R)),
        envelope=DecayEnvelope("power", scale=a, shape=s),
        derivative_envelope=DecayEnvelope("power", scale=a, shape=s + 1.0),
        family_tag="power_decay", params=(s, a),
    )


def _smooth_bump(R: float) -> RadialProfile:
    def value(r):
        r = np.asarray(r, dtype=float)
        t2 = (r / R) ** 2
        out = np.zeros_like(t2)
        m = t2 < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - t2[m]))
        return out

    def derivative(r):
        r = np.asarray(r, dtype=float)
        t = r / R
        out = np.zeros_like(t)
        m = t ** 2 < 1.0
        tm = t[m]
        out[m] = np.exp(1.0 - 1.0 / (1.0 - tm ** 2)) * \
            (-2.0 * tm / R) / (1.0 - tm ** 2) ** 2
        return out

    return RadialProfile(
        value=value, derivative=derivative,
        envelope=DecayEnvelope("uniform", scale=R),
        derivative_envelope=DecayEnvelope("uniform", scale=R),
        family_tag="smooth_bump", params=(R,),
    )


FAMILIES: dict[str, TrialFamily] = {
    "exp_decay": TrialFamily("exp_decay", ("c",), ((0.05, 20.0),),
                             _exp_decay),
    "gaussian": TrialFamily("gaussian", ("c",), ((0.05, 20.0),), _gaussian),
    "power_decay": TrialFamily("power_decay", ("s", "a"),
                               ((0.5, 120.0), (0.05, 20.0)), _power_decay),
    "smooth_bump": TrialFamily("smooth_bump", ("R",), ((0.2, 50.0),),
                               _smooth_bump),
}


def _family(family: TrialFamily | str) -> TrialFamily:
    """The family of that name, or the family itself."""
    if isinstance(family, str) and family not in FAMILIES:
        raise ParameterError(f"unknown trial family {family!r}; known: "
                             + ", ".join(FAMILIES), module=_MODULE,
                             operation="trial_family")
    return FAMILIES[family] if isinstance(family, str) else family


def make_profile(family: TrialFamily | str, params: Sequence[float]) -> RadialProfile:
    """Instantiate a family member; parameters must lie in the family box."""
    fam = _family(family)
    params = tuple(float(v) for v in params)
    if len(params) != fam.dim:
        raise ParameterError(
            f"{fam.family_tag} takes {fam.dim} parameter(s) "
            f"{fam.param_names}, got {len(params)}",
            module=_MODULE, operation="make_profile")
    for name, v, (lo, hi) in zip(fam.param_names, params, fam.param_box):
        if not lo <= v <= hi:
            raise ParameterError(
                f"{fam.family_tag}.{name} = {v:g} outside box [{lo:g}, {hi:g}]",
                module=_MODULE, operation="make_profile")
    return fam.builder(*params)


@dataclass(frozen=True)
class SearchSpec:
    method: str = "nelder_mead"      # "grid" | "nelder_mead"
    budget: int = 80
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("grid", "nelder_mead"):
            raise ParameterError(f"unknown search method {self.method!r}",
                                 module=_MODULE, operation="SearchSpec")
        if self.budget < 1 or self.restarts < 1:
            raise ParameterError("budget and restarts must be >= 1",
                                 module=_MODULE, operation="SearchSpec")


@dataclass
class EstimateRecord:
    inequality: str
    min_ratio: float
    argmin: tuple[float, ...]
    evaluations: int
    degenerate_evaluations: int
    analytic_constant: float
    trace: list[tuple[tuple[float, ...], float]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"inequality": self.inequality, "min_ratio": self.min_ratio,
                "argmin": list(self.argmin), "evaluations": self.evaluations,
                "degenerate_evaluations": self.degenerate_evaluations,
                "analytic_constant": self.analytic_constant}


# ---------------------------------------------------------------------------
# derivative-free search
# ---------------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


def _nelder_mead(fn, x0, box):
    """Bounded Nelder-Mead; every evaluation goes through fn, which records
    the trace and ends the run by raising _BudgetExhausted."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    clip = lambda x: np.minimum(np.maximum(x, lo), hi)

    d = len(x0)
    simplex = [np.asarray(x0, float)]
    for i in range(d):
        step = 0.15 * (hi[i] - lo[i])
        v = simplex[0].copy()
        v[i] = v[i] + step if v[i] + step <= hi[i] else v[i] - step
        simplex.append(v)

    vals = [fn(clip(v)) for v in simplex]
    while True:
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        centroid = np.mean(simplex[:-1], axis=0)

        refl = clip(centroid + (centroid - worst))
        fr = fn(refl)
        if fr < vals[0]:
            exp_pt = clip(centroid + 2.0 * (centroid - worst))
            fe = fn(exp_pt)
            simplex[-1], vals[-1] = (exp_pt, fe) if fe < fr else (refl, fr)
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = refl, fr
        else:
            contr = clip(centroid + 0.5 * (worst - centroid))
            fc = fn(contr)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = contr, fc
            else:
                for i in range(1, d + 1):   # shrink toward best
                    simplex[i] = clip(best + 0.5 * (simplex[i] - best))
                    vals[i] = fn(simplex[i])
        if np.max([np.linalg.norm(v - simplex[0]) for v in simplex[1:]]) \
                < 1e-10 * (1.0 + np.linalg.norm(simplex[0])):
            return


def estimate_best_constant(inequality: str, params, families,
                           search: SearchSpec, group: HomogeneousGroup,
                           norm: QuasiNorm, spec: QuadratureSpec,
                           ) -> EstimateRecord:
    """Minimize an inequality ratio over trial-family parameters.

    The minimum over all evaluated points brackets the best constant from
    above; the inequality's analytic constant bounds it from below.  The
    quadrature seed in ``spec`` is reused for every evaluation (common
    random numbers), and results are a pure function of
    (inequality, params, families, search, spec).  A point whose verifier
    raises a NumericalError counts as a degenerate evaluation with ratio
    inf.
    """
    entry = ineq.INEQUALITIES.get(inequality)
    if entry is None or "estimate" not in entry.commands:
        raise ParameterError(
            f"no ratio to estimate for {inequality!r}: the search needs a "
            "reverse (lower-bound) ratio that is not degenerate",
            module=_MODULE, operation="estimate_best_constant")
    # one family per trial profile, or a single family for every profile
    if not isinstance(families, (list, tuple)):
        families = (families,)
    if len(families) == 1:
        families = tuple(families) * len(entry.trials)
    if len(families) != len(entry.trials):
        raise ParameterError(
            f"{inequality} takes {len(entry.trials)} trial family(ies), got "
            f"{len(families)}", module=_MODULE,
            operation="estimate_best_constant")
    fams = [_family(f) for f in families]
    box = sum((fam.param_box for fam in fams), ())
    # where each family's parameters start in the concatenated vector
    starts = list(itertools.accumulate((fam.dim for fam in fams), initial=0))
    trace: list[tuple[tuple[float, ...], float]] = []
    limit = search.budget   # fn evaluates while len(trace) < limit
    degenerate = 0
    constant = math.nan     # the same at every point: it has no profile
    # (ratio, degenerate) at each point evaluated: clipping to the box makes
    # the simplex revisit points, and a revisit costs no second verifier call
    seen: dict[tuple[float, ...], tuple[float, bool]] = {}

    def fn(theta) -> float:
        nonlocal degenerate, constant
        if len(trace) >= limit:
            raise _BudgetExhausted
        theta = tuple(float(t) for t in np.atleast_1d(theta))
        if theta not in seen:
            try:
                profiles = [make_profile(fam, theta[i:i + fam.dim])
                            for fam, i in zip(fams, starts)]
                rep = entry.verify(*profiles, params, group, norm, spec)
                constant = rep.analytic_constant
                seen[theta] = rep.ratio, False
            except NumericalError:
                seen[theta] = math.inf, True
        ratio, failed = seen[theta]
        degenerate += failed
        trace.append((theta, ratio))
        return ratio

    if search.method == "grid":
        per_axis = max(2, int(round(search.budget ** (1.0 / len(box)))))
        with contextlib.suppress(_BudgetExhausted):
            for theta in itertools.product(*(np.linspace(lo, hi, per_axis)
                                             for lo, hi in box)):
                fn(theta)
    else:
        rng = np.random.default_rng(search.seed)
        per_restart = max(len(box) + 2, search.budget // search.restarts)
        for _ in range(search.restarts):
            limit = min(len(trace) + per_restart, search.budget)
            x0 = np.array([rng.uniform(lo, hi) for lo, hi in box])
            with contextlib.suppress(_BudgetExhausted):
                _nelder_mead(fn, x0, box)

    finite = [(v, th) for th, v in trace if math.isfinite(v)]
    if not finite:
        raise EstimationError("every evaluation degenerated or diverged",
                              module=_MODULE, operation="estimate_best_constant")
    best_val, best_theta = min(finite, key=lambda t: (t[0], t[1]))
    return EstimateRecord(
        inequality=inequality,
        min_ratio=float(best_val),
        argmin=tuple(best_theta),
        evaluations=len(trace),
        degenerate_evaluations=degenerate,
        analytic_constant=constant,
        trace=trace,
    )
