"""Integration over homogeneous groups against Haar (= Lebesgue) measure.

Everything here rests on the anisotropic polar factorization of Lebesgue
measure.  Writing x = D_r(u) with r > 0 and u on the *Euclidean* unit
sphere S^{N-1},

    dx = r^{Q-1} L(u) dr dS(u),      L(u) = sum_i v_i u_i^2,

which is exact for any dilation weights v_i.  Radial integrands reduce to
one-dimensional integrals against r^{Q-1} dr (``integrate_radial``), while
genuinely multi-dimensional integrands are handled either by importance-
sampled Monte Carlo (radius drawn from a declared decay envelope, direction
uniform on S^{N-1}, the exact Jacobian above absorbed into the weight) or by
a tensor product of a panelled Gauss-Legendre radial rule with a direction
rule on the sphere.

The total mass |S| of the quasi-sphere measure in the polar decomposition

    int_G f dx = int_0^inf int_S f(D_r y) r^{Q-1} dsigma(y) dr

is recovered without parametrizing sigma, via |S| = (int_G e^{-|x|} dx)/Gamma(Q)
(``sphere_measure``) or via the closed surface integral
|S| = int_{S^{N-1}} L(u) |u|^{-Q} dS(u)  (``sphere_measure_direct``).

Determinism: Monte Carlo results are a pure function of (spec, seed); sums
use numpy's pairwise reduction in a fixed order, so repeated runs are
bit-identical regardless of how many workers the caller shards batches over.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import integrate as _sciint
from scipy import special as _sp

from .exceptions import (DivergenceError, EvaluationError, ParameterError)
from .groups import (HomogeneousGroup, QuasiNorm, dilate,
                     dilation_quadratic_form)

_MODULE = "quadrature"

_OVERFLOW_GUARD = 1e280
_DEFAULT_TAIL_MASS = 1e-8


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: scheme, effort, truncation and seed."""

    scheme: str = "monte_carlo"          # "monte_carlo" | "tensor_grid"
    sample_count: int = 20000            # Monte Carlo points
    nodes_per_axis: int = 96             # radial nodes for tensor_grid
    truncation_radius: float | None = None   # R_max; None = from envelope mass
    inner_cutoff: float = 0.0            # epsilon >= 0
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("monte_carlo", "tensor_grid"):
            raise ParameterError(f"unknown scheme {self.scheme!r}",
                                 module=_MODULE, operation="QuadratureSpec")
        if self.sample_count < 1 or self.nodes_per_axis < 4:
            raise ParameterError("sample_count >= 1 and nodes_per_axis >= 4 required",
                                 module=_MODULE, operation="QuadratureSpec")
        if self.inner_cutoff < 0:
            raise ParameterError("inner_cutoff must be >= 0",
                                 module=_MODULE, operation="QuadratureSpec")
        if self.truncation_radius is not None and \
                self.truncation_radius <= self.inner_cutoff:
            raise ParameterError("truncation_radius must exceed inner_cutoff",
                                 module=_MODULE, operation="QuadratureSpec")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    stderr: float
    samples_used: int
    divergent: bool = False

    def __post_init__(self):
        if not self.divergent and not math.isfinite(self.value):
            raise EvaluationError("non-finite integral without divergence flag",
                                  module=_MODULE, operation="IntegralResult")


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEnvelope:
    """Declared radial decay r^boost * base(r) used for truncation and
    importance sampling.

    kind:
      "exp"      base = exp(-scale * r)
      "gauss"    base = exp(-scale * r^2)
      "power"    base = (1 + scale * r)^(-shape)
      "uniform"  base = 1 on [0, scale]
    """

    kind: str
    scale: float = 1.0
    shape: float = 0.0
    boost: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exp", "gauss", "power", "uniform"):
            raise ParameterError(f"unknown envelope kind {self.kind!r}",
                                 module=_MODULE, operation="DecayEnvelope")
        if self.scale <= 0:
            raise ParameterError("envelope scale must be positive",
                                 module=_MODULE, operation="DecayEnvelope")

    def values(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            poly = np.where(r > 0, r, 1.0) ** self.boost if self.boost else 1.0
        if self.boost and np.ndim(poly):
            poly = np.where(r > 0, poly, 0.0 if self.boost > 0 else np.inf)
        if self.kind == "exp":
            return poly * np.exp(-self.scale * r)
        if self.kind == "gauss":
            return poly * np.exp(-self.scale * r * r)
        if self.kind == "power":
            return poly * (1.0 + self.scale * r) ** (-self.shape)
        return poly * (r <= self.scale)

    def powered(self, p: float) -> "DecayEnvelope":
        """Envelope of (r^boost base)^p; closed within the family."""
        if self.kind == "uniform":
            return self
        return replace(self, boost=self.boost * p,
                       scale=self.scale * p if self.kind in ("exp", "gauss") else self.scale,
                       shape=self.shape * p if self.kind == "power" else 0.0)

    def boosted(self, k: float) -> "DecayEnvelope":
        """Multiply by r^k (extra polynomial growth or singularity)."""
        return replace(self, boost=self.boost + k)

    def scaled(self, s: float) -> "DecayEnvelope":
        """Envelope of r -> env(s r), up to a constant factor."""
        if s <= 0:
            raise ParameterError("scaling factor must be positive",
                                 module=_MODULE, operation="DecayEnvelope.scaled")
        if self.kind == "exp":
            return replace(self, scale=self.scale * s)
        if self.kind == "gauss":
            return replace(self, scale=self.scale * s * s)
        if self.kind == "power":
            return replace(self, scale=self.scale * s)
        return replace(self, scale=self.scale / s)

    def check_integrable(self, Q: float, operation: str = "envelope") -> None:
        m = Q + self.boost
        if m <= 0:
            raise DivergenceError(
                f"r^{self.boost:g} singularity is not integrable against "
                f"r^{Q - 1:g} dr near 0", module=_MODULE, operation=operation)
        if self.kind == "power" and self.shape <= m:
            raise DivergenceError(
                f"power tail (1+ar)^(-{self.shape:g}) does not decay faster "
                f"than r^{-m:g}; integral diverges", module=_MODULE,
                operation=operation)

    def r_max(self, Q: float, tail_mass: float = _DEFAULT_TAIL_MASS) -> float:
        """Radius beyond which the envelope mass against r^{Q-1} dr is below
        ``tail_mass`` of the total.  Closed form per family, so that scaled
        envelopes get exactly scaled radii (keeps dilated runs covariant)."""
        self.check_integrable(Q, "r_max")
        m = Q + self.boost
        if self.kind == "exp":
            return float(_sp.gammainccinv(m, tail_mass) / self.scale)
        if self.kind == "gauss":
            return float(np.sqrt(_sp.gammainccinv(m / 2.0, tail_mass) / self.scale))
        if self.kind == "uniform":
            return self.scale
        # power: total = B(m, shape-m)/a^m; tail ~ (aR)^{m-shape}/(a^m (shape-m))
        total = _sp.beta(m, self.shape - m)
        ar = (tail_mass * (self.shape - m) * total) ** (1.0 / (m - self.shape))
        return float(max(ar, 10.0) / self.scale)


# ---------------------------------------------------------------------------
# sphere helpers
# ---------------------------------------------------------------------------

def unit_sphere_area(n: int) -> float:
    """Surface measure of the Euclidean unit sphere S^{n-1} (2 for n=1)."""
    if n == 1:
        return 2.0
    return float(2.0 * np.pi ** (n / 2.0) / _sp.gamma(n / 2.0))


def _uniform_directions(n_dim: int, n: int, rng) -> np.ndarray:
    if n_dim == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    u = rng.standard_normal((n, n_dim))
    if n_dim >= 8:
        return u / np.linalg.norm(u, axis=-1, keepdims=True)
    # numpy sums an axis shorter than 8 left to right; adding the columns in
    # that order gives np.linalg.norm's values without its per-row reduction
    ss = u[:, 0] * u[:, 0]
    for k in range(1, n_dim):
        ss += u[:, k] * u[:, k]
    return u / np.sqrt(ss)[:, None]


def _direction_rule(n_dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic nodes/weights integrating smooth functions over S^{n-1}.

    n=1: the two points; n=2: trapezoid in angle (spectral for periodic
    integrands); n=3: Gauss-Legendre in cos(phi) x trapezoid in theta.
    """
    if n_dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n_dim == 2:
        th = 2.0 * np.pi * np.arange(m) / m
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(m, 2.0 * np.pi / m)
    if n_dim == 3:
        c, wc = np.polynomial.legendre.leggauss(m)
        k = max(8, m)
        th = 2.0 * np.pi * np.arange(k) / k
        s = np.sqrt(1.0 - c ** 2)
        pts = np.stack([np.outer(s, np.cos(th)),
                        np.outer(s, np.sin(th)),
                        np.outer(c, np.ones(k))], axis=-1).reshape(-1, 3)
        w = np.outer(wc, np.full(k, 2.0 * np.pi / k)).ravel()
        return pts, w
    raise ParameterError(f"no deterministic sphere rule for dimension {n_dim}",
                         module=_MODULE, operation="_direction_rule")


# ---------------------------------------------------------------------------
# radial importance sampler
# ---------------------------------------------------------------------------

class RadialSampler:
    """Samples a radius from density proportional to env(r) r^{Q-1} on
    [r_lo, r_hi], via an exactly invertible piecewise-linear density.

    The piecewise-linear interpolant is itself the proposal density (not an
    approximation of one), so importance weights computed from it are exact
    and the resulting estimators unbiased; the grid resolution only affects
    variance.

    A draw inverts the cumulative mass ``cum`` in O(1) through a guide table
    (Chen & Asau 1974): equal-mass buckets of [0, total) each store the range
    of segments their draws can fall in, so one comparison finds the segment
    except in the few buckets that span more than two segments, which fall
    back to a binary search.
    """

    _BUCKETS_PER_NODE = 2

    def __init__(self, envelope: DecayEnvelope, Q: float,
                 r_lo: float, r_hi: float, n_grid: int = 2048):
        if not (0.0 <= r_lo < r_hi):
            raise ParameterError("need 0 <= r_lo < r_hi", module=_MODULE,
                                 operation="RadialSampler")
        lo = max(r_lo, r_hi * 1e-10)
        grid = np.geomspace(lo, r_hi, n_grid)
        if r_lo == 0.0 and Q + envelope.boost > 1.0:
            grid = np.concatenate([[0.0], grid])
        dens = envelope.values(grid) * np.where(grid > 0, grid, 1.0) ** (Q - 1.0)
        dens = np.where(grid > 0, dens, 0.0 if Q != 1.0 else dens)
        if not np.all(np.isfinite(dens)):
            raise EvaluationError("envelope density non-finite on radial grid",
                                  module=_MODULE, operation="RadialSampler")
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        if not cum[-1] > 0:
            raise ParameterError("envelope has zero mass on [r_lo, r_hi]",
                                 module=_MODULE, operation="RadialSampler")
        self.grid, self.dens, self.cum = grid, dens, cum
        self.total = float(cum[-1])
        # np.interp's slope on each segment
        self._slope = (dens[1:] - dens[:-1]) / (grid[1:] - grid[:-1])
        # guide table: a draw t in bucket k = _bucket(t) lies in segment
        # i(t) = clip(searchsorted(cum, t, "right") - 1, 0, last) within
        # [first[k], first[k] + 1] unless wide[k].  The nodes are bucketed by
        # the same non-decreasing map as the draws, so a node in an earlier
        # bucket lies at or below t and a node in a later bucket above it.
        last = len(grid) - 2
        self._n_buckets = self._BUCKETS_PER_NODE * len(grid)
        self._bucket_scale = self._n_buckets / self.total
        per_bucket = np.bincount(self._bucket(cum), minlength=self._n_buckets)
        below = np.cumsum(per_bucket) - 1      # last node in a bucket <= k
        # last node in a bucket < k: at most last, as node m - 1 = last + 1
        # is in the final bucket; -1 only in bucket 0, which holds node 0
        self._first = np.maximum(below - per_bucket, 0)
        self._wide = np.minimum(below, last) - self._first > 1
        # the node a draw is compared with; +inf after the last segment
        # keeps i(t) <= last
        self._next_cum = np.concatenate([cum[1:-1], [np.inf]])

    def _bucket(self, t: np.ndarray) -> np.ndarray:
        k = (t * self._bucket_scale).astype(np.intp)
        return np.minimum(k, self._n_buckets - 1, out=k)

    def _segment(self, t: np.ndarray) -> np.ndarray:
        k = self._bucket(t)
        i = self._first[k]
        i += self._next_cum[i] <= t
        wide = self._wide[k]
        if wide.any():
            i[wide] = np.clip(np.searchsorted(self.cum, t[wide], side="right")
                              - 1, 0, len(self.grid) - 2)
        return i

    def sample(self, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw n radii; returns (radii, pdf at the radii)."""
        t = rng.random(n) * self.total
        i = self._segment(t)
        a, b = self.grid[i], self.grid[i + 1]
        d0, slope = self.dens[i], self._slope[i]
        tl = t - self.cum[i]
        # stable root of slope x^2/2 + d0 x = tl
        disc = np.sqrt(np.maximum(d0 * d0 + 2.0 * slope * tl, 0.0))
        x = 2.0 * tl / np.maximum(d0 + disc, 1e-300)
        r = a + np.minimum(x, b - a)
        # np.interp's formula on the drawn segment; a radius clipped onto the
        # segment end takes np.interp's value there, the node's own
        dens = slope * (r - a) + d0
        at_end = ~(r < b)
        if at_end.any():
            dens[at_end] = np.interp(r[at_end], self.grid, self.dens)
        return r, dens / self.total

    def pdf(self, r: np.ndarray) -> np.ndarray:
        return np.interp(r, self.grid, self.dens) / self.total


def sample_group_points(group: HomogeneousGroup, sampler: RadialSampler,
                        n: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n points x = D_r(u) plus exact importance weights 1/q(x).

    Returns (points, radii, weights); q is the density of x in the chart,
    q(x) = pdf(r) / (area(S^{N-1}) r^{Q-1} L(u)).
    """
    r, pdf = sampler.sample(n, rng)
    u = _uniform_directions(group.dim, n, rng)
    x = dilate(group, r, u)
    lam = dilation_quadratic_form(group, u)
    area = unit_sphere_area(group.dim)
    q = pdf / (area * r ** (group.homogeneous_dim - 1.0) * lam)
    return x, r, 1.0 / q


# ---------------------------------------------------------------------------
# cartesian integration
# ---------------------------------------------------------------------------

def _resolve_radii(envelope: DecayEnvelope, Q: float,
                   spec: QuadratureSpec) -> tuple[float, float]:
    r_hi = spec.truncation_radius
    if r_hi is None:
        r_hi = envelope.r_max(Q)
    return spec.inner_cutoff, float(r_hi)


def _finalize(vals: np.ndarray, n: int, operation: str,
              points: np.ndarray | None = None) -> IntegralResult:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        if np.any(np.isnan(vals)):
            where = ""
            if points is not None:
                where = f" at point {points[np.argmax(np.isnan(vals))]}"
            raise EvaluationError("integrand returned NaN" + where,
                                  module=_MODULE, operation=operation)
        return IntegralResult(math.inf, math.inf, n, divergent=True)
    value = float(np.sum(vals) / n)
    if abs(value) > _OVERFLOW_GUARD or np.max(np.abs(vals)) / n > _OVERFLOW_GUARD:
        return IntegralResult(math.inf, math.inf, n, divergent=True)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else math.inf
    return IntegralResult(value, stderr, n)


def integrate_cartesian(group: HomogeneousGroup,
                        integrand: Callable[[np.ndarray], np.ndarray],
                        spec: QuadratureSpec,
                        envelope: DecayEnvelope) -> IntegralResult:
    """Estimate int_G integrand(x) dx over the envelope-truncated region.

    ``integrand`` must accept an (n, N) array of points and return (n,)
    values.  The declared envelope drives both the truncation radius (tail
    mass below 1e-8 of the envelope total) and, for the Monte Carlo scheme,
    the radial importance distribution.
    """
    Q = group.homogeneous_dim
    r_lo, r_hi = _resolve_radii(envelope, Q, spec)

    if spec.scheme == "monte_carlo":
        rng = np.random.default_rng(spec.seed)
        sampler = RadialSampler(envelope, Q, r_lo, r_hi)
        n = spec.sample_count
        x, _, w = sample_group_points(group, sampler, n, rng)
        with np.errstate(over="ignore"):
            vals = np.asarray(integrand(x), dtype=float) * w
        return _finalize(vals, n, "integrate_cartesian", x)

    return _tensor_with_refinement(group, integrand, spec, r_lo, r_hi)


def _tensor_value(group: HomogeneousGroup, integrand, n_r: int,
                  r_lo: float, r_hi: float) -> float:
    Q = group.homogeneous_dim
    lo = max(r_lo, r_hi * 1e-8)
    panels = np.geomspace(lo, r_hi, max(2, n_r // 12 + 1))
    if r_lo == 0.0:
        panels = np.concatenate([[0.0], panels])
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    a, b = panels[:-1], panels[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    r = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wr = (half[:, None] * gl_w[None, :]).ravel()

    m = 32 if group.dim >= 3 else max(16, n_r // 2)
    u, wu = _direction_rule(group.dim, m)
    lam = dilation_quadratic_form(group, u)

    pts = dilate(group, np.repeat(r, len(u)),
                 np.tile(u, (len(r), 1)))
    vals = np.asarray(integrand(pts), dtype=float).reshape(len(r), len(u))
    if np.any(np.isnan(vals)):
        raise EvaluationError("integrand returned NaN on tensor grid",
                              module=_MODULE, operation="integrate_cartesian")
    rad = vals @ (wu * lam)
    return float(np.sum(rad * wr * r ** (Q - 1.0)))


def _tensor_with_refinement(group, integrand, spec, r_lo, r_hi) -> IntegralResult:
    fine = _tensor_value(group, integrand, spec.nodes_per_axis, r_lo, r_hi)
    coarse = _tensor_value(group, integrand, max(4, spec.nodes_per_axis // 2),
                           r_lo, r_hi)
    if abs(fine) > _OVERFLOW_GUARD:
        return IntegralResult(math.inf, math.inf, spec.nodes_per_axis,
                              divergent=True)
    return IntegralResult(fine, abs(fine - coarse), spec.nodes_per_axis)


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

def integrate_radial(profile: Callable[[float], float], Q: float,
                     r_min: float = 0.0, r_max: float = math.inf,
                     rtol: float = 1e-11) -> float:
    """High-accuracy value of int_{r_min}^{r_max} profile(r) r^{Q-1} dr."""
    val, _ = integrate_radial_err(profile, Q, r_min, r_max, rtol)
    return val


def integrate_radial_err(profile, Q: float, r_min: float = 0.0,
                         r_max: float = math.inf,
                         rtol: float = 1e-11) -> tuple[float, float]:
    """Like integrate_radial but also returns the quadrature error estimate."""
    if Q < 1.0:
        raise ParameterError("homogeneous dimension below 1 is unsupported",
                             module=_MODULE, operation="integrate_radial")
    if not r_min >= 0.0 or not r_max > r_min:
        raise ParameterError("need 0 <= r_min < r_max", module=_MODULE,
                             operation="integrate_radial")

    def g(r: float) -> float:
        if r > 0:
            try:
                jac = r ** (Q - 1.0)
            except OverflowError:
                raise DivergenceError(
                    f"r^{Q - 1.0:g} overflows at r={r:g}; the radial "
                    "integrand is not representable there", module=_MODULE,
                    operation="integrate_radial") from None
            v = float(profile(r)) * jac
        else:
            v = float(profile(r)) if Q == 1.0 else 0.0
        if math.isnan(v):
            raise EvaluationError(f"profile non-finite at r={r:g}",
                                  module=_MODULE, operation="integrate_radial")
        return v

    # split per decade: keeps adaptive panels well-scaled for slowly decaying
    # tails and for integrable power singularities at 0
    edges = [r_min]
    for k in range(-12, 26):
        e = 10.0 ** k
        if r_min < e < r_max:
            edges.append(e)
    edges.append(r_max)

    total, err = 0.0, 0.0
    with warnings.catch_warnings():
        # slowly convergent tails are expected near sharpness thresholds;
        # the per-panel error estimates are accumulated and reported
        warnings.simplefilter("ignore", _sciint.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            v, e = _sciint.quad(g, a, b, epsabs=1e-280, epsrel=rtol, limit=200)
            total += v
            err += abs(e)
    if math.isnan(total):
        raise EvaluationError("radial integral evaluated to NaN",
                              module=_MODULE, operation="integrate_radial")
    return total, err


# ---------------------------------------------------------------------------
# quasi-sphere measure
# ---------------------------------------------------------------------------

# keyed by the full spec, seed included; the oldest entries are evicted
# beyond this many
_SPHERE_CACHE_MAX = 1024
_SPHERE_CACHE: dict[tuple, IntegralResult] = {}


def sphere_measure(group: HomogeneousGroup, norm: QuasiNorm,
                   spec: QuadratureSpec) -> IntegralResult:
    """|S| = (int_G e^{-|x|} dx) / Gamma(Q), cached per (group, norm, spec)."""
    key = (group.name, group.weights, norm.name, spec)
    hit = _SPHERE_CACHE.get(key)
    if hit is not None:
        return hit
    Q = group.homogeneous_dim
    res = integrate_cartesian(group, lambda x: np.exp(-norm(x)), spec,
                              DecayEnvelope("exp", scale=1.0))
    gam = float(_sp.gamma(Q))
    out = IntegralResult(res.value / gam, res.stderr / gam, res.samples_used,
                         res.divergent)
    _SPHERE_CACHE[key] = out
    if len(_SPHERE_CACHE) > _SPHERE_CACHE_MAX:
        del _SPHERE_CACHE[next(iter(_SPHERE_CACHE))]
    return out


def sphere_measure_direct(group: HomogeneousGroup, norm: QuasiNorm,
                          resolution: int = 256) -> float:
    """Deterministic |S| via the surface integral int_{S^{N-1}} L(u)/|u|^Q dS.

    Exact for N=1; spectrally accurate trapezoid / Gauss-Legendre rules for
    N in {2, 3}.  Serves as an independent oracle for ``sphere_measure``.
    """
    Q = group.homogeneous_dim
    if group.dim <= 3:
        u, w = _direction_rule(group.dim, resolution)
        lam = dilation_quadratic_form(group, u)
        return float(np.sum(w * lam * norm(u) ** (-Q)))
    rng = np.random.default_rng(0)
    u = _uniform_directions(group.dim, 400000, rng)
    lam = dilation_quadratic_form(group, u)
    area = unit_sphere_area(group.dim)
    return float(area * np.mean(lam * norm(u) ** (-Q)))


@dataclass(frozen=True)
class PolarConsistencyReport:
    cartesian: IntegralResult
    factorized: float           # |S| * int profile r^{Q-1} dr
    discrepancy: float          # |cartesian - factorized|
    combined_stderr: float

    @property
    def consistent(self) -> bool:
        return self.discrepancy <= 3.0 * self.combined_stderr + 1e-9


def polar_consistency_check(group: HomogeneousGroup, norm: QuasiNorm,
                            profile: Callable, envelope: DecayEnvelope,
                            spec: QuadratureSpec) -> PolarConsistencyReport:
    """Compare a cartesian integral of g(|x|) with |S| x its radial reduction."""
    cart = integrate_cartesian(group, lambda x: profile(norm(x)), spec, envelope)
    sm = sphere_measure(group, norm, spec)
    Q = group.homogeneous_dim
    r_hi = spec.truncation_radius or envelope.r_max(Q)
    radial = integrate_radial(profile, Q, spec.inner_cutoff, r_hi)
    fact = sm.value * radial
    sig = cart.stderr + abs(radial) * sm.stderr
    return PolarConsistencyReport(cart, fact, abs(cart.value - fact), sig)
