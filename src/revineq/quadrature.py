"""Integration over homogeneous groups against Haar (= Lebesgue) measure.

Everything here rests on the anisotropic polar factorization of Lebesgue
measure.  Writing x = D_r(u) with r > 0 and u on the *Euclidean* unit
sphere S^{N-1},

    dx = r^{Q-1} L(u) dr dS(u),      L(u) = sum_i v_i u_i^2,

which is exact for any dilation weights v_i.  Radial integrands reduce to
one-dimensional integrals against r^{Q-1} dr (``integrate_radial_err``),
which a vectorised, globally adaptive Gauss-Kronrod rule evaluates from a
per-decade initial partition with one numpy call of the integrand per
refinement round, while genuinely multi-dimensional integrands are handled
by importance-sampled Monte Carlo (radius drawn from a declared decay
envelope, direction uniform on S^{N-1}, the exact Jacobian above absorbed
into the weight).  On S^1 and S^2 a direction comes from a point of the
unit disk drawn by rejection from a square (von Neumann, Marsaglia), with
no Gaussians and no trigonometry; r^{Q-1} and the columns of D_r whose
weight is not 1 are formed as exp(v log r) from one logarithm of r.

The total mass |S| of the quasi-sphere measure in the polar decomposition

    int_G f dx = int_0^inf int_S f(D_r y) r^{Q-1} dsigma(y) dr

is exact for every built-in gauge: each carries its closed form as
``QuasiNorm.sphere``, which every verifier reads.  ``sphere_measure``
returns it for outside callers; nothing in the package calls it.  Two
independent estimates check it without parametrizing sigma: the closed
surface integral |S| = int_{S^{N-1}} L(u) |u|^{-Q} dS(u) on a
deterministic rule for dim <= 3 (``sphere_measure_direct``), and
|S| = (int_G e^{-|x|} dx)/Gamma(Q) by Monte Carlo (``sphere_measure_mc``).

State lives in one ``lru_cache`` slot, the draw stream below.  Estimators
keep none, and one that diverges (a sample or the mean infinite or above
1e280) raises ``DivergenceError``.

Determinism: Monte Carlo results are a pure function of the integrand and
the spec with its seed.  The seed-determined part of a sample comes from the
draw stream of (seed, sample_count, group weights): one generator seeded
from the spec fills block 0, then block 1, each with sample_count uniforms
(drawn first), as many unit directions, and L(u) at them (``draw_block``).
A direction on S^1 or S^2 takes a seed-fixed but variable number of
uniforms (rejection), so the stream's length in uniforms is not a fixed
multiple of sample_count; a block still holds what a fresh generator gives.
Side k of an estimator reads block k, so every estimate at one spec sees
the numbers a fresh generator would give it, and a block is drawn once
however many estimates read it.  ``_stream`` holds one stream at a time,
and its arrays are read-only, so that a write in place raises instead of
changing a later estimate.  Each sum is a single numpy reduction over the
whole sample, in the fixed order of numpy's pairwise summation, so repeated
runs are bit-identical.  Splitting a sample into batches would change them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sp

from .exceptions import (DivergenceError, EvaluationError, ParameterError)
from .groups import (Check, HomogeneousGroup, QuasiNorm, _dilate_log,
                     dilation_quadratic_form)

_MODULE = "quadrature"

_OVERFLOW_GUARD = 1e280
_DEFAULT_TAIL_MASS = 1e-8
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class QuadratureSpec:
    """Monte Carlo effort and seed; ranges come from decay envelopes."""

    sample_count: int = 20000            # Monte Carlo points
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ParameterError("sample_count >= 1 required",
                                 module=_MODULE, operation="QuadratureSpec")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    stderr: float


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
        """r^boost base(r) at radii r > 0."""
        r = np.asarray(r, dtype=float)
        poly = r ** self.boost if self.boost else 1.0
        if self.kind == "exp":
            return poly * np.exp(-self.scale * r)
        if self.kind == "gauss":
            return poly * np.exp(-self.scale * r * r)
        if self.kind == "power":
            return poly * (1.0 + self.scale * r) ** (-self.shape)
        return poly * (r <= self.scale)

    @property
    def length(self) -> float:
        """The envelope's own length scale: 1/scale for exp and power,
        1/sqrt(scale) for gauss, and the support radius for uniform."""
        if self.kind == "gauss":
            return 1.0 / math.sqrt(self.scale)
        return self.scale if self.kind == "uniform" else 1.0 / self.scale

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
        if self.kind == "gauss":
            return replace(self, scale=self.scale * s * s)
        if self.kind == "uniform":
            return replace(self, scale=self.scale / s)
        return replace(self, scale=self.scale * s)

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
        envelopes get exactly scaled radii (keeps dilated runs covariant).

        A power tail barely steeper than r^{-Q-boost} can put that radius
        beyond the float range; it is then ``math.inf``, and an integral
        up to it drops no tail."""
        self.check_integrable(Q, "r_max")
        m = Q + self.boost
        if self.kind == "exp":
            return float(_sp.gammainccinv(m, tail_mass) / self.scale)
        if self.kind == "gauss":
            return float(np.sqrt(_sp.gammainccinv(m / 2.0, tail_mass) / self.scale))
        if self.kind == "uniform":
            return self.scale
        # power: total = B(m, shape-m)/a^m; tail ~ (aR)^{m-shape}/(a^m (shape-m))
        log_r = ((math.log(tail_mass * (self.shape - m))
                  + _sp.betaln(m, self.shape - m)) / (m - self.shape)
                 - math.log(self.scale))
        if log_r > _LOG_FLOAT_MAX:
            return math.inf
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


def _disk_points(n: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v1, v2, s = v1^2 + v2^2) for n points uniform in the unit disk
    without its centre, by rejection from the square [-1, 1)^2.

    A batch draws m = k + k // 3 + 16 pairs for the k points still needed,
    as a (2, m) array of uniforms u mapped to v = 2u - 1 (exact), and keeps
    those with 0 < s < 1 in order, up to k.  A batch accepts pi/4 of its
    pairs; it falls short with a probability of at most 1.1e-3 (near
    n = 230) and 8e-45 at n = 20000, and another batch follows.  So the
    count of uniforms drawn varies, but is fixed by the seed."""
    parts = []
    need = n
    while need > 0:
        v = rng.random((2, need + need // 3 + 16))
        v *= 2.0
        v -= 1.0
        s = v[0] * v[0]
        s += v[1] * v[1]
        keep = np.flatnonzero((s < 1.0) & (s > 0.0))[:need]
        parts.append((v[0][keep], v[1][keep], s[keep]))
        need -= len(keep)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(c) for c in zip(*parts))


def _uniform_directions(n_dim: int, n: int, rng) -> np.ndarray:
    """n directions uniform on S^{n_dim - 1}.

    S^0: random signs.  S^1 and S^2 from points v of the unit disk
    (``_disk_points``), with no Gaussians and no trigonometry: von
    Neumann's (v1^2 - v2^2, 2 v1 v2) / s on S^1, whose angle is twice v's,
    and Marsaglia's (2 v1 sqrt(1 - s), 2 v2 sqrt(1 - s), 1 - 2 s) on S^2
    (Ann. Math. Statist. 43, 1972), whose last coordinate 1 - 2s is
    uniform on [-1, 1] as Archimedes' theorem needs.  Both are exactly
    uniform.  Higher dimensions normalise standard Gaussians."""
    if n_dim == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    if n_dim <= 3:
        v1, v2, s = _disk_points(n, rng)
        u = np.empty((n, n_dim))
        if n_dim == 2:
            np.divide(v1 * v1 - v2 * v2, s, out=u[:, 0])
            np.divide(2.0 * v1 * v2, s, out=u[:, 1])
            return u
        t = np.subtract(1.0, s)
        np.sqrt(t, out=t)
        t *= 2.0                        # 2 v t rounds as (2 v) t: 2 is exact
        np.multiply(v1, t, out=u[:, 0])
        np.multiply(v2, t, out=u[:, 1])
        s *= -2.0
        s += 1.0
        u[:, 2] = s
        return u
    u = rng.standard_normal((n, n_dim))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


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
    [0, r_hi], via an exactly invertible piecewise-linear density.

    The piecewise-linear interpolant is itself the proposal density (not an
    approximation of one), so importance weights computed from it are exact
    and the resulting estimators unbiased; the grid resolution only affects
    variance.

    The nodes are geometric from r_hi 1e-10 up to r_hi, ``n_grid`` of them
    (512 by default: over the 972 bilinear forms of criterion 8's grid,
    2048 gave the same median stderr to about 1%, for a slower build and
    draw), plus r = 0 where the density vanishes there.  Where 1e-8 of
    the envelope's own length lies lower, the grid starts there instead,
    with ``n_grid`` nodes per 10 decades: a power envelope near its
    integrability threshold has its 1e-8 tail radius r_hi many decades
    above its bulk, and a grid tied to r_hi alone would put the bulk in the
    straight first segment from 0, where the sample never visits it.  An
    infinite r_hi admits no grid either way, and raises EvaluationError.

    A draw inverts the cumulative mass ``cum`` in O(1) through a guide table
    (Chen & Asau 1974): equal-mass buckets of [0, total) each store the range
    of segments their draws can fall in, so one comparison finds the segment
    except in the few buckets that span more than two segments, which fall
    back to a binary search.
    """

    _BUCKETS_PER_NODE = 2

    def __init__(self, envelope: DecayEnvelope, Q: float, r_hi: float,
                 n_grid: int = 512):
        if not r_hi > 0.0:
            raise ParameterError("need r_hi > 0", module=_MODULE,
                                 operation="RadialSampler")
        if math.isinf(r_hi):
            raise EvaluationError("envelope density non-finite on radial grid "
                                  "(r_hi is infinite)", module=_MODULE,
                                  operation="RadialSampler")
        lo, anchor = r_hi * 1e-10, 1e-8 * envelope.length
        if anchor < lo:
            n_grid = math.ceil(n_grid * math.log10(r_hi / anchor) / 10.0)
            lo = anchor
        grid = np.geomspace(lo, r_hi, n_grid)
        # where the envelope underflows to 0 and r^{Q-1} overflows, their
        # product is NaN, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            dens = envelope.values(grid) * grid ** (Q - 1.0)
        if Q + envelope.boost > 1.0:
            grid = np.concatenate([[0.0], grid])
            dens = np.concatenate([[0.0], dens])
        if not np.all(np.isfinite(dens)):
            raise EvaluationError("envelope density non-finite on radial grid",
                                  module=_MODULE, operation="RadialSampler")
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        if not cum[-1] > 0:
            raise ParameterError("envelope has zero mass on [0, r_hi]",
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
        # the right end of each segment, so that a draw reads it without
        # forming i + 1
        self._grid_hi = grid[1:]

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
        """Draw n radii; returns (radii, pdf at the radii).

        ``rng`` is a generator, or n uniforms on [0, 1) already drawn from
        one, which give the radii that the generator would.
        """
        u = rng if isinstance(rng, np.ndarray) else rng.random(n)
        t = u * self.total
        i = self._segment(t)
        a, b = self.grid[i], self._grid_hi[i]
        d0, slope = self.dens[i], self._slope[i]
        # in place from here on: each step rounds as the expression in its
        # comment does
        tl = t
        tl -= self.cum[i]                           # t - cum[i]
        # stable root of slope x^2/2 + d0 x = tl
        disc = slope * 2.0
        disc *= tl
        disc += d0 * d0                             # d0^2 + 2 slope tl
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)
        disc += d0
        np.maximum(disc, 1e-300, out=disc)          # max(d0 + disc, 1e-300)
        x = tl
        x *= 2.0
        x /= disc                                   # 2 tl / max(...)
        r = b - a
        np.minimum(x, r, out=r)
        r += a                                      # a + min(x, b - a)
        # np.interp's formula on the drawn segment; a radius clipped onto the
        # segment end takes np.interp's value there, the node's own
        dens = np.subtract(r, a, out=a)
        dens *= slope
        dens += d0                                  # slope (r - a) + d0
        at_end = ~(r < b)
        if at_end.any():
            dens[at_end] = np.interp(r[at_end], self.grid, self.dens)
        dens /= self.total
        return r, dens

    def pdf(self, r: np.ndarray) -> np.ndarray:
        return np.interp(r, self.grid, self.dens) / self.total


class DrawBlock(NamedTuple):
    """The seed-determined draws of one sample of n points: n uniforms for
    the radii, then n unit directions u (``_uniform_directions``, drawn
    after the radii's uniforms), and L(u) at them."""

    uniforms: np.ndarray
    directions: np.ndarray
    lam: np.ndarray


def _draw(group: HomogeneousGroup, n: int, rng) -> DrawBlock:
    uniforms = rng.random(n)
    u = _uniform_directions(group.dim, n, rng)
    return DrawBlock(uniforms, u, dilation_quadratic_form(group, u))


# glibc maps an allocation above its mmap threshold afresh and returns the
# heap top to the system beyond twice that threshold; the threshold starts
# at 128 KiB and rises to the size of each larger mapping freed.  Freeing
# one 4 MiB array lifts it above the 0.16-1 MB arrays of a Monte Carlo
# estimate, whose pages are then reused rather than faulted in afresh,
# with room for the bilinear kernel's second pass (glibc 2.36, x86-64:
# 0.2 to 0.4 minor page faults per perfbench sw_grid operation).  With a
# 2 MiB array glibc trimmed the heap top under a version of that kernel
# that made more temporaries: 190 and 320 faults per operation on two of
# three seeds.
np.empty(1 << 19)     # allocated and freed at once


@functools.lru_cache(maxsize=1)
def _stream(seed: int, n: int,
            weights: tuple[float, ...]) -> tuple[list, np.random.Generator]:
    """The blocks of the draw stream of (seed, n, weights) drawn so far and
    the generator that draws the next; the one slot holds the stream last
    asked for."""
    return [], np.random.default_rng(seed)


def draw_block(group: HomogeneousGroup, spec: QuadratureSpec,
               k: int) -> DrawBlock:
    """Block k of the draw stream of (spec.seed, spec.sample_count,
    group.weights): the (k+1)-th ``_draw`` on a fresh
    ``default_rng(spec.seed)``.  ``_stream`` holds the blocks drawn so far;
    each is drawn once, in order, and its arrays are read-only."""
    blocks, rng = _stream(spec.seed, spec.sample_count, group.weights)
    while len(blocks) <= k:
        block = _draw(group, spec.sample_count, rng)
        for a in block:
            a.flags.writeable = False
        blocks.append(block)
    return blocks[k]


def sample_group_points(group: HomogeneousGroup, sampler: RadialSampler,
                        block: DrawBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points x = D_r(u) of a ``DrawBlock`` plus exact importance
    weights 1/q(x), with r drawn by ``sampler`` from the block's uniforms.

    Returns (points, radii, weights); q is the density of x in the chart,
    q(x) = pdf(r) / (area(S^{N-1}) r^{Q-1} L(u)), with r^{Q-1} formed as
    exp((Q-1) log r) and D_r by ``_dilate_log``.
    """
    # a zero uniform gives r = 0 where the radial grid starts there; the
    # other uniforms of Generator.random are multiples of 2^-53, unchanged
    r, pdf = sampler.sample(len(block.uniforms),
                            np.maximum(block.uniforms, 2.0 ** -54))
    # one logarithm for every power of r: exp(v log r) costs a fraction of
    # a general pow, and D_r checks r through it
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(r)
    x = _dilate_log(group, r, log_r, block.directions)
    jac = np.multiply(group.homogeneous_dim - 1.0, log_r, out=log_r)
    np.exp(jac, out=jac)                   # r^{Q-1}
    jac *= unit_sphere_area(group.dim)
    jac *= block.lam
    q = np.divide(pdf, jac, out=pdf)       # pdf / (area r^{Q-1} L(u))
    return x, r, np.divide(1.0, q, out=q)


# ---------------------------------------------------------------------------
# cartesian integration
# ---------------------------------------------------------------------------

def _checked_mean(vals: np.ndarray, n: int, operation: str,
                  points: np.ndarray | None = None, hint: str = "") -> float:
    """Mean of n weighted samples, which must hold no NaN and stay within
    the overflow guard; ``hint`` ends a divergence."""
    nan = np.isnan(vals)
    if nan.any():
        where = "" if points is None else f" at point {points[np.argmax(nan)]}"
        raise EvaluationError("integrand returned NaN" + where,
                              module=_MODULE, operation=operation)
    peak = np.max(np.abs(vals)) / n
    value = float(np.sum(vals) / n) if peak <= _OVERFLOW_GUARD else math.inf
    if abs(value) > _OVERFLOW_GUARD:
        raise DivergenceError(
            f"Monte Carlo estimate diverged: a sample or the mean exceeds "
            f"{_OVERFLOW_GUARD:g}{hint}", module=_MODULE, operation=operation)
    return value


def _plain_stderr(vals: np.ndarray, n: int) -> float:
    """The stderr of the plain mean of n samples."""
    if n <= 1:
        return math.inf
    dev = vals - np.sum(vals) / n
    return math.sqrt(float(np.einsum("i,i->", dev, dev)) / (n - 1) / n)


def integrate_cartesian(group: HomogeneousGroup,
                        integrand: Callable[[np.ndarray], np.ndarray],
                        spec: QuadratureSpec,
                        envelope: DecayEnvelope) -> IntegralResult:
    """Estimate int_G integrand(x) dx over the envelope-truncated region.

    ``integrand`` must accept an (n, N) array of points and return (n,)
    values.  The declared envelope drives both the truncation radius (tail
    mass below 1e-8 of the envelope total) and the radial importance
    distribution of the Monte Carlo estimate.
    """
    Q = group.homogeneous_dim
    sampler = RadialSampler(envelope, Q, envelope.r_max(Q))
    n = spec.sample_count
    x, _, w = sample_group_points(group, sampler, draw_block(group, spec, 0))
    with np.errstate(over="ignore"):
        vals = np.asarray(integrand(x), dtype=float) * w
    value = _checked_mean(vals, n, "integrate_cartesian", x)
    return IntegralResult(value, _plain_stderr(vals, n))


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

# QUADPACK's qk21 pair (Piessens et al. 1983): the Kronrod nodes of [-1, 1]
# from the right end down to 0, their weights, and the weights of the
# 10-point Gauss rule, whose nodes are the odd-numbered Kronrod nodes
_QK21_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_QK21_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208814223550, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_QK21_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651248])


def _qk21_rule() -> tuple[np.ndarray, np.ndarray]:
    """All 21 nodes in ascending order and a (21, 2) matrix whose columns
    are the Kronrod and the Gauss weights on them."""
    gauss = np.zeros(11)
    gauss[1::2] = _QK21_WG
    nodes = np.concatenate([-_QK21_XGK[:-1], _QK21_XGK[::-1]])
    weights = np.stack([np.concatenate([w[:-1], w[::-1]])
                        for w in (_QK21_WGK, gauss)], axis=1)
    return nodes, weights


_GK_NODES, _GK_WEIGHTS = _qk21_rule()
_GK_KRONROD = np.ascontiguousarray(_GK_WEIGHTS[:, 0])
_MAX_SPLITS = 199       # in all, beyond the initial panels
# [0, b] is split at b/16; b * 16^-199 is a normal float for b >= 1e-68,
# so within the budget no node reaches 0 unless r_max < 1e-68
_ZERO_SPLIT = 1.0 / 16.0
_EPS = float(np.finfo(float).eps)
# panel edges between r_min and r_max; above 1e25 only for a finite r_max
_DECADES = 10.0 ** np.arange(-12, 309)


def _qk21(profile, Q: float, a: np.ndarray, b: np.ndarray,
          tail: np.ndarray, tail_start: float):
    """Kronrod value and QUADPACK error estimate on each [a_i, b_i].

    One call of ``profile`` on the flattened nodes of every subinterval.
    Where ``tail`` is set, [a_i, b_i] lies in t in (0, 1] and stands for
    r = tail_start / t, dr = tail_start dt / t^2.
    """
    half = 0.5 * (b - a)
    x = (0.5 * a + 0.5 * b)[:, None] + half[:, None] * _GK_NODES
    r, dr = x, 1.0
    if tail.any():
        t = x[tail]
        r = x.copy()
        r[tail] = tail_start / t
        dr = np.ones_like(x)
        dr[tail] = tail_start / (t * t)
    # an infinite r^{Q-1} is reported before a NaN, which 0 * inf would be
    jac = r ** (Q - 1.0)
    if np.isinf(jac).any():
        raise DivergenceError(
            f"r^{Q - 1.0:g} overflows at r={r[np.isinf(jac)][0]:g}; the "
            "radial integrand is not representable there", module=_MODULE,
            operation="integrate_radial")
    r = r.ravel()
    f = np.asarray(profile(r), dtype=float) * (jac * dr).ravel()
    nan = np.isnan(f)
    if nan.any():
        raise EvaluationError(f"profile non-finite at r={r[nan][0]:g}",
                              module=_MODULE, operation="integrate_radial")
    f = f.reshape(x.shape)
    kron, gauss = (f @ _GK_WEIGHTS).T
    resabs = np.abs(f) @ _GK_KRONROD
    resasc = np.abs(f - 0.5 * kron[:, None]) @ _GK_KRONROD
    kron, resabs, resasc = kron * half, resabs * half, resasc * half
    err = np.abs(kron - gauss * half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return kron, np.maximum(err, 50.0 * _EPS * resabs)


def integrate_radial_err(profile, Q: float, r_min: float = 0.0,
                         r_max: float = math.inf,
                         rtol: float = 1e-11) -> tuple[float, float]:
    """(int_{r_min}^{r_max} profile(r) r^{Q-1} dr, error estimate).

    ``profile`` maps a 1-D array of radii to values; a scalar broadcasts.

    Initial partition: [r_min, r_max] is cut at every power of ten from
    1e-12 up, so that no finite subinterval but the first spans more than a
    decade and slowly decaying tails and integrable power singularities at
    0 stay well scaled.  An infinite r_max cuts at 1e25 at most and
    integrates the last piece [c, inf) in t over (0, 1] with r = c/t,
    dr = c dt/t^2.

    Rule: a globally adaptive 21-point Gauss-Kronrod rule (QUADPACK's
    qk21).  Each round calls ``profile`` once, on the 21 nodes of every
    new subinterval.  The rule stops when the sum of all error estimates is
    at most max(1e-280, rtol * |total|), QUADPACK qag's criterion.
    Otherwise every subinterval whose error estimate exceeds an equal share
    of that target is split in two: at the geometric mean when b > 8a (log
    scale), at b/16 when a = 0 (a geometric mesh towards a power
    singularity at the origin), and at the midpoint otherwise; in the t of
    the infinite piece the midpoint of [0, b] doubles r.  At most 199
    splits are made in all, the largest errors first; an integral that
    uses them up returns an error estimate above its target.

    Error estimate: the sum over all subintervals of QUADPACK's estimate
    resasc * min(1, (200 |K - G| / resasc)^1.5), floored at 50 eps resabs,
    where K and G are the 21-point Kronrod and 10-point Gauss values.  It
    estimates |value - exact| for the integral over [r_min, r_max] as
    evaluated in floating point; it is not a bound, and it is blind to mass
    outside that range and to a profile that underflows to 0.

    Raises ParameterError for Q < 1 or a bad range, DivergenceError naming
    r where r^{Q-1} overflows (tested first, as 0 * inf would read as NaN)
    or where the sum or its error estimate is not finite, and
    EvaluationError where the integrand is NaN.
    """
    if Q < 1.0:
        raise ParameterError("homogeneous dimension below 1 is unsupported",
                             module=_MODULE, operation="integrate_radial")
    if not r_min >= 0.0 or not r_max > r_min:
        raise ParameterError("need 0 <= r_min < r_max", module=_MODULE,
                             operation="integrate_radial")
    top = r_max if math.isfinite(r_max) else 1e26
    edges = _DECADES[(_DECADES > r_min) & (_DECADES < top)]
    a = np.concatenate([[r_min], edges])
    b = np.concatenate([edges, [r_max]])
    tail = np.zeros(len(a), dtype=bool)
    tail_start = 0.0
    if math.isinf(r_max):
        tail[-1], tail_start = True, a[-1]
        a[-1], b[-1] = 0.0, 1.0

    # every subinterval so far: ends, tail flag, Kronrod value, error
    sub_a, sub_b, sub_tail = np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    sub_val, sub_err = np.empty(0), np.empty(0)
    budget = _MAX_SPLITS
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            val, err = _qk21(profile, Q, a, b, tail, tail_start)
            sub_a, sub_b = np.concatenate([sub_a, a]), np.concatenate([sub_b, b])
            sub_tail = np.concatenate([sub_tail, tail])
            sub_val = np.concatenate([sub_val, val])
            sub_err = np.concatenate([sub_err, err])
            total, error = float(np.sum(sub_val)), float(np.sum(sub_err))
            if not (math.isfinite(total) and math.isfinite(error)):
                raise DivergenceError(
                    f"radial sum is not finite ({total:g} +- {error:g}); "
                    "the integrand overflows", module=_MODULE,
                    operation="integrate_radial")
            tol = max(1e-280, rtol * abs(total))
            split = sub_err > tol / len(sub_err)
            if error <= tol or budget == 0 or not split.any():
                break
            if split.sum() > budget:
                # over the budget: split only the largest errors
                mine = np.flatnonzero(split)
                split[mine[np.argsort(sub_err[mine])[:-budget]]] = False
            budget -= int(split.sum())
            lo, hi, tail = sub_a[split], sub_b[split], sub_tail[split]
            keep = ~split
            sub_a, sub_b, sub_tail = sub_a[keep], sub_b[keep], sub_tail[keep]
            sub_val, sub_err = sub_val[keep], sub_err[keep]
            # sqrt(lo) * sqrt(hi): lo * hi overflows above 1e154 and
            # underflows below 1e-162
            mid = np.where((lo > 0.0) & (hi > 8.0 * lo),
                           np.sqrt(lo) * np.sqrt(hi), 0.5 * lo + 0.5 * hi)
            mid = np.where((lo == 0.0) & ~tail, _ZERO_SPLIT * hi, mid)
            a, b = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            tail = np.concatenate([tail, tail])
    return total, error


# ---------------------------------------------------------------------------
# quasi-sphere measure
# ---------------------------------------------------------------------------

def sphere_measure_mc(norm: QuasiNorm, spec: QuadratureSpec) -> IntegralResult:
    """|S| = (int_G e^{-|x|} dx) / Gamma(Q) by Monte Carlo at ``spec``."""
    res = integrate_cartesian(norm.group, lambda x: np.exp(-norm(x)), spec,
                              DecayEnvelope("exp", scale=1.0))
    gam = float(_sp.gamma(norm.group.homogeneous_dim))
    return IntegralResult(res.value / gam, res.stderr / gam)


def sphere_measure(group: HomogeneousGroup, norm: QuasiNorm,
                   spec: QuadratureSpec) -> float:
    """The exact |S|, ``norm.sphere``, for a gauge on ``group``.  Kept for
    outside callers: the package itself reads ``norm.sphere``, and
    ``spec`` is unused."""
    norm.require_on(group, "sphere_measure")
    return norm.sphere


def sphere_measure_direct(group: HomogeneousGroup, norm: QuasiNorm,
                          resolution: int = 256) -> float:
    """Deterministic |S| via the surface integral int_{S^{N-1}} L(u)/|u|^Q dS.

    Exact for N=1; spectrally accurate trapezoid / Gauss-Legendre rules for
    N in {2, 3}.  Raises ParameterError for N >= 4, where no rule exists.
    """
    norm.require_on(group, "sphere_measure_direct")
    u, w = _direction_rule(group.dim, resolution)
    lam = dilation_quadratic_form(group, u)
    return float(np.sum(w * lam * norm(u) ** (-group.homogeneous_dim)))


def polar_consistency_check(norm: QuasiNorm, profile: Callable,
                            envelope: DecayEnvelope,
                            spec: QuadratureSpec) -> dict[str, Check]:
    """Compare a Monte Carlo integral of g(|x|) over the gauge's group with
    its exact |S| times the radial reduction: the discrepancy, judged at 3
    (cartesian stderr + |S| radial error) + 1e-9.  An
    estimate of |S| from the same draws would share any constant factor in
    the weights; the exact |S| exposes it."""
    cart = integrate_cartesian(norm.group, lambda x: profile(norm(x)), spec,
                               envelope)
    Q = norm.group.homogeneous_dim
    radial, err = integrate_radial_err(profile, Q, 0.0, envelope.r_max(Q))
    fact = norm.sphere * radial
    sig = cart.stderr + norm.sphere * err
    return {"polar_consistency": Check(abs(cart.value - fact),
                                       3.0 * sig + 1e-9)}
