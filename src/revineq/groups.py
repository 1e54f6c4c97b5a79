"""Homogeneous Lie groups, anisotropic dilations, and homogeneous quasi-norms.

A homogeneous group here is R^N equipped with a polynomial group law for
which the anisotropic dilation

    D_s(x) = (s^{v_1} x_1, ..., s^{v_N} x_N),   v_i > 0,

is a group automorphism for every s > 0.  The homogeneous dimension
Q = v_1 + ... + v_N governs the scaling of Haar measure, which in these
coordinates is Lebesgue measure: |D_s(E)| = s^Q |E|.

A homogeneous quasi-norm is a continuous gauge |.| that is symmetric
(|x| = |x^{-1}|), homogeneous of degree one (|D_s x| = s |x|) and vanishes
only at the origin.  Some gauges additionally satisfy the triangle
inequality |x y| <= |x| + |y| and are flagged ``is_true_norm``.

Built-ins: abelian R^N with arbitrary positive rational weights, and the
first Heisenberg group H1 with weights (1, 1, 2) in the symmetric
(polarized) coordinates where inversion is negation.

Every power of a coordinate or a radius, s^{v_i} in a dilation and the
terms and root of the anisotropic gauge, is exp(v log) through numpy's
array loops, so a point alone and a batch round alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ParameterError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class HomogeneousGroup:
    """A homogeneous group in a fixed global chart on R^N."""

    name: str
    weights: tuple[float, ...]
    law: Callable[[Array, Array], Array]

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def homogeneous_dim(self) -> float:
        """Q, the exact sum of the dilation weights."""
        return math.fsum(self.weights)

    @property
    def identity(self) -> Array:
        return np.zeros(self.dim)

    def __repr__(self) -> str:  # keep reprs short in reports
        return f"HomogeneousGroup({self.name}, weights={self.weights})"


@dataclass(frozen=True)
class QuasiNorm:
    """A homogeneous quasi-norm on a group; a gauge of homogeneous degree 1.

    ``sphere`` is |S|, the exact total mass of the surface measure on the
    unit quasi-sphere in the polar decomposition
    int_G f dx = int_0^inf int_S f(D_r y) r^{Q-1} dsigma(y) dr;
    it equals Q times the Lebesgue measure of the unit ball.
    """

    name: str
    group: HomogeneousGroup
    evaluate: Callable[[Array], Array]
    sphere: float
    is_true_norm: bool = False

    def __call__(self, x) -> Array:
        pts = np.asarray(x, dtype=float)
        _check_last_axis(self.group, pts)
        return self.evaluate(pts)

    def __repr__(self) -> str:
        return f"QuasiNorm({self.name} on {self.group.name})"

    def require_on(self, group: HomogeneousGroup) -> None:
        """Raise ParameterError unless this gauge is on ``group``."""
        if self.group != group:
            raise ParameterError(f"gauge {self.name!r} is on {self.group!r}, "
                                 f"not on {group!r}")


def _check_last_axis(group: HomogeneousGroup, pts: Array):
    if pts.shape[-1:] != (group.dim,):
        raise ShapeError(f"expected points with last axis {group.dim}, got "
                         f"shape {pts.shape}")


def as_points(group: HomogeneousGroup, x) -> Array:
    """Validate and return an (..., N) float array of chart coordinates."""
    pts = np.asarray(x, dtype=float)
    _check_last_axis(group, pts)
    if not np.all(np.isfinite(pts)):
        raise ShapeError("points must have finite coordinates")
    return pts


def dilate(group: HomogeneousGroup, s, x) -> Array:
    """Apply the anisotropic dilation D_s coordinatewise: x_i -> s^{v_i} x_i.

    ``s`` may be a positive scalar or an array broadcasting against the
    leading axes of ``x``.
    """
    s_arr = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(s_arr)
    return _dilate_log(group, s_arr, log_s, x)


def _dilate_log(group: HomogeneousGroup, s: Array, log_s: Array,
                x) -> Array:
    """D_s x for an array of radii s given with log s: x_i times s for
    weight 1 and times exp(v log s) once per other distinct weight v.
    log s is finite only for a positive finite s; any other s raises."""
    if not np.all(np.isfinite(log_s)):
        raise ParameterError("dilation parameter must be positive and finite")
    pts = as_points(group, x)
    out = np.empty(np.broadcast_shapes(s.shape + (group.dim,), pts.shape))
    scales = {1.0: s}
    for i, v in enumerate(group.weights):
        if v not in scales:
            scales[v] = np.exp(v * log_s)
        np.multiply(pts[..., i], scales[v], out=out[..., i])
    return out


def group_mul(group: HomogeneousGroup, x, y) -> Array:
    """Group product; for abelian groups this is vector addition."""
    xs = as_points(group, x)
    ys = as_points(group, y)
    return group.law(xs, ys)


def group_inv(group: HomogeneousGroup, x) -> Array:
    """Group inverse: negation, in the exponential coordinates of every
    built-in group."""
    return -as_points(group, x)


def dilation_quadratic_form(group: HomogeneousGroup, u: Array) -> Array:
    """sum_i v_i u_i^2, the Jacobian density of anisotropic polar coordinates.

    With x = D_r(u) for u on the Euclidean unit sphere, Lebesgue measure
    factorizes as dx = r^{Q-1} (sum_i v_i u_i^2) dr dS(u).  This is what lets
    the quadrature module integrate over the group without an explicit
    parametrization of the quasi-sphere measure.  The terms u_i^2 v_i are
    summed by ``_sum_columns``: for one or two columns that rounds as
    einsum does, and on three it is faster than einsum's loop over a short
    axis.
    """
    u = np.asarray(u, dtype=float)
    return _sum_columns([np.square(u[..., i]) * v
                         for i, v in enumerate(group.weights)])


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------

def _abelian_law(x: Array, y: Array) -> Array:
    return x + y


def abelian_group(weights=(1.0,), name: str | None = None) -> HomogeneousGroup:
    """R^N with vector addition and dilation weights ``weights``, finite,
    positive and of a finite sum Q."""
    w = tuple(float(v) for v in weights)
    try:                    # fsum raises on an intermediate overflow
        valid = (all(0.0 < v < math.inf for v in w)
                 and 0.0 < math.fsum(w) < math.inf)
    except OverflowError:
        valid = False
    if not valid:
        raise ParameterError(f"weights must be a non-empty tuple of finite "
                             f"positive reals with a finite sum, got {w}")
    return HomogeneousGroup(
        name=name or f"abelian{len(w)}",
        weights=w,
        law=_abelian_law,
    )


def _h1_law(x: Array, y: Array) -> Array:
    out = x + y
    # symmetric polarized form; makes inversion exactly negation.  In place,
    # with the rounding of 0.5 * (x1 y2 - x2 y1)
    cross = x[..., 0] * y[..., 1]
    cross -= x[..., 1] * y[..., 0]
    cross *= 0.5
    out[..., 2] += cross
    return out


def heisenberg_group() -> HomogeneousGroup:
    """First Heisenberg group H1: chart (x1, x2, t), weights (1, 1, 2).

    Product: (x1,x2,t)(y1,y2,s) = (x1+y1, x2+y2, t+s+ (x1 y2 - x2 y1)/2).
    """
    return HomogeneousGroup(
        name="heisenberg",
        weights=(1.0, 1.0, 2.0),
        law=_h1_law,
    )


# ---------------------------------------------------------------------------
# built-in quasi-norms
# ---------------------------------------------------------------------------

def _sum_columns(columns: list) -> Array:
    """np.sum(np.stack(columns, -1), -1), bit for bit, without the stack.

    numpy adds a last axis shorter than 8 from left to right and a longer
    one in pairwise blocks; the short case is summed column by column.
    """
    if len(columns) >= 8:
        return np.sum(np.stack(columns, axis=-1), axis=-1)
    total = columns[0]
    for col in columns[1:]:
        total = total + col
    return total


def _euclidean(x) -> Array:
    x = np.asarray(x, dtype=float)
    return np.sqrt(_sum_columns([np.square(x[..., i])
                                 for i in range(x.shape[-1])]))


def _dirichlet_sphere(weights, two_m: float) -> float:
    """|S| of the gauge (sum_i |x_i|^{2M/v_i})^{1/(2M)}: Q times the volume
    2^N prod_i Gamma(1 + v_i/(2M)) / Gamma(1 + Q/(2M)) of its unit ball, a
    Dirichlet body."""
    Q = math.fsum(weights)
    volume = 2.0 ** len(weights) / math.gamma(1.0 + Q / two_m)
    for v in weights:
        volume *= math.gamma(1.0 + v / two_m)
    return Q * volume


def euclidean_norm(group: HomogeneousGroup) -> QuasiNorm:
    """Euclidean norm; homogeneous of degree 1 only for unit weights."""
    if any(v != 1.0 for v in group.weights):
        raise ParameterError(
            "euclidean norm is degree-1 homogeneous only for unit weights; "
            "use anisotropic_gauge instead")
    return QuasiNorm(
        name="euclidean",
        group=group,
        evaluate=_euclidean,
        sphere=_dirichlet_sphere(group.weights, 2.0),
        is_true_norm=True,
    )


def _rational_lcm(values) -> Fraction:
    fracs = [Fraction(v).limit_denominator(10**6) for v in values]
    if not all(fracs):
        raise ParameterError(f"the anisotropic gauge takes the lcm of the "
                             f"weights as fractions of denominator at most "
                             f"10^6, and one of {tuple(values)} rounds to 0")
    num = 1
    for f in fracs:
        num = num * f.numerator // math.gcd(num, f.numerator)
    den = fracs[0].denominator
    for f in fracs[1:]:
        den = math.gcd(den, f.denominator)
    return Fraction(num, den)


def anisotropic_gauge(group: HomogeneousGroup) -> QuasiNorm:
    """Gauge (sum_i |x_i|^{2M/v_i})^{1/(2M)} with M = lcm of the weights.

    The lcm choice keeps every exponent 2M/v_i >= 2, so the gauge is smooth
    away from the origin (no |x_i|^{1/v_i} kinks).
    """
    M = float(_rational_lcm(group.weights))
    expo = np.array([2.0 * M / v for v in group.weights])
    root = 1.0 / (2.0 * M)

    def _eval(x):
        # log 0 = -inf, whose exp is 0
        with np.errstate(divide="ignore"):
            log_ax = np.log(np.abs(x))
            total = _sum_columns([np.exp(e * log_ax[..., i])
                                  for i, e in enumerate(expo)])
            return np.exp(root * np.log(total))

    return QuasiNorm(name=f"anisotropic(M={M:g})", group=group, evaluate=_eval,
                     sphere=_dirichlet_sphere(group.weights, 2.0 * M))


def _h1_gauge(group: HomogeneousGroup, name: str, c: float,
              is_true_norm: bool = False) -> QuasiNorm:
    """The gauge ((x1^2+x2^2)^2 + c t^2)^{1/4} on H1.  Its |S| is Q = 4
    times its unit ball's volume (2/sqrt(c)) |S^1| B(1/2, 3/2) / 4, that
    is 2 pi^2 / sqrt(c).  It is formed in place, each step rounding as
    that formula does, and the fourth root is two square roots: within
    1 ulp of ** 0.25 and faster (85 against 114 us per 40000 points,
    numpy 2.4 on x86-64)."""
    if group.weights != (1.0, 1.0, 2.0):
        raise ParameterError(f"{name} norm is defined on the Heisenberg group")

    def _eval(x):
        x = np.asarray(x, dtype=float)
        # an array even for a single point, which the steps write into;
        # [()] returns a single point's 0-d root as a scalar
        root = np.square(x[..., 0], out=np.empty(x.shape[:-1]))
        root += np.square(x[..., 1])
        np.square(root, out=root)
        t2 = np.square(x[..., 2])
        t2 *= c
        root += t2
        np.sqrt(root, out=root)
        return np.sqrt(root, out=root)[()]

    return QuasiNorm(name=name, group=group, evaluate=_eval,
                     sphere=2.0 * math.pi ** 2 / math.sqrt(c),
                     is_true_norm=is_true_norm)


def koranyi_norm(group: HomogeneousGroup) -> QuasiNorm:
    """Koranyi gauge ((x1^2+x2^2)^2 + t^2)^{1/4} on H1."""
    return _h1_gauge(group, "koranyi", 1.0)


# Coefficient of t^2 in the subadditive gauge on H1 with the polarized law.
# Pinned numerically: see tests/test_groups.py::test_cygan_triangle_inequality.
CYGAN_T_COEFF = 16.0


def cygan_norm(group: HomogeneousGroup) -> QuasiNorm:
    """Cygan-type gauge ((x1^2+x2^2)^2 + c t^2)^{1/4} on H1, a true norm.

    With the polarized group law used here the coefficient c = 16 makes the
    gauge subadditive, so it can serve wherever the triangle inequality is
    needed (kernel bounds for the weighted bilinear form).
    """
    return _h1_gauge(group, "cygan", CYGAN_T_COEFF, is_true_norm=True)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One row of the ``axioms`` report: a sampled violation and the
    tolerance that judges it."""

    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """The one pass rule of ``axioms``: the value within a finite
        tolerance; a NaN value fails."""
        return self.value <= self.tolerance < math.inf


def _sample_points(group: HomogeneousGroup, n: int, rng) -> Array:
    # mix of scales so violations at both small and large points are seen
    scales = 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    return rng.standard_normal((n, group.dim)) * scales


def check_quasi_norm_axioms(norm: QuasiNorm, sample_count: int = 1000,
                            seed: int = 0) -> dict[str, Check]:
    """Probe homogeneity and symmetry (maximal relative errors),
    nondegeneracy (the count of nonzero points whose gauge is not > 0, a
    NaN included) and, if the gauge asserts it, the triangle inequality
    (maximal excess) on pseudo-random samples; deterministic per seed."""
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    g = norm.group
    x = _sample_points(g, sample_count, rng)
    nx = norm(x)

    s = 10.0 ** rng.uniform(-3, 3, size=sample_count)
    hom = np.abs(norm(dilate(g, s, x)) - s * nx) / np.maximum(s * nx, 1e-300)
    sym = np.abs(norm(group_inv(g, x)) - nx) / np.maximum(nx, 1e-300)
    degenerate = ~(nx[np.any(x != 0.0, axis=-1)] > 0.0)
    rows = {"norm_homogeneity": Check(float(np.max(hom)), 1e-12),
            "norm_symmetry": Check(float(np.max(sym)), 1e-12),
            "norm_nondegeneracy": Check(float(np.count_nonzero(degenerate)),
                                        0.5)}
    if norm.is_true_norm:
        y = _sample_points(g, sample_count, rng)
        lhs = norm(group_mul(g, x, y))
        rows["norm_triangle"] = Check(float(np.max(lhs - (nx + norm(y)))),
                                      1e-12)
    return rows


def check_group_axioms(group: HomogeneousGroup, sample_count: int = 10000,
                       seed: int = 0) -> dict[str, Check]:
    """Probe the group axioms (maximal coordinate residuals) and the
    dilation-automorphism property."""
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    x = _sample_points(group, sample_count, rng)
    y = _sample_points(group, sample_count, rng)
    z = _sample_points(group, sample_count, rng)
    e = np.broadcast_to(group.identity, x.shape)

    res_id = np.max(np.abs(group_mul(group, x, e) - x))
    res_inv = np.max(np.abs(group_mul(group, x, group_inv(group, x))))
    res_assoc = np.max(np.abs(
        group_mul(group, group_mul(group, x, y), z)
        - group_mul(group, x, group_mul(group, y, z))))

    # relative where |D_s(xy)| > 1: products of coordinates up to 10^2 and
    # s^{v_i} up to 10^2 carry rounding far above any absolute tolerance
    s = 10.0 ** rng.uniform(-1, 1, size=sample_count)
    lhs = dilate(group, s, group_mul(group, x, y))
    rhs = group_mul(group, dilate(group, s, x), dilate(group, s, y))
    res_auto = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))

    return {name: Check(float(res), 1e-10) for name, res in (
        ("group_identity", res_id), ("group_inverse", res_inv),
        ("group_associativity", res_assoc),
        ("dilation_automorphism", res_auto))}
