import math
import warnings

import numpy as np
import pytest
from scipy import special as sp

from revineq import (DecayEnvelope, DivergenceError, EvaluationError,
                     ParameterError, QuadratureSpec, RadialSampler,
                     abelian_group, anisotropic_gauge, cygan_norm, dilate,
                     euclidean_norm, group_inv, group_mul, heisenberg_group,
                     integrate_cartesian, koranyi_norm, make_profile,
                     polar_consistency_check,
                     sample_group_points, sphere_measure,
                     sphere_measure_direct, sphere_measure_mc,
                     unit_sphere_area)
from revineq import quadrature
from revineq.quadrature import (_draw, _stream, draw_block,
                                integrate_radial_err)

# |S| of the Koranyi unit sphere on H1; equals 2*pi^2 (frozen against the
# closed-form direction integral 2*pi * int_{-1}^{1} (1+c^2)/(c^4-c^2+1) dc)
KORANYI_SPHERE = 2.0 * math.pi ** 2


# ---------------------------------------------------------------------------
# envelopes and the radial sampler
# ---------------------------------------------------------------------------

def test_envelope_rmax_mass_rule():
    env = DecayEnvelope("exp", scale=1.0)
    r = env.r_max(4.0, 1e-8)
    assert sp.gammaincc(4.0, r) == pytest.approx(1e-8, rel=1e-10)


def test_envelope_rmax_beyond_float_range_is_infinite():
    """power_decay (7.392, 13.313), F', p = 0.3, shift 1/2, Q = 2: the tail
    exponent 2.5176 sits just above m = 2.5, so the 1e-8 cutoff lies
    beyond the float range.  r_max says so without a warning, and the
    integral drops no tail; ordinary power cutoffs stay finite."""
    profile = make_profile("power_decay", [7.392, 13.313])
    env = profile.derivative_envelope.powered(0.3).boosted(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.r_max(2.0) == math.inf
        assert DecayEnvelope("power", scale=2.0, shape=5.0).r_max(2.0) == \
            pytest.approx(368.40314986403854, rel=1e-15)


def test_envelope_families_closed_under_power_and_boost():
    env = DecayEnvelope("exp", scale=2.0, boost=1.0)
    r = np.array([0.5, 1.0, 3.0])
    assert np.allclose(env.powered(0.5).values(r), env.values(r) ** 0.5)
    assert np.allclose(env.boosted(2.0).values(r), env.values(r) * r ** 2)
    genv = DecayEnvelope("gauss", scale=1.5)
    assert np.allclose(genv.powered(0.3).values(r), genv.values(r) ** 0.3)
    penv = DecayEnvelope("power", scale=2.0, shape=8.0)
    assert np.allclose(penv.powered(2.0).values(r), penv.values(r) ** 2)


def test_envelope_scaling_covariance():
    env = DecayEnvelope("exp", scale=1.0)
    assert env.scaled(2.0).r_max(4.0) == pytest.approx(env.r_max(4.0) / 2.0)
    genv = DecayEnvelope("gauss", scale=1.0)
    assert genv.scaled(2.0).r_max(4.0) == pytest.approx(genv.r_max(4.0) / 2.0)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
def test_envelope_scaled_rejects_a_factor_that_is_not_positive(s):
    """A NaN factor fails the guard too, as NaN <= 0 is false."""
    with pytest.raises(ParameterError, match="scaling factor must be "
                       "positive"):
        DecayEnvelope("exp").scaled(s)


@pytest.mark.parametrize("kwargs", [
    {"scale": 0.0}, {"scale": math.nan}, {"scale": math.inf},
    {"shape": math.nan}, {"shape": math.inf}, {"boost": math.nan},
    {"boost": -math.inf}])
def test_envelope_rejects_non_finite_fields(kwargs):
    """A scale must be finite and positive, a shape and a boost finite:
    a NaN scale once gave a NaN r_max."""
    with pytest.raises(ParameterError, match="every field finite"):
        DecayEnvelope("power", **{"scale": 1.0, "shape": 8.0, **kwargs})


def test_envelope_divergence_guard():
    with pytest.raises(DivergenceError):
        DecayEnvelope("power", scale=1.0, shape=3.0).r_max(4.0)
    with pytest.raises(DivergenceError):
        DecayEnvelope("exp", boost=-5.0).r_max(4.0)


def test_radial_sampler_matches_density():
    env = DecayEnvelope("exp", scale=1.0)
    sampler = RadialSampler(env, 4.0, env.r_max(4.0))
    rng = np.random.default_rng(0)
    r, _ = sampler.sample(200000, rng)
    # moments of Gamma(4,1): mean 4, second moment 20
    assert np.mean(r) == pytest.approx(4.0, rel=5e-3)
    assert np.mean(r ** 2) == pytest.approx(20.0, rel=1e-2)
    # pdf integrates to one
    grid = np.linspace(1e-6, sampler.grid[-1], 20001)
    assert np.trapezoid(sampler.pdf(grid), grid) == pytest.approx(1.0, rel=1e-3)


def test_sampler_weights_are_unbiased(plane, plane_norm):
    env = DecayEnvelope("exp", scale=1.0)
    sampler = RadialSampler(env, 2.0, env.r_max(2.0))
    rng = np.random.default_rng(5)
    x, r, w = sample_group_points(plane, sampler, _draw(plane, 100000, rng))
    vals = np.exp(-np.sum(x ** 2, axis=-1) * np.pi) * w
    assert np.mean(vals) == pytest.approx(1.0, abs=4 * np.std(vals) / 316.0)


def _reference_segment(sampler, t):
    return np.clip(np.searchsorted(sampler.cum, t, side="right") - 1,
                   0, len(sampler.grid) - 2)


def _reference_sample(sampler, n, rng):
    """The sampler as a binary search per draw plus np.interp for the
    density; the guide table must reproduce it bit for bit."""
    t = rng.random(n) * sampler.total
    i = _reference_segment(sampler, t)
    a, b = sampler.grid[i], sampler.grid[i + 1]
    d0, d1 = sampler.dens[i], sampler.dens[i + 1]
    tl = t - sampler.cum[i]
    beta = (d1 - d0) / (b - a)
    disc = np.sqrt(np.maximum(d0 * d0 + 2.0 * beta * tl, 0.0))
    x = 2.0 * tl / np.maximum(d0 + disc, 1e-300)
    r = a + np.minimum(x, b - a)
    return r, np.interp(r, sampler.grid, sampler.dens) / sampler.total


def _reference_disk(n, rng):
    """Points of the unit disk by rejection, batch by batch: k + k // 3 + 16
    pairs 2u - 1 from a (2, m) array of uniforms for the k points still
    needed, the first k with 0 < s < 1 kept."""
    v1, v2 = np.empty(0), np.empty(0)
    while len(v1) < n:
        k = n - len(v1)
        v = 2.0 * rng.random((2, k + k // 3 + 16)) - 1.0
        s = v[0] * v[0] + v[1] * v[1]
        ok = np.flatnonzero((0.0 < s) & (s < 1.0))[:k]
        v1, v2 = np.concatenate([v1, v[0][ok]]), np.concatenate([v2, v[1][ok]])
    return v1, v2


def _reference_directions(n_dim, n, rng):
    """Random signs on S^0; on S^1 and S^2 von Neumann's and Marsaglia's
    maps of the unit disk; beyond, normalised Gaussians."""
    if n_dim == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    if n_dim in (2, 3):
        v1, v2 = _reference_disk(n, rng)
        s = v1 * v1 + v2 * v2
        if n_dim == 2:
            return np.stack([(v1 * v1 - v2 * v2) / s, 2.0 * v1 * v2 / s], -1)
        root = np.sqrt(1.0 - s)
        return np.stack([2.0 * v1 * root, 2.0 * v2 * root, 1.0 - 2.0 * s], -1)
    u = rng.standard_normal((n, n_dim))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _node_uniforms(sampler):
    """Uniforms whose draws land on each node and up to 40 ulps below it."""
    u = sampler.cum[1:-1] / sampler.total
    below = [u * (1.0 - k * 2.0 ** -53) for k in range(1, 41)]
    return np.concatenate([u, np.nextafter(u, 1.0), *below,
                           [0.0, np.nextafter(1.0, 0.0)]])


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


_SAMPLER_CASES = [
    # (envelope, Q): Q + boost > 1 prepends r = 0 to the grid
    (DecayEnvelope("exp", scale=1.0, boost=2.0), 4.0),
    (DecayEnvelope("exp", scale=0.5), 1.0),
    (DecayEnvelope("exp", scale=1.0, boost=-0.6), 1.0),
    (DecayEnvelope("gauss", scale=2.0), 3.0),
    (DecayEnvelope("power", scale=1.0, shape=1.6), 1.0),
    (DecayEnvelope("power", scale=2.0, shape=4.5, boost=0.3), 4.0),
    (DecayEnvelope("uniform", scale=2.0), 2.0),
]


# explicit ids keep each case's established name, whose last part is the
# sampler's lower radius, 0
@pytest.mark.parametrize("env,Q", _SAMPLER_CASES, ids=[
    f"env{i}-{Q}-0.0" for i, (_, Q) in enumerate(_SAMPLER_CASES)])
def test_radial_sampler_bit_identical_to_binary_search(env, Q):
    sampler = RadialSampler(env, Q, env.r_max(Q))
    assert (sampler.grid[0] == 0.0) == (Q + env.boost > 1.0)
    for seed in range(3):
        r_ref, pdf_ref = _reference_sample(sampler, 50000,
                                           np.random.default_rng(seed))
        r, pdf = sampler.sample(50000, np.random.default_rng(seed))
        np.testing.assert_array_equal(_bits(r), _bits(r_ref))
        np.testing.assert_array_equal(_bits(pdf), _bits(pdf_ref))
        np.testing.assert_array_equal(_bits(pdf), _bits(sampler.pdf(r)))
    # uniforms on and just below every node: draws at segment starts, and
    # roots clipped onto a segment end b
    u = _node_uniforms(sampler)
    r_ref, pdf_ref = _reference_sample(sampler, len(u), _FixedUniforms(u))
    r, pdf = sampler.sample(len(u), _FixedUniforms(u))
    np.testing.assert_array_equal(_bits(r), _bits(r_ref))
    np.testing.assert_array_equal(_bits(pdf), _bits(pdf_ref))
    i = _reference_segment(sampler, u * sampler.total)
    assert np.any(r == sampler.grid[i + 1])


def test_radial_sampler_density_at_segment_end():
    """A root clipped onto b takes np.interp's value at the node, which on a
    coarse grid differs from the segment's line evaluated at b."""
    env = DecayEnvelope("exp", scale=1.0, boost=2.0)
    sampler = RadialSampler(env, 4.0, env.r_max(4.0), n_grid=64)
    u = _node_uniforms(sampler)
    r, pdf = sampler.sample(len(u), _FixedUniforms(u))
    _, pdf_ref = _reference_sample(sampler, len(u), _FixedUniforms(u))
    np.testing.assert_array_equal(_bits(pdf), _bits(pdf_ref))
    i = _reference_segment(sampler, u * sampler.total)
    g, d = sampler.grid, sampler.dens
    on_end = r == g[i + 1]
    line_at_b = (d[i + 1] - d[i]) / (g[i + 1] - g[i]) * (g[i + 1] - g[i]) + d[i]
    assert np.any(on_end & (line_at_b != d[i + 1]))


def test_radial_sampler_guide_falls_back_to_binary_search():
    """Near r = 0 many segments share one equal-mass bucket; draws there
    take the binary search and still land on the reference segment."""
    env = DecayEnvelope("exp", scale=1.0)
    sampler = RadialSampler(env, 4.0, env.r_max(4.0))
    t = np.random.default_rng(7).random(200000) * sampler.total
    assert np.any(sampler._wide[sampler._bucket(t)])
    r_ref, pdf_ref = _reference_sample(sampler, 200000,
                                       np.random.default_rng(7))
    r, pdf = sampler.sample(200000, np.random.default_rng(7))
    np.testing.assert_array_equal(_bits(r), _bits(r_ref))
    np.testing.assert_array_equal(_bits(pdf), _bits(pdf_ref))


@pytest.mark.parametrize("n_dim", [1, 2, 3, 5, 9])
def test_uniform_directions_bit_identical_to_linalg_norm(n_dim):
    """Bit for bit: on S^1 and S^2 the rejection construction written out
    in _reference_directions, elsewhere signs and normalised Gaussians."""
    from revineq.quadrature import _uniform_directions
    ref = _reference_directions(n_dim, 40000, np.random.default_rng(n_dim))
    u = _uniform_directions(n_dim, 40000, np.random.default_rng(n_dim))
    np.testing.assert_array_equal(_bits(u), _bits(ref))


class _RecordingGenerator:
    """A Generator that records the shape of each ``random`` call."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


def test_short_rejection_batch_draws_another():
    """At 230 points a batch of 322 pairs falls short about once in 1000
    seeds; seed 1130 is such a seed.  The next batch asks for the 3 points
    still missing, and the directions keep the reference's bits."""
    from revineq.quadrature import _uniform_directions
    rec = _RecordingGenerator(1130)
    u = _uniform_directions(3, 230, rec)
    assert rec.shapes == [(2, 322), (2, 3 + 3 // 3 + 16)]
    ref = _reference_directions(3, 230, np.random.default_rng(1130))
    np.testing.assert_array_equal(_bits(u), _bits(ref))


@pytest.mark.parametrize("n_dim", [2, 3])
def test_disk_directions_have_unit_length(n_dim):
    """|u| = 1 to within 2 ulp of 1, |u| taken in extended precision."""
    from revineq.quadrature import _uniform_directions
    u = _uniform_directions(n_dim, 200000, np.random.default_rng(11))
    wide = u.astype(np.longdouble)
    length = np.sqrt(np.sum(wide * wide, axis=-1))
    assert np.max(np.abs(length - 1.0)) <= 2.0 * 2.0 ** -52


@pytest.mark.parametrize("n_dim", [2, 3])
def test_disk_directions_are_uniform(n_dim):
    """E u = 0 and E u u^T = I/N within 5 standard errors at 200k points."""
    from revineq.quadrature import _uniform_directions
    n = 200000
    u = _uniform_directions(n_dim, n, np.random.default_rng(12))
    samples = np.concatenate(
        [u, (u[:, :, None] * u[:, None, :]).reshape(n, -1)], axis=1)
    expected = np.concatenate([np.zeros(n_dim),
                               np.eye(n_dim).ravel() / n_dim])
    se = np.std(samples, axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(samples.mean(axis=0) - expected) <= 5.0 * se)


@pytest.mark.parametrize("n_dim", [2, 3])
def test_disk_directions_repeat_for_a_seed(n_dim):
    from revineq.quadrature import _uniform_directions
    a, b, c = (_uniform_directions(n_dim, 5000, np.random.default_rng(seed))
               for seed in (4, 4, 5))
    np.testing.assert_array_equal(_bits(a), _bits(b))
    assert not np.array_equal(a, c)


def test_sample_group_points_bit_identical_to_reference(line, plane, h1):
    """Points D_r(u) and L(u) are rebuilt inline with the whole-array
    expressions, every power of r other than r itself as exp(v log r), so
    a rounding change in the draws, the dilation or
    dilation_quadratic_form shows here."""
    env = DecayEnvelope("exp", scale=1.0, boost=1.5)
    for g in (line, plane, h1):
        Q = g.homogeneous_dim
        sampler = RadialSampler(env, Q, env.r_max(Q))
        x, r, w = sample_group_points(
            g, sampler, _draw(g, 30000, np.random.default_rng(3)))
        rng = np.random.default_rng(3)
        r_ref, pdf_ref = _reference_sample(sampler, 30000, rng)
        u = _reference_directions(g.dim, 30000, rng)
        nu = np.asarray(g.weights)
        log_r = np.log(r_ref)
        x_ref = u * np.stack([r_ref if v == 1.0 else np.exp(v * log_r)
                              for v in nu], -1)
        lam_ref = sum(u[:, i] ** 2 * v for i, v in enumerate(nu))
        q = pdf_ref / (unit_sphere_area(g.dim) * np.exp((Q - 1.0) * log_r)
                       * lam_ref)
        np.testing.assert_array_equal(_bits(r), _bits(r_ref))
        np.testing.assert_array_equal(_bits(x), _bits(x_ref))
        np.testing.assert_array_equal(_bits(w), _bits(1.0 / q))


def test_draw_blocks_match_a_fresh_generator(line, h1):
    """Block k is what the (k+1)-th _draw on a fresh default_rng(seed)
    gives, so every estimator side keeps its bits."""
    env = DecayEnvelope("exp", scale=1.0, boost=1.5)
    spec = QuadratureSpec(sample_count=3000, seed=9)
    for g in (line, h1):
        _stream.cache_clear()
        Q = g.homogeneous_dim
        sampler = RadialSampler(env, Q, env.r_max(Q))
        rng = np.random.default_rng(spec.seed)
        for k in (0, 1):
            ref = sample_group_points(g, sampler, _draw(g, 3000, rng))
            got = sample_group_points(g, sampler, draw_block(g, spec, k))
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("weights,boost,alpha", [
    ((1.0, 1.0, 2.0), 1.0, -1.5), ((1.0, 1.0, 2.0), -1.5, -3.0),
    ((1.0,), 1.0, -0.5)], ids=["h1", "h1_negative_boost", "r1"])
def test_zero_uniform_gives_a_finite_sample(weights, boost, alpha):
    """Generator.random can return 0.0.  Where the radial grid starts at
    r = 0 (Q + boost > 1), that uniform gives a positive radius below every
    other draw's, with a finite positive weight, and |x|^alpha w stays
    finite for alpha < 0; the other uniforms keep their bits."""
    g = heisenberg_group() if len(weights) == 3 else abelian_group(weights)
    norm = koranyi_norm(g) if len(weights) == 3 else euclidean_norm(g)
    env = DecayEnvelope("exp", scale=1.0, boost=boost)
    Q = g.homogeneous_dim
    sampler = RadialSampler(env, Q, env.r_max(Q))
    assert sampler.grid[0] == 0.0
    u = np.array([0.0, 2.0 ** -53, 0.25, np.nextafter(1.0, 0.0)])
    block = draw_block(g, QuadratureSpec(sample_count=4, seed=1), 0)
    x, r, w = sample_group_points(g, sampler, block._replace(uniforms=u))
    assert np.all(r > 0.0) and r[0] < r[1]
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert np.all(np.isfinite(norm(x) ** alpha * w))
    r_ref, _ = sampler.sample(3, u[1:])
    np.testing.assert_array_equal(_bits(r[1:]), _bits(r_ref))


def test_draw_stream_read_only_and_held_alone(plane, h1):
    spec = QuadratureSpec(sample_count=1000, seed=5)
    for a in draw_block(h1, spec, 1):
        with pytest.raises(ValueError):
            a[0] = 0.5
    assert draw_block(h1, spec, 0) is draw_block(h1, spec, 0)
    block = draw_block(plane, spec, 0)
    assert draw_block(plane, spec, 0) is block
    assert _stream.cache_info().currsize == 1
    # a stream at another seed evicts the plane's, which is drawn afresh
    draw_block(h1, QuadratureSpec(sample_count=1000, seed=6), 0)
    assert _stream.cache_info().currsize == 1
    again = draw_block(plane, spec, 0)
    assert again is not block
    for a, b in zip(again, block):
        np.testing.assert_array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# cartesian integration
# ---------------------------------------------------------------------------

def test_integrate_exp_line(line, mc_spec):
    res = integrate_cartesian(line, lambda x: np.exp(-np.abs(x[:, 0])),
                              mc_spec, DecayEnvelope("exp"))
    assert abs(res.value - 2.0) <= 4 * res.stderr + 1e-6


def test_integrate_gaussian_plane(plane):
    res = integrate_cartesian(
        plane, lambda x: np.exp(-np.pi * np.sum(x ** 2, -1)),
        QuadratureSpec(sample_count=40000, seed=3),
        DecayEnvelope("gauss", scale=np.pi))
    assert abs(res.value - 1.0) <= max(4 * res.stderr, 1e-6)


def test_integrate_deterministic_per_seed(h1, koranyi):
    spec = QuadratureSpec(sample_count=5000, seed=77)
    f = lambda x: np.exp(-koranyi(x))
    a = integrate_cartesian(h1, f, spec, DecayEnvelope("exp"))
    b = integrate_cartesian(h1, f, spec, DecayEnvelope("exp"))
    assert a.value == b.value and a.stderr == b.stderr
    c = integrate_cartesian(h1, f, QuadratureSpec(sample_count=5000, seed=78),
                            DecayEnvelope("exp"))
    assert c.value != a.value


def test_integrate_nan_raises(plane, mc_spec):
    def bad(x):
        v = np.ones(len(x))
        v[0] = np.nan
        return v
    with pytest.raises(EvaluationError):
        integrate_cartesian(plane, bad, mc_spec, DecayEnvelope("exp"))


def test_haar_translation_invariance(h1, koranyi, rng):
    """int f(y^{-1} x) dx = int f(x) for compactly supported bumps."""
    bump = make_profile("smooth_bump", [2.0])
    spec = QuadratureSpec(sample_count=60000, seed=13)
    env = DecayEnvelope("exp", scale=1.0)
    base = integrate_cartesian(h1, lambda x: bump(koranyi(x)), spec, env)
    for k in range(5):
        y = rng.standard_normal(3)
        shifted = integrate_cartesian(
            h1, lambda x: bump(koranyi(group_mul(h1, group_inv(h1, y), x))),
            spec, env)
        tol = 3.0 * (base.stderr + shifted.stderr)
        assert abs(base.value - shifted.value) <= tol


def test_dilation_scaling_of_haar(h1, koranyi):
    """int f(D_s x) dx = s^{-Q} int f dx."""
    bump = make_profile("smooth_bump", [2.0])
    spec = QuadratureSpec(sample_count=60000, seed=29)
    env = DecayEnvelope("exp", scale=1.0)
    base = integrate_cartesian(h1, lambda x: bump(koranyi(x)), spec, env)
    s = 1.7
    scaled = integrate_cartesian(
        h1, lambda x: bump(koranyi(dilate(h1, s, x))), spec, env.scaled(s))
    tol = 3.0 * (scaled.stderr + base.stderr * s ** -4)
    assert abs(scaled.value - s ** -4.0 * base.value) <= tol


# ---------------------------------------------------------------------------
# radial integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("Q", [1.0, 2.0, 4.0, 6.0])
def test_gamma_integral(Q):
    val = integrate_radial_err(lambda r: np.exp(-r), Q)[0]
    assert val == pytest.approx(sp.gamma(Q), rel=1e-10)


@pytest.mark.parametrize("Q", [1.0, 2.0, 4.0, 6.0])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_gamma_integral_singular_weight(Q, p):
    val = integrate_radial_err(lambda r: np.exp(-p * r) * r ** (-p), Q)[0]
    assert val == pytest.approx(sp.gamma(Q - p) / p ** (Q - p), rel=1e-8)


def test_radial_unit_box():
    assert integrate_radial_err(lambda r: 1.0, 4.0, 0.0, 1.0)[0] == \
        pytest.approx(0.25)


def test_radial_halfrate_singular():
    val, _ = integrate_radial_err(lambda r: np.exp(-r / 2) * r ** -0.5, 4.0,
                                  0.0, 60.0)
    assert val == pytest.approx(sp.gamma(3.5) * 2 ** 3.5, rel=1e-8)


def test_radial_rejects_bad_range():
    with pytest.raises(ParameterError):
        integrate_radial_err(lambda r: 1.0, 4.0, 2.0, 1.0)


def test_radial_overflow_raises_divergence():
    with pytest.raises(DivergenceError, match="overflows at r="):
        integrate_radial_err(lambda r: (1.0 + r) ** -8.0, 4.0, 0.0, 1e150)
    # 0 * inf is NaN: the overflow is reported, not the NaN it makes
    with pytest.raises(DivergenceError, match="overflows at r="):
        integrate_radial_err(lambda r: np.zeros_like(r), 4.0, 0.0, 1e150)


def test_radial_sum_that_overflows_raises():
    """(1+r)^{-4.1} r^3 over [0, inf) is finite, but its tail piece reaches
    t where r^3 dr overflows and the sum is inf: that raises rather than
    returning (inf, nan) for a norm to carry into a verdict."""
    with pytest.raises(DivergenceError, match="radial sum is not finite"):
        integrate_radial_err(lambda r: (1.0 + r) ** -4.1, 4.0)


def test_radial_nan_raises_evaluation_error():
    with pytest.raises(EvaluationError, match="non-finite at r="):
        integrate_radial_err(lambda r: np.where(r > 2.0, np.nan, 1.0), 2.0,
                             0.0, 10.0)


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize"])
def test_import_does_not_load_scipy_submodule(module):
    """The radial rule is numpy only and the search is the package's own
    Nelder-Mead.  Importing scipy.optimize after revineq takes 0.2-0.3 s
    and lifts the peak RSS from 55 to 77 MB (scipy 1.17, Python 3.11,
    x86-64)."""
    import os
    import subprocess
    import sys
    import revineq
    src = os.path.dirname(os.path.dirname(revineq.__file__))
    code = ("import sys, revineq, revineq.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _quad_reference(profile, Q, r_min=0.0, r_max=math.inf, rtol=1e-11):
    """scipy's quad with one scalar callback per node, run on the decade
    panels that integrate_radial_err starts from, each to rtol of its own
    value."""
    import warnings
    from scipy import integrate
    top = r_max if math.isfinite(r_max) else 1e26
    edges = [r_min] + [10.0 ** k for k in range(-12, 309)
                       if r_min < 10.0 ** k < top] + [r_max]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            total += integrate.quad(
                lambda r: float(profile(r)) * r ** (Q - 1.0), a, b,
                epsabs=1e-280, epsrel=rtol, limit=200)[0]
    return total


def _powered(family, params, p, Q):
    """|F|^p of a trial profile and the truncation radius of its envelope."""
    f = make_profile(family, params)
    return (lambda r: np.abs(f(r)) ** p), f.envelope.powered(p).r_max(Q)


_PROFILE_CASES = [(family, p, Q)
                  for family in ("exp_decay", "gaussian", "power_decay")
                  for p in (0.3, 0.7) for Q in (1.0, 2.0, 4.0)]


def _family_params(family, p, Q):
    # power_decay decays fast enough for every (p, Q) here
    return [(Q + 2.0) / p, 1.0] if family == "power_decay" else [1.0]


@pytest.mark.parametrize("family,p,Q", _PROFILE_CASES)
def test_radial_rule_matches_quad_on_trial_profiles(family, p, Q):
    g, r_max = _powered(family, _family_params(family, p, Q), p, Q)
    val, _ = integrate_radial_err(g, Q, 0.0, r_max)
    assert val == pytest.approx(_quad_reference(g, Q, 0.0, r_max), rel=1e-12)


@pytest.mark.parametrize("profile,Q,r_min,r_max,rel", [
    (lambda r: np.exp(-r), 4.0, 0.0, math.inf, 1e-12),
    (lambda r: np.exp(-r * r), 2.0, 0.0, math.inf, 1e-12),
    (lambda r: np.exp(-r), 4.0, 0.5, 40.0, 1e-12),
    (lambda r: np.exp(-r) * r ** -0.7, 1.0, 0.0, 50.0, 1e-12),
    # a power envelope near its threshold: r^{Q-1} (1+r)^{-4.2} ~ r^{-1.2}
    (lambda r: (1.0 + r) ** -4.2, 4.0, 1e25, 1e40, 1e-10),
])
def test_radial_rule_matches_quad(profile, Q, r_min, r_max, rel):
    val, _ = integrate_radial_err(profile, Q, r_min, r_max)
    assert val == pytest.approx(_quad_reference(profile, Q, r_min, r_max),
                                rel=rel)


def test_radial_rule_integrates_a_slow_tail_to_infinity():
    """(1+r)^{-4.2} r^3 over [0, inf) is B(4, 0.2).  Refined to 1e-11 of
    its own value, the [1e25, inf) piece reached t where r^3 dr overflows,
    and the sum came back as inf with a NaN error."""
    val, err = integrate_radial_err(lambda r: (1.0 + r) ** -4.2, 4.0)
    assert abs(val - sp.beta(4.0, 0.2)) <= err


def test_radial_rule_resolves_a_slow_power_tail():
    """Fifteen decades of an r^{-1.2} tail: 5 (1e-5 - 1e-8) to within
    (1+r)^{-4.2} = r^{-4.2} (1 + O(1e-25))."""
    val, err = integrate_radial_err(lambda r: (1.0 + r) ** -4.2, 4.0,
                                    1e25, 1e40)
    exact = 5.0 * (1e25 ** -0.2 - 1e40 ** -0.2)
    assert val == pytest.approx(exact, rel=1e-12)
    assert abs(val - exact) <= err


@pytest.mark.parametrize("Q,s,exact", [
    # int_0^R (1+r)^{-s} dr and int_0^R (1+r)^{-s} r dr, R = 1e200
    (1.0, 1.05, (1.0 - 1e200 ** -0.05) / 0.05),
    (2.0, 1.05, (1e200 ** 0.95 - 1.0) / 0.95 - (1.0 - 1e200 ** -0.05) / 0.05),
])
def test_radial_rule_splits_panels_beyond_1e154(Q, s, exact):
    """Panels above 1e154 are split where lo * hi overflows; a geometric
    mean taken as sqrt(lo * hi) put nodes at inf and NaN."""
    val, err = integrate_radial_err(lambda r: (1.0 + r) ** -s, Q, 0.0, 1e200)
    assert val == pytest.approx(exact, rel=1e-12)
    assert abs(val - exact) <= err


@pytest.mark.parametrize("Q", [1.0, 2.0])
def test_radial_rule_splits_panels_below_1e162(Q):
    """r^{-0.7} on [0, 1e-150]: the children [b/16, b] of the mesh towards
    the origin split where lo * hi underflows to 0."""
    val, err = integrate_radial_err(lambda r: r ** -0.7, Q, 0.0, 1e-150)
    exact = 1e-150 ** (Q - 0.7) / (Q - 0.7)
    assert val == pytest.approx(exact, rel=1e-12)
    assert abs(val - exact) <= err


@pytest.mark.parametrize("shift,use_derivative", [(-0.5, False),
                                                  (0.0, True)])
def test_radial_rule_cuts_far_cutoffs_per_decade(shift, use_derivative):
    """Reverse Hardy at p = 1/2 on H1 for the power_decay trial (s, a) =
    (7.392, 13.313), near its integrability threshold: the envelope cutoff
    is about 2.5e40.  One panel over [1e25, r_max] puts every node above
    5e37, and both quad and a single qk21 panel missed about 1e-5 of one of
    these integrals while reporting errors near 1e-16."""
    f = make_profile("power_decay", [7.391775949669356, 13.31286386349279])
    fn = f.deriv if use_derivative else f.value
    env = (f.derivative_envelope if use_derivative else f.envelope)
    r_max = env.powered(0.5).boosted(shift).r_max(4.0)
    assert r_max > 1e40

    def g(r):
        return np.abs(fn(r)) ** 0.5 * r ** shift

    val, _ = integrate_radial_err(g, 4.0, 0.0, r_max)
    assert val == pytest.approx(_quad_reference(g, 4.0, 0.0, r_max),
                                rel=1e-10)


@pytest.mark.parametrize("Q", [1.0, 2.0, 4.0, 6.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7])
def test_radial_error_estimate_bounds_gamma_oracles(Q, p):
    """Criterion 2's oracles: the returned error covers |value - exact|."""
    rate = p or 1.0
    val, err = integrate_radial_err(lambda r: np.exp(-rate * r) * r ** -p, Q)
    exact = sp.gamma(Q - p) / rate ** (Q - p)
    assert abs(val - exact) <= err
    assert err <= 1e-10 * exact


@pytest.mark.parametrize("family,Q", [("exp_decay", 4.0), ("gaussian", 4.0),
                                      ("power_decay", 4.0),
                                      ("exp_decay", 1.0)])
def test_radial_rule_calls_profile_few_times_with_arrays(family, Q):
    g, r_max = _powered(family, _family_params(family, 0.7, Q), 0.7, Q)
    shapes = []

    def counted(r):
        shapes.append(np.shape(r))
        return g(r)

    for upper in (r_max, math.inf):
        shapes.clear()
        integrate_radial_err(counted, Q, 0.0, upper)
        assert 1 <= len(shapes) <= 10
        assert all(len(s) == 1 and s[0] % 21 == 0 for s in shapes)


def test_radial_rule_stops_on_the_whole_integral():
    """The error target is rtol times the whole integral: e^{-r} at Q = 4
    over [0, inf) stops after 3 calls.  A target per decade panel refined
    [100, 1000], which holds 4e-38 of the total, to 1e-11 of its own value,
    for 7 calls."""
    calls = []

    def counted(r):
        calls.append(len(r))
        return np.exp(-r)

    val, err = integrate_radial_err(counted, 4.0)
    assert len(calls) <= 3
    assert abs(val - sp.gamma(4.0)) <= err


def test_radial_rule_meshes_geometrically_towards_the_origin():
    """Criterion 2's r^{-0.7} e^{-0.7 r} at Q = 1: splitting [0, b] at b/16
    takes 32 calls; bisecting it took 122."""
    calls = []

    def singular(r):
        calls.append(len(r))
        return np.exp(-0.7 * r) * r ** -0.7

    integrate_radial_err(singular, 1.0)
    assert len(calls) <= 40


def test_radial_rule_stops_at_the_subinterval_cap():
    """1/r is not integrable at 0: the one panel [0, 1e-12] refines until it
    holds 200 subintervals, and the error estimate says it did not converge."""
    nodes = []

    def inverse(r):
        nodes.append(len(r))
        return 1.0 / r

    val, err = integrate_radial_err(inverse, 1.0, 0.0, 1e-12)
    # one subinterval, then two children per split: 199 splits at most
    assert sum(nodes) // 21 <= 1 + 2 * 199
    assert err > 1e-11 * val


# ---------------------------------------------------------------------------
# quasi-sphere measure
# ---------------------------------------------------------------------------

def test_sphere_measure_line(line, line_norm, mc_spec):
    res = sphere_measure_mc(line_norm, mc_spec)
    assert abs(res.value - 2.0) <= 3 * res.stderr + 1e-6
    assert sphere_measure_direct(line, line_norm) == pytest.approx(2.0)


def test_sphere_measure_plane(plane, plane_norm, mc_spec):
    res = sphere_measure_mc(plane_norm, mc_spec)
    assert abs(res.value - 2 * np.pi) <= 3 * res.stderr
    assert sphere_measure_direct(plane, plane_norm) == pytest.approx(
        2 * np.pi, rel=1e-12)


def test_sphere_measure_koranyi(h1, koranyi):
    direct = sphere_measure_direct(h1, koranyi, resolution=512)
    assert direct == pytest.approx(KORANYI_SPHERE, rel=1e-10)
    for seed in (1, 2):
        res = sphere_measure_mc(koranyi,
                                QuadratureSpec(sample_count=100000, seed=seed))
        assert abs(res.value - direct) <= 3 * res.stderr


def test_sphere_measure_mc_repeats_its_bits(koranyi, mc_spec):
    """sphere_measure_mc keeps no state and repeats its bits."""
    b = sphere_measure_mc(koranyi, mc_spec)
    c = sphere_measure_mc(koranyi, mc_spec)
    assert b is not c and b == c


# every built-in gauge on a group of dimension <= 3, with |S| in closed form;
# |S| = Q |unit ball|, {x^4 + y^2 <= 1} has area B(1/4, 3/2), {x^6 + y^4 <= 1}
# has area (2/3) B(1/6, 5/4), and {x^4 + y^4 + t^2 <= 1} has volume
# 8 Gamma(5/4)^2 Gamma(3/2)
_DIRECT_PAIRS = [
    ((1.0,), euclidean_norm, 2.0),
    ((1.0, 1.0), euclidean_norm, 2.0 * math.pi),
    ((1.0, 2.0), anisotropic_gauge, 3.0 * sp.beta(0.25, 1.5)),
    (heisenberg_group, koranyi_norm, 2.0 * math.pi ** 2),
    (heisenberg_group, cygan_norm, math.pi ** 2 / 2.0),
    (heisenberg_group, anisotropic_gauge,
     4.0 * 8.0 * sp.gamma(1.25) ** 2 * sp.gamma(1.5)),
    ((1.0, 1.5), anisotropic_gauge, 2.5 * 2.0 / 3.0 * sp.beta(1 / 6, 1.25)),
    ((1.0, 1.0, 2.0), anisotropic_gauge,
     4.0 * 8.0 * sp.gamma(1.25) ** 2 * sp.gamma(1.5)),
]


@pytest.mark.parametrize("group,gauge,exact", _DIRECT_PAIRS,
                         ids=["r1", "r2", "anisotropic_r2", "h1_koranyi",
                              "h1_cygan", "h1_anisotropic",
                              "anisotropic_r2_3_halves", "anisotropic_r3"])
def test_direct_rule_converged_at_its_resolution(group, gauge, exact):
    """Doubling the direct rule's resolution moves |S| by at most 1e-12 of
    it, and the gauge's exact |S|, which the verifiers read, agrees with
    the rule to 1e-14 and with the closed form written out above."""
    # a weights tuple stands for R^N with those weights
    group = group() if callable(group) else abelian_group(group)
    norm = gauge(group)
    value = sphere_measure_direct(group, norm)
    assert value == sphere_measure_direct(group, norm, 256)
    assert abs(value - sphere_measure_direct(group, norm, 512)) <= \
        1e-12 * value
    assert abs(norm.sphere - value) <= 1e-14 * value
    assert norm.sphere == pytest.approx(exact, rel=1e-14)
    assert sphere_measure(group, norm, QuadratureSpec(sample_count=2,
                                                      seed=1)) == norm.sphere


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 2.0),
                                     (1.0, 2.0, 3.0, 4.0)])
def test_exact_sphere_measure_in_dimension_four(weights):
    """No deterministic rule exists in dimension 4; Monte Carlo at 1M
    samples agrees with the exact |S| within 3 stderr."""
    group = abelian_group(weights)
    norm = anisotropic_gauge(group)
    with pytest.raises(ParameterError):
        sphere_measure_direct(group, norm)
    res = sphere_measure_mc(norm,
                            QuadratureSpec(sample_count=1_000_000, seed=1))
    assert abs(res.value - norm.sphere) <= 3 * res.stderr


def test_weighted_line_sphere():
    """Weights (2,) on R: |S| = 2 * nu = 4, matching int e^{-sqrt|x|} dx."""
    g = None
    from revineq import abelian_group, anisotropic_gauge
    g = abelian_group((2.0,), name="weighted_line")
    gauge = anisotropic_gauge(g)
    assert gauge.sphere == 4.0
    assert sphere_measure_direct(g, gauge) == pytest.approx(4.0)


@pytest.mark.parametrize("profile,envelope", [
    (lambda r: np.exp(-r), DecayEnvelope("exp")),
    (lambda r: np.exp(-r * r), DecayEnvelope("gauss")),
])
def test_polar_consistency(plane_norm, profile, envelope):
    rows = polar_consistency_check(plane_norm, profile, envelope,
                                   QuadratureSpec(sample_count=40000, seed=9))
    assert rows["polar_consistency"].passed


def test_polar_consistency_koranyi(koranyi):
    rows = polar_consistency_check(koranyi, lambda r: np.exp(-r * r),
                                   DecayEnvelope("gauss"),
                                   QuadratureSpec(sample_count=60000, seed=15))
    assert rows["polar_consistency"].passed


def test_polar_consistency_sees_a_constant_factor_in_the_weights(
        plane_norm, monkeypatch):
    """A 0.5% error in the Monte Carlo weights' normalisation fails the
    polar check, which compares with the exact |S|.  A Monte Carlo |S| from
    the same draws carries the same factor, so the comparison with it
    passes, as the check did before it read the exact |S|."""
    area = quadrature.unit_sphere_area
    monkeypatch.setattr(quadrature, "unit_sphere_area",
                        lambda n: 1.005 * area(n))
    spec = QuadratureSpec(sample_count=20000, seed=7)
    profile, envelope = (lambda r: np.exp(-r * r)), DecayEnvelope("gauss")
    rows = polar_consistency_check(plane_norm, profile, envelope, spec)
    assert not rows["polar_consistency"].passed

    cart = integrate_cartesian(plane_norm.group,
                               lambda x: profile(plane_norm(x)), spec,
                               envelope)
    mc_sphere = sphere_measure_mc(plane_norm, spec)
    radial = integrate_radial_err(profile, 2.0, 0.0, envelope.r_max(2.0))[0]
    blind = abs(cart.value - mc_sphere.value * radial)
    assert blind <= 3.0 * (cart.stderr + radial * mc_sphere.stderr) + 1e-9


def test_unit_sphere_area():
    assert unit_sphere_area(1) == 2.0
    assert unit_sphere_area(2) == pytest.approx(2 * np.pi)
    assert unit_sphere_area(3) == pytest.approx(4 * np.pi)


def test_quadrature_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(sample_count=0)
    with pytest.raises(ParameterError, match="seed = -1"):
        QuadratureSpec(seed=-1)
