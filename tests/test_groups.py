import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revineq import (ParameterError, ShapeError, abelian_group,
                     anisotropic_gauge, check_group_axioms,
                     check_quasi_norm_axioms, cygan_norm, dilate,
                     euclidean_norm, group_inv, group_mul, heisenberg_group,
                     koranyi_norm)

FINITE_COORD = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


def test_dilate_abelian_unit_weights(plane):
    assert np.allclose(dilate(plane, 3.0, [1.0, 1.0]), [3.0, 3.0])


def test_dilate_heisenberg_weights(h1):
    assert np.allclose(dilate(h1, 2.0, [1.0, 0.0, 1.0]), [2.0, 0.0, 4.0])


def test_dilate_identity(h1, rng):
    x = rng.standard_normal((50, 3))
    assert np.allclose(dilate(h1, 1.0, x), x)


def test_dilate_rejects_bad_input(plane):
    """Only a positive finite s dilates: dilate checks that log s is
    finite, which is false for s <= 0, inf and nan, anywhere in an array."""
    for s in (-1.0, 0.0, np.inf, np.nan, [2.0, -1e-300, 3.0]):
        with pytest.raises(ParameterError):
            dilate(plane, s, [1.0, 2.0])
    with pytest.raises(ShapeError):
        dilate(plane, 2.0, [1.0, 2.0, 3.0])


# Bit-for-bit pins of dilate and the gauges, which work one column at a
# time, against whole-array reference expressions: every report depends on
# these bits.

def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# (weights, M = lcm of the weights, as anisotropic_gauge picks it)
_PIN_GROUPS = [((1.0, 1.0, 2.0), 2.0), ((1.0,), 1.0), ((2.0,), 2.0),
               ((1.0, 1.0), 1.0), ((1.0, 2.0), 2.0), ((1.0, 1.5), 3.0),
               ((0.5, 1.0), 1.0)]


def _pin_group(weights):
    if weights == (1.0, 1.0, 2.0):
        return heisenberg_group()
    return abelian_group(weights)


def _pin_points(rng, shape):
    """Coordinates over many scales, with signs and exact zeros."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
    x[rng.uniform(size=shape) < 0.05] = 0.0
    return x


# A single point makes 0-d columns and numpy scalars, which numpy may round
# by other paths than a batch's loops in a few percent of values (as its
# power does): draw many of them.
_SINGLE_POINTS = 200


def _dilation_cases(rng, dim):
    n, k = 2000, 3
    return [
        (2.7, _pin_points(rng, (n, dim))),
        (10.0 ** rng.uniform(-3, 3, n), _pin_points(rng, (n, dim))),
        (10.0 ** rng.uniform(-3, 3, n), _pin_points(rng, (dim,))),
        (10.0 ** rng.uniform(-3, 3, (k, n)), _pin_points(rng, (k, n, dim))),
    ] + [(s, _pin_points(rng, (dim,)))
         for s in 10.0 ** rng.uniform(-3, 3, _SINGLE_POINTS)]


def _gauge_shapes(dim):
    return [(2000, dim), (3, 2000, dim)] + [(dim,)] * _SINGLE_POINTS


@pytest.mark.parametrize("weights", [w for w, _ in _PIN_GROUPS])
def test_dilate_bit_identical_to_broadcast_power(weights):
    g = _pin_group(weights)
    rng = np.random.default_rng(17)
    v = np.asarray(g.weights)
    for s, x in _dilation_cases(rng, g.dim):
        s_col = np.asarray(s)[..., np.newaxis]
        ref = x * np.where(v == 1.0, s_col, np.exp(v * np.log(s_col)))
        out = dilate(g, s, x)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(_bits(out), _bits(ref))


def test_dilate_weight_one_line_keeps_broadcast_bits():
    """On R^1 with weight 1 the general loop and the broadcast expression
    that the R^1 reports were pinned to agree bit for bit."""
    g = abelian_group((1.0,))
    rng = np.random.default_rng(19)
    for s, x in _dilation_cases(rng, 1):
        ref = x * np.asarray(s)[..., np.newaxis] ** np.asarray(g.weights)
        np.testing.assert_array_equal(_bits(dilate(g, s, x)), _bits(ref))


def test_one_column_weight_two_batch_equals_points():
    """One batched call of dilate or of the anisotropic gauge on
    abelian_group((2.0,)) gives the bits of 2000 calls, one per point."""
    g = abelian_group((2.0,))
    gauge = anisotropic_gauge(g)
    rng = np.random.default_rng(29)
    x = _pin_points(rng, (2000, 1))
    s = 10.0 ** rng.uniform(-3, 3, 2000)
    for scale in (s, 2.7):
        single = np.array([dilate(g, si, xi) for si, xi
                           in zip(np.broadcast_to(scale, len(x)), x)])
        np.testing.assert_array_equal(_bits(dilate(g, scale, x)),
                                      _bits(single))
    single = np.array([gauge(xi) for xi in x])
    np.testing.assert_array_equal(_bits(gauge(x)), _bits(single))


@pytest.mark.parametrize("weights,gauge", [
    ((1.0, 2.0), anisotropic_gauge), ((1.0, 1.5), anisotropic_gauge),
    ((1.0, 1.0, 2.0), anisotropic_gauge), ((1.0, 1.0, 2.0), koranyi_norm),
    ((1.0, 1.0, 2.0), cygan_norm)],
    ids=["anisotropic_r2_12", "anisotropic_r2_115", "anisotropic_h1",
         "koranyi", "cygan"])
def test_gauge_batch_equals_points(weights, gauge):
    """One batched call of a gauge gives the bits of 2000 calls, one per
    point, root and squares included."""
    norm = gauge(_pin_group(weights))
    x = _pin_points(np.random.default_rng(29), (2000, len(weights)))
    single = np.array([norm(xi) for xi in x])
    np.testing.assert_array_equal(_bits(norm(x)), _bits(single))


@pytest.mark.parametrize("gauge,weights", [
    (euclidean_norm, (1.0, 1.0)), (anisotropic_gauge, (1.0, 2.0)),
    (koranyi_norm, (1.0, 1.0, 2.0)), (cygan_norm, (1.0, 1.0, 2.0))])
def test_gauge_of_a_point_is_a_float64(gauge, weights):
    """A single point gives a numpy float64, not a 0-d array."""
    norm = gauge(_pin_group(weights))
    value = norm(np.linspace(0.5, 1.5, len(weights)))
    assert type(value) is np.float64


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_euclidean_norm_bit_identical_to_sum(dim):
    norm = euclidean_norm(abelian_group((1.0,) * dim))
    rng = np.random.default_rng(dim)
    for shape in _gauge_shapes(dim):
        x = _pin_points(rng, shape)
        ref = np.sqrt(np.sum(x ** 2, -1))
        out = norm(x)
        assert np.shape(out) == ref.shape
        np.testing.assert_array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("weights,M", _PIN_GROUPS)
def test_anisotropic_gauge_bit_identical_to_sum(weights, M):
    g = _pin_group(weights)
    gauge = anisotropic_gauge(g)
    assert gauge.name == f"anisotropic(M={M:g})"
    expo = np.array([2.0 * M / v for v in weights])
    rng = np.random.default_rng(23)
    for shape in _gauge_shapes(g.dim):
        x = _pin_points(rng, shape)
        with np.errstate(divide="ignore"):     # log 0 = -inf, exp of it 0
            total = np.sum(np.exp(expo * np.log(np.abs(x))), -1)
            ref = np.exp((1 / (2 * M)) * np.log(total))
        out = gauge(x)
        assert np.shape(out) == ref.shape
        np.testing.assert_array_equal(_bits(out), _bits(ref))


@pytest.mark.parametrize("gauge,c", [(koranyi_norm, None),
                                     (cygan_norm, 16.0)])
def test_h1_gauges_bit_identical_to_formula(gauge, c):
    """Koranyi and Cygan come from one constructor of
    ((x1^2+x2^2)^2 + c t^2)^{1/4}, the fourth root taken as two square
    roots; Koranyi's c = 1 multiplies exactly, so it keeps the bits of the
    formula without the factor.  The two roots stay within 1 ulp of
    ** 0.25."""
    norm = gauge(heisenberg_group())
    rng = np.random.default_rng(31)
    for shape in _gauge_shapes(3):
        x = _pin_points(rng, shape)
        pts = x.reshape(-1, 3)
        t2 = pts[:, 2] ** 2 if c is None else c * pts[:, 2] ** 2
        inner = (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 2 + t2
        ref = np.sqrt(np.sqrt(inner)).reshape(shape[:-1])
        got = norm(x)
        np.testing.assert_array_equal(_bits(got), _bits(ref))
        np.testing.assert_array_max_ulp(
            got, (inner ** 0.25).reshape(shape[:-1]), maxulp=1)


def test_anisotropic_gauge_rejects_wrong_point_shape():
    gauge = anisotropic_gauge(abelian_group((1.0, 2.0)))
    for x in ([1.0, 2.0, 3.0], [1.0], np.ones((5, 3))):
        with pytest.raises(ShapeError):
            gauge(x)


def test_gauges_reject_wrong_last_axis(plane, h1):
    """A 3-D point is not a point of R^2, nor a 4-D one of H1."""
    with pytest.raises(ShapeError):
        euclidean_norm(plane)([1.0, 2.0, 2.0])
    with pytest.raises(ShapeError):
        koranyi_norm(h1)([1.0, 0.0, 0.0, 5.0])


def test_group_mul_rejects_non_finite_points(plane, h1):
    """Either factor with an infinite or NaN coordinate is refused."""
    for g in (plane, h1):
        good = np.ones(g.dim)
        for bad in (np.inf, -np.inf, np.nan):
            point = good.copy()
            point[-1] = bad
            with pytest.raises(ShapeError):
                group_mul(g, point, good)
            with pytest.raises(ShapeError):
                group_mul(g, good, np.stack([good, point]))


def test_heisenberg_law_leaves_inputs_unmodified(h1, rng):
    x = rng.standard_normal((100, 3))
    y = rng.standard_normal((100, 3))
    x0, y0 = x.copy(), y.copy()
    out = group_mul(h1, x, y)
    assert out is not x and out is not y
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(y, y0)
    point = y[0].copy()
    group_mul(h1, point, x)
    np.testing.assert_array_equal(point, y0[0])
    np.testing.assert_array_equal(x, x0)


def test_abelian_law_is_addition(plane):
    assert np.allclose(group_mul(plane, [1.0, 2.0], [3.0, 4.0]), [4.0, 6.0])


def test_heisenberg_law_polarized(h1):
    out = group_mul(h1, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, [1.0, 1.0, 0.5])


def test_heisenberg_inverse_is_negation(h1, rng):
    x = rng.standard_normal((100, 3)) * 5
    prod = group_mul(h1, x, group_inv(h1, x))
    assert np.max(np.abs(prod)) < 1e-12


def test_homogeneous_dim():
    assert heisenberg_group().homogeneous_dim == 4.0
    assert abelian_group((1.0, 1.0, 1.0)).homogeneous_dim == 3.0
    assert abelian_group((0.5, 1.5)).homogeneous_dim == 2.0


@pytest.mark.parametrize("point,expected", [
    ([1.0, 0.0, 0.0], 1.0),
    ([0.0, 0.0, 1.0], 1.0),
    ([2.0, 0.0, 0.0], 2.0),
])
def test_koranyi_values(h1, koranyi, point, expected):
    assert koranyi(point) == pytest.approx(expected, rel=1e-14)


def test_euclidean_norm_rejects_anisotropic_weights():
    g = abelian_group((1.0, 2.0))
    with pytest.raises(ParameterError):
        euclidean_norm(g)


def test_anisotropic_gauge_reduces_to_euclidean_exponents(h1):
    gauge = anisotropic_gauge(h1)
    # lcm of (1,1,2) is 2, so exponents are (4,4,2)
    assert gauge([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert gauge([0.0, 0.0, 1.0]) == pytest.approx(1.0)
    val = gauge([1.0, 1.0, 0.0])
    assert val == pytest.approx(2.0 ** 0.25)


@pytest.mark.parametrize("make_norm,group_fixture", [
    (euclidean_norm, "plane"),
    (koranyi_norm, "h1"),
    (cygan_norm, "h1"),
    (anisotropic_gauge, "h1"),
])
def test_quasi_norm_axioms(request, make_norm, group_fixture):
    group = request.getfixturevalue(group_fixture)
    rows = check_quasi_norm_axioms(make_norm(group), 1000, seed=7)
    assert rows["norm_homogeneity"].value <= 1e-12
    assert rows["norm_symmetry"].value <= 1e-12
    assert rows["norm_nondegeneracy"].value == 0.0


def test_koranyi_triangle_not_asserted(h1, koranyi):
    assert "norm_triangle" not in check_quasi_norm_axioms(koranyi, 500, seed=3)


def test_cygan_triangle_inequality(h1, cygan, rng):
    """The t-coefficient 16 makes the gauge subadditive for the polarized law."""
    n = 200000
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
    y = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
    viol = cygan(group_mul(h1, x, y)) - (cygan(x) + cygan(y))
    assert np.max(viol) <= 1e-12


@pytest.mark.parametrize("group_fixture", ["line", "plane", "h1"])
def test_group_axioms_and_automorphism(request, group_fixture):
    group = request.getfixturevalue(group_fixture)
    rows = check_group_axioms(group, 10000, seed=11)
    assert rows["group_identity"].value <= 1e-10
    assert rows["group_inverse"].value <= 1e-10
    assert rows["group_associativity"].value <= 1e-10
    assert rows["dilation_automorphism"].value <= 1e-10


def test_automorphism_check_rejects_wrong_weights(h1):
    """Isotropic dilations are not automorphisms of the Heisenberg law."""
    wrong = dataclasses.replace(h1, weights=(1.0, 1.0, 1.0))
    auto = "dilation_automorphism"
    assert check_group_axioms(wrong, 10000, seed=11)[auto].value > 1e-2
    assert check_group_axioms(h1, 10000, seed=11)[auto].value <= 1e-11


def test_axiom_reports_deterministic(h1, koranyi):
    a = check_quasi_norm_axioms(koranyi, 500, seed=5)
    b = check_quasi_norm_axioms(koranyi, 500, seed=5)
    assert a == b


@given(s=st.floats(min_value=1e-3, max_value=1e3),
       coords=st.tuples(FINITE_COORD, FINITE_COORD, FINITE_COORD))
@settings(max_examples=200, deadline=None)
def test_koranyi_homogeneity_property(s, coords):
    h = heisenberg_group()
    nk = koranyi_norm(h)
    x = np.array(coords)
    lhs = nk(dilate(h, s, x))
    rhs = s * nk(x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(coords=st.tuples(FINITE_COORD, FINITE_COORD, FINITE_COORD))
@settings(max_examples=200, deadline=None)
def test_heisenberg_inverse_property(coords):
    h = heisenberg_group()
    x = np.array(coords)
    assert np.allclose(group_mul(h, x, group_inv(h, x)), 0.0, atol=1e-9)
