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
    with pytest.raises(ParameterError):
        dilate(plane, -1.0, [1.0, 2.0])
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


# A single point makes 0-d columns, which a stride-0 exponent would send
# down numpy's power fast paths in about 5% of values: draw many of them.
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
    for s, x in _dilation_cases(rng, g.dim):
        ref = x * np.asarray(s)[..., np.newaxis] ** np.asarray(g.weights)
        out = dilate(g, s, x)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(_bits(out), _bits(ref))


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
        ref = np.sum(np.abs(x) ** expo, -1) ** (1 / (2 * M))
        out = gauge(x)
        assert np.shape(out) == ref.shape
        np.testing.assert_array_equal(_bits(out), _bits(ref))


def test_anisotropic_gauge_rejects_wrong_point_shape():
    gauge = anisotropic_gauge(abelian_group((1.0, 2.0)))
    for x in ([1.0, 2.0, 3.0], [1.0], np.ones((5, 3))):
        with pytest.raises(ShapeError):
            gauge(x)


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
    rep = check_quasi_norm_axioms(make_norm(group), 1000, seed=7)
    assert rep.homogeneity <= 1e-12
    assert rep.symmetry <= 1e-12
    assert rep.nondegeneracy


def test_koranyi_triangle_not_asserted(h1, koranyi):
    rep = check_quasi_norm_axioms(koranyi, 500, seed=3)
    assert not rep.triangle_asserted


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
    rep = check_group_axioms(group, 10000, seed=11)
    assert rep.identity <= 1e-10
    assert rep.inverse <= 1e-10
    assert rep.associativity <= 1e-10
    assert rep.automorphism <= 1e-10
    assert rep.q_equals_weight_sum


def test_automorphism_check_rejects_wrong_weights(h1):
    """Isotropic dilations are not automorphisms of the Heisenberg law."""
    wrong = dataclasses.replace(h1, weights=(1.0, 1.0, 1.0))
    assert check_group_axioms(wrong, 10000, seed=11).automorphism > 1e-2
    assert check_group_axioms(h1, 10000, seed=11).automorphism <= 1e-11


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
