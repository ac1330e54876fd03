"""The numpy-only special functions against scipy and numpy as the oracles."""

import math
import statistics
import warnings

import numpy as np
import pytest
from scipy import special as sp

from tokenimpact.special import expit, ndtr, ndtri, quantile


def test_ndtr_matches_scipy_with_tails():
    x = np.linspace(-37.0, 37.0, 740_001)
    got, ref = ndtr(x), sp.ndtr(x)
    assert np.abs(got - ref).max() <= 1e-15
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_ndtri_matches_scipy_with_tails():
    p = np.concatenate([
        np.logspace(-300, -1, 100_001),
        np.linspace(0.01, 0.99, 100_001),
        1.0 - np.logspace(-1, -12, 100_001),
    ])
    got, ref = ndtri(p), sp.ndtri(p)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_ndtri_is_as241_of_the_standard_library():
    # statistics.NormalDist evaluates the same AS241 polynomials in C, where
    # the compiler may fuse a multiply and an add: allow a few ulps
    rng = np.random.default_rng(5)
    p = np.concatenate([rng.random(500), 10.0 ** rng.uniform(-300, -2, 500)])
    ref = [statistics.NormalDist().inv_cdf(float(v)) for v in p]
    assert np.allclose(ndtri(p), ref, rtol=1e-15, atol=0.0)


def test_expit_matches_scipy_without_warnings():
    x = np.linspace(-800.0, 800.0, 1_600_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    np.testing.assert_allclose(got, sp.expit(x), rtol=1e-15, atol=0.0)
    assert expit(0.0) == 0.5 and expit(800.0) == 1.0 and expit(-800.0) == 0.0


def test_edge_values():
    assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0 and ndtr(0.0) == 0.5
    assert math.isnan(ndtr(np.nan))
    assert ndtri(0.5) == 0.0
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
    assert np.isnan(ndtri([-1e-300, 1.0 + 1e-15, np.nan])).all()
    for p in (5e-324, 1e-300, 1e-17, 1.0 - 2.0**-53, 1.0 - 1e-15):
        assert ndtri(p) == pytest.approx(sp.ndtri(p), rel=1e-14)
    assert ndtri(5e-324) < ndtri(1e-300) < ndtri(1e-17) < -8.0
    assert ndtri(1.0 - 2.0**-53) > 8.0


def test_shapes_follow_the_input():
    assert ndtr(1.0).shape == () and ndtri(0.3).shape == () and expit(1.0).shape == ()
    grid = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    assert ndtr(grid).shape == ndtri(grid).shape == expit(grid).shape == (2, 3)
    assert ndtr(ndtri(grid)) == pytest.approx(grid, rel=1e-14)


QUANTILES = [0.0, 0.025, 0.95, 0.975, 1.0]


def _samples():
    rng = np.random.default_rng(5)
    # at n = 11 and 21 some levels fall halfway between two ranks
    for n in (1, 2, 3, 7, 11, 21, 40, 199, 200, 201, 1000):
        yield rng.standard_normal(n)
        yield rng.integers(0, 4, n) / 3.0  # ties
    # 0.025 of 21 values lies halfway between the two lowest, where numpy
    # interpolates down from the upper one
    yield np.r_[-1.303157231604361, 0.33043707618338714, np.arange(2.0, 21.0)]
    yield np.array([1.0, -np.nan, 2.0])


@pytest.mark.parametrize("q", QUANTILES + [QUANTILES])
def test_quantile_is_numpys_bit_for_bit(q):
    for x in _samples():
        want = np.quantile(x, q)
        got = quantile(x, q)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_percentile_bounds_are_numpys_bit_for_bit():
    for x in _samples():
        want = np.percentile(x, [2.5, 97.5])
        assert quantile(x, (0.025, 0.975)).tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [0, 1, None])
@pytest.mark.parametrize("q", [0.95, QUANTILES])
def test_quantile_along_an_axis(axis, q):
    rng = np.random.default_rng(6)
    nan = rng.standard_normal((21, 4))
    nan[3, 1] = np.nan
    for x in (rng.standard_normal((101, 15)), rng.integers(0, 3, (40, 6)) * 0.5, nan):
        want = np.quantile(x, q, axis=axis)
        got = quantile(x, q, axis=axis)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_quantile_checks_its_levels():
    with pytest.raises(ValueError):
        quantile(np.arange(3.0), 1.5)
