"""The numpy-only logistic and normal functions against scipy as the oracle."""

import math
import statistics
import warnings

import numpy as np
import pytest
from scipy import special as sp

from tokenimpact.special import expit, ndtr, ndtri


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
