"""Oracle tests of driftlab's scipy-free normal quantile and CDF, logistic
function, and t, F and chi-squared laws against scipy.special and
scipy.stats."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from conftest import F_RTOL, T_RTOL, assert_tail_close
from driftlab._tails import (chi2_cdf, expit, f_cdf, f_sf, ndtr, ndtri, t_cdf, t_ppf,
                             t_two_sided)


def test_ndtri_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(36)
    y = np.concatenate([
        rng.random(60_000),
        10.0 ** -rng.uniform(0.0, 323.0, 30_000),  # the far lower tail
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000),  # and the upper
        np.linspace(0.0, 1.0, 20_001),
        [0.0, 1.0, 5e-324, 1e-310, 0.975, 1.0 - 2.0**-53, 0.5, math.exp(-2.0),
         1.0 - math.exp(-2.0), math.exp(-32.0), math.nan, -math.nan, -0.0, -1e-300, -1.0, 1.5,
         -math.inf, math.inf],
    ])
    got = np.array([ndtri(v) for v in y])
    with np.errstate(invalid="ignore"):
        want = special.ndtri(y)
    assert got.size >= 100_000
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_array_ndtri_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(41)
    exp_m2, exp_m32 = math.exp(-2.0), math.exp(-32.0)
    edges = [0.0, 1.0, 5e-324, 1e-310, 1.0 - 2.0**-53, 0.5, math.nan, -math.nan, -1.0, 1.5,
             math.inf, -math.inf]
    for v in (exp_m2, 1.0 - exp_m2, exp_m32, 1.0 - exp_m32):  # the branch boundaries
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)]
    y = np.concatenate([
        rng.random(2_000_000),
        np.exp(-rng.uniform(0.0, 700.0, 200_000)),  # the lower tail, to exp(-700)
        -np.expm1(-rng.uniform(0.0, 37.0, 100_000)),  # and the upper
        edges,
    ])
    with np.errstate(invalid="ignore"):
        want = special.ndtri(y)
    assert_bits(ndtri(y), want)
    assert_bits(ndtri(y.reshape(-1, 4)), want.reshape(-1, 4))


def test_ndtr_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(42)
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for v in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7):  # branches, underflow
        edges += [w for u in (v, -v) for w in (np.nextafter(u, -math.inf), u,
                                               np.nextafter(u, math.inf))]
    a = np.concatenate([5.0 * rng.standard_normal(1_000_000), rng.uniform(-40.0, 40.0, 200_000),
                        edges])
    assert_bits(ndtr(a), special.ndtr(a))
    assert_bits(ndtr(a.reshape(-1, 5)), special.ndtr(a).reshape(-1, 5))


@pytest.mark.parametrize("df", [1, 2, 3, 5, 9, 17, 30, 60, 120, 200, 400, 1000])
def test_t_f_and_chi2_cdfs_within_1e_12_of_scipy(df):
    rng = np.random.default_rng(df)
    t = np.sort(np.concatenate([rng.standard_t(df, 2000), np.linspace(-50.0, 50.0, 101),
                                [0.0, -math.inf, math.inf]]))
    np.testing.assert_allclose(t_cdf(t, df), special.stdtr(df, t), rtol=0.0, atol=1e-12)
    for dfn in (1, 2, 3, 7, 30):
        x = np.sort(np.concatenate([rng.f(dfn, df, 1000), np.linspace(0.0, 20.0, 41),
                                    [math.inf]]))
        np.testing.assert_allclose(f_cdf(x, dfn, df), special.fdtr(dfn, df, x), rtol=0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(f_cdf(x, df, dfn), special.fdtr(df, dfn, x), rtol=0.0,
                                   atol=1e-12)
    x = np.sort(np.concatenate([rng.chisquare(df, 2000), np.linspace(0.0, 3.0 * df + 50.0, 101),
                                [math.inf]]))
    np.testing.assert_allclose(chi2_cdf(x, df), special.chdtr(df, x), rtol=0.0, atol=1e-12)


def test_cdf_edges():
    assert np.isnan(t_cdf(math.nan, 5)) and np.isnan(f_cdf(math.nan, 2, 5))
    assert np.isnan(chi2_cdf(math.nan, 5))
    # scipy gives NaN below the support of the F and chi-squared laws; their CDF is 0 there
    assert f_cdf(-1.0, 2, 5) == 0.0 == chi2_cdf(-1.0, 5)
    assert t_cdf(np.array([[0.0, -0.0]]), 3).tolist() == [[0.5, 0.5]]


def test_t_quantile_within_1e_12_of_scipy():
    for df in range(1, 401):
        ps = (0.975,) if df % 20 else (0.975, 1e-7, 0.025, 0.4, 0.6, 0.9, 0.995, 1.0 - 1e-7)
        for p in ps:
            assert t_ppf(p, df) == pytest.approx(special.stdtrit(df, p), rel=1e-12, abs=0.0)
    assert t_ppf(0.5, 3) == 0.0
    assert (t_ppf(0.0, 3), t_ppf(1.0, 3)) == (-math.inf, math.inf)
    assert math.isnan(t_ppf(math.nan, 3))


def t_grid():
    rng = np.random.default_rng(1)
    return np.concatenate([
        np.linspace(0.0, 10.0, 101),
        10.0 ** rng.uniform(-12.0, 3.0, 100),
        10.0 ** np.linspace(3.0, 160.0, 30),  # the deep tail, to where t^2 overflows
    ])


@pytest.mark.parametrize("df", [2, 3, 4, 5, 7, 10, 20, 30, 60, 120, 250, 500, 1000,
                                2000, 3333, 5000])
def test_t_tail_within_tolerance_of_scipy(df):
    t = t_grid()
    got = [t_two_sided(v, df) for v in np.concatenate([t, -t])]
    assert_tail_close(got, 2.0 * stats.t.sf(np.concatenate([t, t]), df), T_RTOL)


def test_t_tail_with_one_degree_of_freedom_is_the_cauchy_tail():
    # scipy's t(1) tail is off by up to 2e-9 relative near 1, at |t| < 1e-6,
    # so t(1) is checked against its closed form (2 / pi) atan(1 / |t|)
    t = t_grid()
    t = t[t < 1e154]  # t^2 finite
    got = [t_two_sided(v, 1) for v in t]
    assert_tail_close(got, [2.0 / math.pi * math.atan2(1.0, v) for v in t], T_RTOL)


@pytest.mark.parametrize("dfn", range(1, 11))
def test_f_tail_within_tolerance_of_scipy(dfn):
    rng = np.random.default_rng(dfn)
    x = np.concatenate([np.linspace(0.0, 10.0, 41), 10.0 ** rng.uniform(-300.0, 308.0, 40),
                        [1e-300, 1e308, 1.7e308]])
    for dfd in [1, 2, 3, 5, 8, 13, 30, 77, 200, 500]:
        got = [f_sf(v, dfn, dfd) for v in x]
        if (dfn, dfd) == (1, 1):
            # F(1, 1) is a squared t(1): the Cauchy tail at sqrt(x)
            want = [2.0 / math.pi * math.atan2(1.0, math.sqrt(v)) for v in x]
        else:
            want = stats.f.sf(x, dfn, dfd)
        assert_tail_close(got, want, F_RTOL)


def test_tail_edges_are_exact():
    for df in (1, 7, 5000):
        assert t_two_sided(0.0, df) == 1.0
        assert t_two_sided(-0.0, df) == 1.0
        assert t_two_sided(math.inf, df) == 0.0
        assert t_two_sided(-math.inf, df) == 0.0
        assert t_two_sided(1e200, df) == 0.0 == 2.0 * stats.t.sf(1e200, df)
        assert math.isnan(t_two_sided(math.nan, df))
    for dfn, dfd in ((1, 1), (3, 40), (10, 500)):
        for x in (0.0, -0.0, -1e-300, -5.0, -math.inf):
            assert f_sf(x, dfn, dfd) == 1.0 == stats.f.sf(x, dfn, dfd)
        assert f_sf(math.inf, dfn, dfd) == 0.0 == stats.f.sf(math.inf, dfn, dfd)
        assert math.isnan(f_sf(math.nan, dfn, dfd))


def test_expit_within_1e_15_of_scipy():
    x = np.linspace(-40.0, 40.0, 100_001)
    np.testing.assert_allclose(expit(x), special.expit(x), rtol=1e-15, atol=0.0)


def test_expit_saturates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(np.array([-800.0, -710.0, 710.0, 800.0, -math.inf, math.inf]))
    assert got.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]
