"""Oracle tests: the table-driven sampling kernels and the scipy.special
p-values and quantiles give bit-for-bit the outputs of the reference
definitions; the weight fit's t and F p-values agree with scipy.stats to a
fixed relative tolerance."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chdtr, fdtr, stdtr, stdtrit

import driftlab as dl
from conftest import F_RTOL, T_RTOL, assert_tail_close, make_moments
from driftlab import harness
from driftlab._tails import f_sf
from driftlab.dlm import fit_weights, target_ci
from driftlab.perturb import WeightLaw
from driftlab.rng import split_uniform, substream


def assert_bitwise(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def split_uniform_reference(u, streams):
    """The definition: deal the 53 mantissa bits one at a time."""
    u = np.asarray(u, dtype=np.float64)
    if streams == 1:
        return u[None, ...]
    bits = (u * float(1 << 53)).astype(np.uint64)
    acc = [np.zeros(u.shape, dtype=np.uint64) for _ in range(streams)]
    width = [0] * streams
    for b in range(53):
        s = b % streams
        bit = (bits >> np.uint64(52 - b)) & np.uint64(1)
        acc[s] = (acc[s] << np.uint64(1)) | bit
        width[s] += 1
    out = np.empty((streams,) + u.shape, dtype=np.float64)
    for s in range(streams):
        out[s] = (acc[s].astype(np.float64) + 0.5) / float(1 << width[s])
    return out


def binned_uniforms(rng, m, shape):
    """(bin + v) / m draws, as sample_uniform makes them."""
    return (rng.integers(0, m, size=shape) + rng.random(shape)) / m


@settings(max_examples=150, deadline=None)
@given(
    streams=st.integers(1, 8),
    shape=st.one_of(
        st.tuples(st.integers(1, 300)),
        st.tuples(st.integers(1, 20), st.integers(1, 20)),
    ),
    source=st.sampled_from(["raw", "big_endian", "dyadic_bins", "bins_100"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_uniform_matches_bit_loop(streams, shape, source, seed):
    rng = np.random.default_rng(seed)
    if source == "raw":
        u = rng.random(shape)
    elif source == "big_endian":
        u = rng.random(shape).astype(">f8")
    else:
        u = binned_uniforms(rng, 512 if source == "dyadic_bins" else 100, shape)
    assert_bitwise(split_uniform(u, streams), split_uniform_reference(u, streams))


@settings(max_examples=150, deadline=None)
@given(
    streams=st.integers(2, 8),
    values=st.lists(
        st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=True),
        min_size=1,
        max_size=50,
    ),
)
def test_split_uniform_matches_bit_loop_on_any_double(streams, values):
    u = np.array(values)
    assert_bitwise(split_uniform(u, streams), split_uniform_reference(u, streams))


def cumulative(w):
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    return cum


def test_sample_uniform_matches_searchsorted_definition():
    law = dl.lognormal_law(0.0, 0.8)
    scheme = dl.PerturbationScheme(100, dl.IndependentWeights((law, law)))
    weights = dl.realize_world(scheme, substream(8, 3))
    for k in range(2):
        got = dl.sample_uniform(weights, k, 5000, substream(8, 4, k))
        rng = substream(8, 4, k)
        bins = np.searchsorted(cumulative(weights[k]), rng.random(5000), side="right")
        assert_bitwise(got, (bins + rng.random(5000)) / scheme.m)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 5),
    extra=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_dlm_pvalues_equal_scipy_stats(k, extra, seed):
    rng = np.random.default_rng(seed)
    n_funcs = k + extra
    mm = make_moments(rng.normal(size=(k + 1, n_funcs)))
    fit = fit_weights(mm)
    assert_tail_close(fit.p_values, 2.0 * stats.t.sf(np.abs(fit.t_stats), fit.df), T_RTOL)
    assert_tail_close(fit.f_pvalue, stats.f.sf(fit.f_stat, k - 1, fit.df), F_RTOL)
    level = float(rng.uniform(0.5, 0.999))
    ci = target_ci(fit, rng.normal(size=k), 1.0, level=level)
    z = stats.norm.ppf(0.5 + level / 2.0)
    assert_bitwise(ci.half_width, float(z * np.sqrt(1.0) * np.sqrt(fit.rss / n_funcs)))


@settings(max_examples=200, deadline=None)
@given(
    x=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    ),
    dfn=st.integers(1, 10),
    dfd=st.integers(1, 500),
)
def test_f_sf_equals_scipy_stats_everywhere(x, dfn, dfd):
    got = f_sf(x, dfn, dfd)
    if math.isnan(x) or x <= 0.0 or x == math.inf:
        # the edges are exact: NaN, 1 at and below 0, and 0 at infinity
        assert_bitwise(got, float(stats.f.sf(x, dfn, dfd)))
    elif (dfn, dfd) == (1, 1):
        # scipy's F(1, 1) tail is off by up to 2e-9 relative near 1; F(1, 1)
        # is a squared Cauchy variable, whose tail is (2 / pi) atan(1 / sqrt(x))
        assert_tail_close(got, 2.0 / math.pi * math.atan2(1.0, math.sqrt(x)), F_RTOL)
    else:
        assert_tail_close(got, stats.f.sf(x, dfn, dfd), F_RTOL)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.floats(1e-3, 1e3),
    scale=st.floats(1e-3, 1e3),
    q=st.lists(st.floats(0.0, 1.0), max_size=50),
)
def test_gamma_ppf_equals_scipy_stats(shape, scale, q):
    q = np.array(q + [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0])
    law = WeightLaw("gamma", shape, scale)
    assert_bitwise(law.ppf(q), stats.gamma.ppf(q, shape, scale=scale))


def test_harness_t_critical_value_equals_scipy_stats():
    df = np.arange(1, 400)
    assert_bitwise(stdtrit(df, 0.975), stats.t.ppf(0.975, df))


def assert_ks_pvalue(got, want, n):
    """Bit for bit for n > 140; within 1e-10 relative for n <= 140, where
    scipy's Pomeranz recursion stands in for the Durbin matrix."""
    if n > 140:
        assert_bitwise(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    law=st.sampled_from(["t", "f", "chi2"]),
    n=st.integers(2, 3000),
    df=st.integers(1, 60),
    scale=st.sampled_from([1.0, 1.2, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kstest_equals_scipy_stats(law, n, df, scale, seed):
    rng = np.random.default_rng(seed)
    if law == "t":
        args, cdf, x = (df,), (lambda v: stdtr(df, v)), rng.standard_t(df, n)
    elif law == "f":
        dfn = df % 5 + 1
        args, cdf, x = (dfn, df), (lambda v: fdtr(dfn, df, v)), rng.f(dfn, df, n)
    else:
        args, cdf, x = (df,), (lambda v: chdtr(df, v)), rng.chisquare(df, n)
    x *= scale
    want = stats.kstest(x, law, args=args)
    stat, pvalue = harness._kstest(x, cdf)
    assert_bitwise(stat, want.statistic)
    assert_ks_pvalue(pvalue, want.pvalue, n)


KS_BRANCHES = [
    # (n, d, the branch of harness._ks_sf that (n, d) takes)
    (50, 1.0, "d >= 1"),
    (10_000, 1.5, "d >= 1"),
    (50, 0.01, "nd <= 1/2"),
    (10_000, 0.0, "nd <= 1/2"),
    (50, 0.015, "nd <= 1"),
    (10_000, 8e-5, "nd <= 1"),
    (50, 0.99, "nd >= n - 1"),
    (200, 0.996, "nd >= n - 1"),
    (50, 0.6, "smirnov"),  # d >= 1/2
    (2000, 0.5, "smirnov"),  # d >= 1/2 comes before nd^2 >= 370
    (100, 0.3, "smirnov"),  # n <= 140, nd^2 > 4
    (10_000, 0.02, "smirnov"),  # n > 140, nd^2 >= 2.2
    (50, 0.1, "durbin"),  # nd^2 = 0.5
    (140, 0.16, "durbin"),  # nd^2 = 3.6, scipy's Pomeranz stretch
    (99, (4 / 99) ** 0.5, "durbin"),  # nd^2 = 4
    (10_000, 0.002, "durbin"),  # n > 140, n d^1.5 <= 1.4
    (10_000, 0.01, "pelz_good"),  # the default null-law size
    (10_000, 0.0123, "pelz_good"),
    (200_000, 0.001, "pelz_good"),  # n > 100000
    (10_000, 0.2, "nd^2 >= 370"),
    (10_000, float("nan"), "nan"),
]


@pytest.mark.parametrize("n, d, branch", KS_BRANCHES)
def test_ks_sf_equals_scipy_kstwo_on_every_branch(n, d, branch, monkeypatch):
    taken = []
    for owner, name in ((harness, "_durbin_cdf"), (harness, "_pelz_good_cdf"),
                        (scipy.special, "smirnov")):
        def spy(*args, _name=name, _fn=getattr(owner, name)):
            taken.append(_name.strip("_").removesuffix("_cdf"))
            return _fn(*args)
        monkeypatch.setattr(owner, name, spy)
    got = harness._ks_sf(n, d)
    assert taken == ([branch] if branch in ("durbin", "pelz_good", "smirnov") else [])
    assert_ks_pvalue(got, stats.kstwo.sf(d, n), n)
