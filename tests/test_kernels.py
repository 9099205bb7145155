"""Oracle tests: the table-driven sampling kernels and the scipy.special
p-values and quantiles give bit-for-bit the outputs of the reference
definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtrit

import driftlab as dl
from conftest import make_moments
from driftlab.dlm import ContrastSpec, _f_sf, fit_weights, infer, target_ci
from driftlab.moments import ScalarMoments
from driftlab.perturb import _GUIDE_MAX_PASSES, WeightLaw, _find_bins
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
    source=st.sampled_from(["raw", "dyadic_bins", "bins_100"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_uniform_matches_bit_loop(streams, shape, source, seed):
    rng = np.random.default_rng(seed)
    if source == "raw":
        u = rng.random(shape)
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


def probes(cum, rng, n):
    """Random draws plus every cum value and its float neighbours in [0, 1)."""
    edges = np.concatenate(
        [cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    return np.concatenate([rng.random(n), edges])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 600),
    law=st.sampled_from(["uniform", "lognormal_0.5", "lognormal_3", "spike"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_find_bins_matches_searchsorted(m, law, seed):
    rng = np.random.default_rng(seed)
    if law == "uniform":
        w = rng.uniform(0.2, 1.8, m)
    elif law == "spike":
        w = np.full(m, 1e-9)
        w[rng.integers(0, m)] = 1.0
    else:
        w = rng.lognormal(0.0, float(law.split("_")[1]), m)
    cum = cumulative(w)
    r = probes(cum, rng, 2000)
    assert np.array_equal(_find_bins(cum, r), np.searchsorted(cum, r, side="right"))


@pytest.mark.parametrize(
    "w, guided",
    [
        (np.array([1.0, 1.0]), True),
        (np.array([1.0, 3.0]), True),
        (np.full(512, 1.0), True),
        (np.geomspace(1.0, 1e-12, 64), False),
    ],
)
def test_find_bins_edges_and_both_paths(w, guided):
    cum = cumulative(w)
    g = 1 << (2 * cum.size - 1).bit_length()
    start = np.searchsorted(cum, np.arange(g + 1) / g, side="right")
    assert (np.diff(start).max() <= _GUIDE_MAX_PASSES) == guided
    r = probes(cum, np.random.default_rng(5), 5000)
    assert np.array_equal(_find_bins(cum, r), np.searchsorted(cum, r, side="right"))


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
    assert_bitwise(fit.p_values, 2.0 * stats.t.sf(np.abs(fit.t_stats), fit.df))
    assert_bitwise(fit.f_pvalue, float(stats.f.sf(fit.f_stat, k - 1, fit.df)))
    q = rng.normal(size=(1, k - 1))
    rep = infer(fit, ContrastSpec(q))
    assert_bitwise(rep.contrast_pvalue, float(stats.f.sf(rep.contrast_stat, 1, fit.df)))
    level = float(rng.uniform(0.5, 0.999))
    phi0 = ScalarMoments(name="phi0", source_means=rng.normal(size=k), pooled_var=1.0)
    ci = target_ci(fit, mm, phi0, level=level)
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
    assert_bitwise(_f_sf(x, dfn, dfd), float(stats.f.sf(x, dfn, dfd)))


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
