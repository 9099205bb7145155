import math

import numpy as np
import pytest
from scipy import stats

import driftlab as dl
from driftlab.perturb import PerturbError, check_regime
from driftlab.rng import split_uniform, substream

LOGNORMAL_REL_VAR = math.exp(0.25) - 1.0  # Var(W)/E[W]^2 for sigma = 0.5


def test_constant_weights_give_zero_sigma_w():
    scheme = dl.PerturbationScheme(10, dl.IndependentWeights((dl.uniform_law(1.0, 1.0),) * 3))
    weights = dl.realize_world(scheme, substream(0, 0))
    assert np.all(weights == 1.0)
    assert np.all(scheme.weight_law.sigma_w() == 0.0)


def test_lognormal_sigma_w_closed_form_and_monte_carlo():
    law = dl.lognormal_law(0.0, 0.5)
    scheme = dl.PerturbationScheme(50, dl.IndependentWeights((law, law)))
    assert scheme.weight_law.sigma_w() == pytest.approx(np.diag([LOGNORMAL_REL_VAR] * 2))
    # cross-check the closed form against a large direct sample
    w = law.draw(substream(1, 99), 1_000_000)
    rel = w.var() / w.mean() ** 2
    se = 3 * rel * np.sqrt(2 / 1e6)
    assert abs(rel - LOGNORMAL_REL_VAR) < 3 * se


@pytest.mark.parametrize(
    "law",
    [dl.gamma_law(4.0, 0.5), dl.uniform_law(0.5, 1.5), dl.lognormal_law(0.2, 0.3)],
)
def test_weight_law_moments_match_samples(law):
    w = law.draw(substream(2, 99), 500_000)
    assert w.min() > 0
    assert w.mean() == pytest.approx(law.mean, rel=5e-3)
    assert w.var() == pytest.approx(law.var, rel=2e-2)


def test_mixture_sigma_w_bilinearity():
    law = dl.lognormal_law(0.0, 0.5)
    mix = dl.MixtureWeights((law, law), ((0.7, 0.3),), (0.05,))
    sw = mix.sigma_w()
    mw = mix.mean_w()
    assert sw[0, 2] == pytest.approx(0.7 * sw[0, 0] * mw[0] / mw[2], rel=1e-12)
    # Monte Carlo validation of the full matrix
    w = mix.draw(substream(3, 99), 300_000)
    cov = np.cov(w)
    means = w.mean(axis=1)
    mc = cov / np.outer(means, means)
    assert np.allclose(mc, sw, atol=4e-3)


def test_misconfigured_schemes_error():
    law = dl.uniform_law(0.9, 1.1)
    bad = dl.MixtureWeights((law,), ((0.0,),), (1.0,))
    with pytest.raises(ValueError):
        bad.sigma_w()  # zero derived mean is rejected up front
    # a mixture whose derived component has negative mean almost never
    # realizes positive: the reject-and-resample cap must trip instead of
    # looping forever. A scheme rejects that law up front, through its
    # sigma_w, so the law draws on its own.
    nasty = dl.MixtureWeights((law,), ((-1.0,),), (0.5,))
    with pytest.raises(ValueError, match="positive mean"):
        dl.PerturbationScheme(2000, nasty)
    with pytest.raises(PerturbError):
        nasty.draw(substream(5, 0), 2000)


def test_mixture_resampling_repairs_rare_negatives():
    law = dl.uniform_law(0.9, 1.1)
    mix = dl.MixtureWeights((law,), ((1.0,),), (0.4,))
    weights = dl.realize_world(dl.PerturbationScheme(2000, mix), substream(6, 0))
    assert weights.min() > 0


def test_random_walk_sigma_w():
    base = dl.uniform_law(0.5, 1.5)
    walk = dl.RandomWalkWeights(base, 0.05, 3)
    sw = walk.sigma_w()
    v, mu = base.var, base.mean
    assert sw[0, 0] == pytest.approx(v / mu**2)
    assert sw[2, 2] == pytest.approx((v + 2 * 0.05**2) / mu**2)
    assert sw[0, 2] == pytest.approx(v / mu**2)
    w = walk.draw(substream(4, 99), 200_000)
    assert w.min() > 0
    mc = np.cov(w) / np.outer(w.mean(axis=1), w.mean(axis=1))
    assert np.allclose(mc, sw, atol=5e-3)


def test_unperturbed_sampling_is_uniform():
    scheme = dl.PerturbationScheme(7, dl.IndependentWeights((dl.uniform_law(1.0, 1.0),)))
    weights = dl.realize_world(scheme, substream(0, 0))
    u = dl.sample_uniform(weights, 0, 100_000, substream(6, 1))
    stat = stats.kstest(u, "uniform").statistic
    # 1% critical value of the KS statistic
    assert stat < 1.63 / np.sqrt(100_000)


def test_two_bin_probability():
    u = dl.sample_uniform(np.array([[2.0, 1.0]]), 0, 1_000_000, substream(7, 1))
    frac = np.mean(u < 0.5)
    se = np.sqrt((2 / 3) * (1 / 3) / 1e6)
    assert abs(frac - 2 / 3) < 4 * se


def test_sampling_is_deterministic_given_seed():
    law = dl.lognormal_law(0.0, 0.5)
    scheme = dl.PerturbationScheme(20, dl.IndependentWeights((law,)))
    w1 = dl.realize_world(scheme, substream(9, 0))
    w2 = dl.realize_world(scheme, substream(9, 0))
    assert np.array_equal(w1, w2)
    u1 = dl.sample_uniform(w1, 0, 1000, substream(9, 1, 4))
    u2 = dl.sample_uniform(w2, 0, 1000, substream(9, 1, 4))
    assert np.array_equal(u1, u2)


def test_moment_shift_variance_matches_prediction():
    # variance across re-realized worlds of the mean of phi(u) = u:
    # sigma_w/m times Var(U) plus the known sampling part
    m, n, reps = 100, 5000, 3000
    law = dl.lognormal_law(0.0, 0.5)
    scheme = dl.PerturbationScheme(m, dl.IndependentWeights((law,)))
    means = np.empty(reps)
    svars = np.empty(reps)
    for r in range(reps):
        rng = substream(123, 5, r)
        world = dl.realize_world(scheme, rng)
        u = dl.sample_uniform(world, 0, n, rng)
        means[r] = u.mean()
        svars[r] = u.var()
    corrected = means.var(ddof=1) - svars.mean() / n
    target = LOGNORMAL_REL_VAR / m * (1 / 12)
    centered = (means - means.mean()) ** 2
    se = centered.std(ddof=1) / np.sqrt(reps)
    assert abs(corrected - target) < 3 * se


def test_standardized_shifts_are_normal():
    m = 200
    n = 50 * m
    law = dl.lognormal_law(0.0, 0.5)
    scheme = dl.PerturbationScheme(m, dl.IndependentWeights((law,)))
    shifts = np.empty(800)
    for r in range(shifts.size):
        rng = substream(321, 5, r)
        world = dl.realize_world(scheme, rng)
        u = dl.sample_uniform(world, 0, n, rng)
        shifts[r] = np.sqrt(m) * (u.mean() - 0.5)
    res = stats.anderson(shifts, dist="norm", method="interpolate")
    assert res.pvalue > 0.01


def test_shift_target_examples():
    shifted = dl.shift_target(np.eye(2))
    assert shifted == pytest.approx(np.array([[2.0]]))
    shifted = dl.shift_target(np.eye(3))
    assert shifted == pytest.approx(np.array([[2.0, 1.0], [1.0, 2.0]]))
    coupled = dl.shift_target(np.ones((3, 3)))
    assert coupled == pytest.approx(np.zeros((2, 2)), abs=1e-12)
    with pytest.raises(ValueError):
        dl.shift_target(np.eye(1))


def test_transform_targets_reproduce_declared_moments():
    for target in [
        dl.uniform_target(),
        dl.gaussian_target(1.0, 2.0),
        dl.exponential_target(0.5),
    ]:
        u = substream(11, 1).random(100_000)
        x = target.transform(u)
        mean, var = target.moments[0]
        assert x.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / 1e5))
        assert x.var() == pytest.approx(var, rel=0.05)


def test_multivariate_target_independent_streams():
    pair = dl.multivariate_target([dl.gaussian_target(), dl.uniform_target()])
    u = substream(12, 1).random(200_000)
    xy = pair.transform(u)
    assert xy.shape == (200_000, 2)
    corr = np.corrcoef(xy.T)[0, 1]
    assert abs(corr) < 3 / np.sqrt(200_000) * 1.5
    assert xy[:, 0].mean() == pytest.approx(0.0, abs=0.01)
    assert xy[:, 1].var() == pytest.approx(1 / 12, rel=0.02)


def test_split_uniform_streams_are_uniform_and_independent():
    u = substream(13, 1).random(100_000)
    s = split_uniform(u, 2)
    for i in range(2):
        assert stats.kstest(s[i], "uniform").statistic < 1.63 / np.sqrt(100_000)
    assert abs(np.corrcoef(s)[0, 1]) < 4 / np.sqrt(100_000)


def test_regime_warning_below_ratio_10():
    with pytest.warns(UserWarning):
        check_regime(100, 500)
    check_regime(100, 5000)  # no warning


@pytest.mark.parametrize(
    "probs", [None, [0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [0.7, 0.2, 0.1 - 1e-10]]
)
def test_categorical_target_on_every_cumulative_edge(probs):
    levels = ["a", "b", "c"]
    cum = np.cumsum([1 / 3] * 3 if probs is None else probs)
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum])
    u = np.unique(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    # the first level whose cumulative probability reaches u, else the last
    expected = [levels[next((i for i, c in enumerate(cum) if x <= c), 2)] for x in u]
    got = dl.categorical_target(levels, probs).transform(u)
    assert got.dtype == object
    assert got.tolist() == expected


@pytest.mark.parametrize(
    "levels, probs, message",
    [
        ([], None, "levels must not be empty"),
        (["a", "b"], [1.0], "one entry per level"),
        (["a", "b"], [1.5, -0.5], "probs must be >= 0"),
        (["a", "b"], [0.5, 0.6], "probs must sum to 1"),
    ],
)
def test_categorical_target_rejects_bad_probs(levels, probs, message):
    with pytest.raises(ValueError, match=message):
        dl.categorical_target(levels, probs)
