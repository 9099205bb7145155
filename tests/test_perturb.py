import math

import numpy as np
import pytest
from scipy import special, stats

import driftlab as dl
from driftlab import analytic
from driftlab.perturb import check_regime
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
    for row in [(0.0, 0.0), (1.0, -0.5)]:
        with pytest.raises(ValueError, match="coefficients must be >= 0 with a positive entry"):
            dl.MixtureWeights((law, law), (row,), (0.5,))
    # laws whose mean or variance leave the float range: exp(900), exp(2 * 400)
    for make in [lambda: dl.lognormal_law(0.0, 30.0), lambda: dl.lognormal_law(400.0, 0.5),
                 lambda: dl.gamma_law(1e200, 1e200)]:
        with pytest.raises(ValueError, match="beyond the float range"):
            make()
    # exp(199 * 100**2) overflows
    walk = dl.RandomWalkWeights(dl.uniform_law(0.5, 1.5), 100.0, 200)
    with pytest.raises(ValueError, match="sigma_w overflows the float range"):
        dl.PerturbationScheme(16, walk)


@pytest.mark.parametrize("innovation_sd, k", [(1.5, 20), (0.5, 200), (0.3, 500)])
def test_large_random_walk_sigma_w_builds(innovation_sd, k):
    # lambda_max reaches 1e18 to 1e22, where rounding can leave lambda_min
    # far below -1e-8 on a matrix that is PSD by construction
    walk = dl.RandomWalkWeights(dl.lognormal_law(0.0, 0.5), innovation_sd, k)
    assert dl.PerturbationScheme(16, walk).n_dists == k


class FixedSigmaW:
    n_dists = 2

    def __init__(self, sigma_w):
        self._sigma_w = np.array(sigma_w)

    def sigma_w(self):
        return self._sigma_w


@pytest.mark.parametrize("sigma_w, builds", [
    ([[1e18, 0.0], [0.0, -100.0]], True),  # 1e-16 of lambda_max: rounding
    ([[1e18, 0.0], [0.0, -1e11]], False),  # 1e-7 of lambda_max, beyond the 1e-8 bound
    ([[1.0, 2.0], [2.0, 1.0]], False),  # eigenvalues 3 and -1
])
def test_sigma_w_psd_bound_is_relative_to_its_largest_eigenvalue(sigma_w, builds):
    if builds:
        assert dl.PerturbationScheme(16, FixedSigmaW(sigma_w)).n_dists == 2
    else:
        with pytest.raises(ValueError, match="sigma_w must be positive semidefinite"):
            dl.PerturbationScheme(16, FixedSigmaW(sigma_w))


def test_random_walk_sigma_w():
    base = dl.uniform_law(0.5, 1.5)
    walk = dl.RandomWalkWeights(base, 0.05, 3)
    sw = walk.sigma_w()
    r0 = base.var / base.mean**2
    assert sw[0, 0] == pytest.approx(r0)
    assert sw[2, 2] == pytest.approx((1 + r0) * np.exp(2 * 0.05**2) - 1)
    assert sw[0, 2] == pytest.approx(r0)
    assert sw[1, 2] == pytest.approx((1 + r0) * np.exp(0.05**2) - 1)
    w = walk.draw(substream(4, 99), 200_000)
    assert w.min() > 0
    mc = np.cov(w) / np.outer(w.mean(axis=1), w.mean(axis=1))
    assert np.allclose(mc, sw, atol=5e-3)


def _relative_cov_with_se(w):
    """Each entry Cov(W_i, W_j) / (E W_i E W_j) of the draws ``w`` (K, n),
    and its Monte Carlo standard error from the entry's influence values
    x_i x_j - (1 + r_ij)(x_i + x_j - 1), with x = W / E W."""
    k, n = w.shape
    x = w / w.mean(axis=1, keepdims=True)
    rel = x @ x.T / n - 1.0
    se = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            infl = x[i] * x[j] - (1.0 + rel[i, j]) * (x[i] + x[j] - 1.0)
            se[i, j] = se[j, i] = infl.std() / np.sqrt(n)
    return rel, se


# (weight law, analytic.scheme_sigma_w kind and parameters) per scheme kind
# the CLI accepts; the walk and the mixture are at parameters where additive
# steps would go nonpositive in a sizable share of bins
_GAMMA = dl.gamma_law(4.0, 0.25)
SCHEME_KINDS = {
    "independent": (
        dl.IndependentWeights((dl.uniform_law(0.5, 1.5), _GAMMA)),
        ("independent", {"laws": [("uniform", 0.5, 1.5), ("gamma", 4.0, 0.25)]}),
    ),
    # analytic has no quadrature for general marginals, so it matches the
    # diagonal only; the drawn off-diagonal entry is checked below
    "gaussian_copula": (
        dl.GaussianCopulaWeights((dl.lognormal_law(0.0, 0.5), _GAMMA), ((1.0, 0.5), (0.5, 1.0))),
        ("independent", {"laws": [("lognormal", 0.0, 0.5), ("gamma", 4.0, 0.25)]}),
    ),
    "random_walk": (
        dl.RandomWalkWeights(dl.uniform_law(0.5, 1.5), 0.3, 4),
        ("random_walk", {"base": ("uniform", 0.5, 1.5), "innovation_sd": 0.3, "k": 4}),
    ),
    "mixture": (
        dl.MixtureWeights((dl.uniform_law(0.9, 1.1), _GAMMA), ((1.0, 0.0), (0.7, 0.3)), (0.6, 0.4)),
        ("mixture", {"base_laws": [("uniform", 0.9, 1.1), ("gamma", 4.0, 0.25)],
                     "coefficients": [[1.0, 0.0], [0.7, 0.3]], "noise_sd": [0.6, 0.4]}),
    ),
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_every_scheme_kind_draws_its_sigma_w(kind):
    # seed and draw count fixed before the first run: 400k bins from
    # substream(31, 99); every entry must lie within 3 Monte Carlo SEs
    law, (analytic_kind, params) = SCHEME_KINDS[kind]
    sigma_w = dl.PerturbationScheme(16, law).weight_law.sigma_w()
    target = analytic.scheme_sigma_w(analytic_kind, **params)
    if kind == "gaussian_copula":
        sigma_w, target = np.diag(sigma_w), np.diag(target)
    np.testing.assert_allclose(sigma_w, target, rtol=0, atol=1e-12)
    w = law.draw(substream(31, 99), 400_000)
    assert w.min() > 0
    rel, se = _relative_cov_with_se(w)
    assert np.all(np.abs(rel - law.sigma_w()) < 3 * se), (rel - law.sigma_w()) / se


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


class TopRandom:
    """A generator whose every uniform draw is 1 - 2**-53, the largest
    double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


@pytest.mark.parametrize("m", [3, 100, 512, 4096])
def test_sample_uniform_keeps_the_top_draw_inside_its_bin(m):
    # b + (1 - 2**-53) rounds to b + 1 for b >= 1; (511 + v) / 512 == 1.0
    u = dl.sample_uniform(np.ones((1, m)), 0, 10, TopRandom())
    assert np.all(u < 1.0)
    if m & (m - 1) == 0:
        assert np.all(np.floor(u * m) == m - 1)


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


def test_transform_targets_reproduce_declared_moments():
    for law, (mean, var) in [
        (dl.uniform_target(), (0.5, 1.0 / 12.0)),
        (dl.gaussian_target(1.0, 2.0), (1.0, 4.0)),
        (dl.exponential_target(0.5), (2.0, 4.0)),
    ]:
        u = substream(11, 1).random(100_000)
        x = law(u)
        assert x.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / 1e5))
        assert x.var() == pytest.approx(var, rel=0.05)


def test_transform_targets_take_libms_bits():
    # simulate's bytes must not depend on numpy's CPU dispatch: the gaussian
    # law is scipy's Cephes ndtri and the exponential law libm's log1p
    u = substream(12, 1).random(20_000)
    got = dl.exponential_target(1.5)(u)
    assert np.array_equal(got, np.array([-math.log1p(-v) / 1.5 for v in u]))
    assert np.array_equal(dl.gaussian_target(1.0, 0.5)(u), 1.0 + 0.5 * special.ndtri(u))


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
    got = dl.categorical_target(levels, probs)(u)
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
