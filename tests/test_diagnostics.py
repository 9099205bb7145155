import numpy as np
import pytest
from scipy import stats

import driftlab as dl
from conftest import make_moments
from driftlab.diagnostics import (
    bundle_rows,
    pairwise_scatter,
    residual_qq,
    standardized_shift_stats,
)
from driftlab.dlm import fit_weights
from driftlab.rng import substream
from driftlab.tables import DatasetCollection, Table
from driftlab.testfuncs import parse_test_functions


def test_single_function_qq_point(rng):
    phi = rng.normal(size=(2, 1))
    fit = fit_weights(make_moments(phi))
    bundle = residual_qq(fit)
    assert bundle.qq_points.shape == (1, 2)
    assert bundle.qq_points[0, 0] == pytest.approx(0.0)  # median quantile
    assert bundle.qq_points[0, 1] == pytest.approx(
        fit.residuals[0] / np.sqrt(fit.sigma2_hat)
    )


def test_residual_points_fitted_values(rng):
    phi = rng.normal(size=(4, 12))
    mm = make_moments(phi)
    fit = fit_weights(mm)
    bundle = residual_qq(fit)
    fitted = fit.beta_hat @ phi[1:]
    assert np.allclose(bundle.residual_points[:, 0], fitted)
    assert np.allclose(bundle.residual_points[:, 1], fit.residuals)
    assert bundle.residual_mean == pytest.approx(fit.residuals.mean())


def test_standardized_residuals_df_identity(rng):
    phi = rng.normal(size=(4, 30))
    fit = fit_weights(make_moments(phi))
    std = fit.residuals / np.sqrt(fit.sigma2_hat)
    # sum of squared standardized residuals equals the residual df exactly
    assert np.sum(std**2) == pytest.approx(fit.df, rel=1e-8)


def test_zero_variance_fit_flags_qq(rng):
    phi = rng.normal(size=(2, 6))
    phi[0] = phi[1]  # single source identical to the target: exact zeros
    fit = fit_weights(make_moments(phi))
    assert fit.sigma2_hat == 0.0
    bundle = residual_qq(fit)
    assert not bundle.qq_defined
    assert bundle.qq_points is None
    assert bundle.residual_points is not None


def test_gaussian_residuals_track_the_line():
    # standardized normal draws: inner-90% QQ deviation stays below 0.15
    # (the extreme order statistics fluctuate far more and are excluded)
    rng = substream(42, 50)
    n_funcs = 1000
    z = rng.standard_normal(n_funcs)
    zs = np.sort((z - z.mean()) / z.std())
    theo = stats.norm.ppf((np.arange(1, n_funcs + 1) - 0.5) / n_funcs)
    lo, hi = int(0.05 * n_funcs), int(0.95 * n_funcs)
    assert np.abs(zs - theo)[lo:hi].max() < 0.15


def test_heavy_tails_rejected_by_anderson_darling():
    rng = substream(43, 50)
    resid = stats.t.rvs(df=2, size=1000, random_state=np.random.RandomState(7))
    res = stats.anderson(
        (resid - resid.mean()) / resid.std(), dist="norm", method="interpolate"
    )
    # interpolated p-values are clamped to the table's 1% end
    assert res.pvalue <= 0.01


def _simulated_moments(copula_rho, n_funcs=1000, m=100, n=100_000, seed=3):
    law = dl.lognormal_law(0.0, 0.5)
    model = dl.GaussianCopulaWeights((law, law), ((1.0, copula_rho), (copula_rho, 1.0)))
    world = dl.realize_world(dl.PerturbationScheme(m, model), substream(seed, 60))
    rng = substream(seed, 61)
    # test functions: indicators of n_funcs quantile cells of the uniform
    edges = np.linspace(0, 1, n_funcs + 1)
    rows = []
    for j in [0, 1]:
        u = dl.sample_uniform(world, j, n, rng)
        counts, _ = np.histogram(u, bins=edges)
        rows.append(counts / n)
    u0 = rng.random(n)
    counts0, _ = np.histogram(u0, bins=edges)
    return make_moments(np.vstack([counts0 / n, rows[0], rows[1]]))


def test_pairwise_scatter_coupled_vs_independent():
    coupled = pairwise_scatter(_simulated_moments(1.0))
    assert all(b.r2 > 0.95 for b in coupled)
    indep = pairwise_scatter(_simulated_moments(0.0))
    assert all(b.r2 < 0.05 for b in indep)


def test_pairwise_scatter_slope_estimates_sigma_ratio():
    rho = 0.6
    blocks = pairwise_scatter(_simulated_moments(rho, seed=9))
    target = (np.exp(0.25 * rho) - 1) / (np.exp(0.25) - 1)
    n_points = blocks[0].points.shape[0]
    se = 3.5 / np.sqrt(n_points)
    for b in blocks:
        assert abs(b.slope - target) < 3 * se


def test_pairwise_scatter_requires_shapes(rng):
    with pytest.raises(ValueError):
        pairwise_scatter(make_moments(rng.normal(size=(2, 20))))
    with pytest.raises(ValueError):
        pairwise_scatter(make_moments(rng.normal(size=(3, 5))))


def test_shift_stats_identical_datasets_zero():
    x = np.arange(10.0)
    src = Table.from_arrays("s", x=x)
    tgt = Table.from_arrays("t", x=x)
    data = DatasetCollection((src,), tgt)
    stats_map = standardized_shift_stats(data, parse_test_functions(["column:x"]), 0)
    assert stats_map["column:x"] == pytest.approx(0.0, abs=1e-14)


def test_shift_stats_prefactor_algebra():
    n = 50
    delta = 0.7
    rng = np.random.default_rng(12)
    base = rng.normal(size=n)
    base = (base - base.mean()) / base.std()  # exactly unit sd, zero mean
    src = Table.from_arrays("s", x=base + delta)
    tgt = Table.from_arrays("t", x=base)
    data = DatasetCollection((src,), tgt)
    stats_map = standardized_shift_stats(data, parse_test_functions(["column:x"]), 0)
    assert stats_map["column:x"] == pytest.approx(delta * np.sqrt(n / 2))


def test_shift_stats_skip_zero_sd():
    src = Table.from_arrays("s", x=[1.0, 1.0, 1.0], y=[0.0, 1.0, 2.0])
    tgt = Table.from_arrays("t", x=[1.0], y=[1.0])
    data = DatasetCollection((src,), tgt)
    with pytest.warns(UserWarning, match="zero pooled"):
        stats_map = standardized_shift_stats(
            data, parse_test_functions(["column:x", "column:y"]), 0
        )
    assert "column:x" not in stats_map
    assert "column:y" in stats_map


def test_shift_stats_gaussian_under_perturbation():
    # across bin-averaging test functions the statistics share one inflation
    # factor and look Gaussian; the inflation exceeds pure sampling noise
    law = dl.lognormal_law(0.0, 0.5)
    m, n, n_funcs = 200, 50_000, 300
    world = dl.realize_world(
        dl.PerturbationScheme(m, dl.IndependentWeights((law,))), substream(21, 60)
    )
    rng = substream(21, 61)
    u1 = dl.sample_uniform(world, 0, n, rng)
    u0 = rng.random(n)
    ell = np.arange(1, n_funcs + 1)
    phi1 = np.sqrt(2) * np.cos(np.pi * np.outer(ell, u1)).mean(axis=1)
    phi0 = np.sqrt(2) * np.cos(np.pi * np.outer(ell, u0)).mean(axis=1)
    z = (2.0 / n) ** -0.5 * (phi1 - phi0)  # unit-variance functions
    res = stats.anderson(z, dist="norm", method="interpolate")
    assert res.pvalue > 0.01
    assert z.std() > 1.5  # inflated relative to pure sampling noise


def test_bundle_rows_tidy_layout(rng):
    phi = rng.normal(size=(3, 12))
    fit = fit_weights(make_moments(phi))
    bundle = residual_qq(fit)
    rows = bundle_rows(bundle)
    assert all(len(r) == 4 for r in rows)
    kinds = {r[0] for r in rows}
    assert kinds == {"residual_vs_fitted", "qq_normal"}
    assert sum(r[0] == "qq_normal" for r in rows) == 12
