import numpy as np
import pytest
from scipy import stats

import driftlab as dl
from conftest import make_moments
from driftlab.diagnostics import diagnostic_rows, residual_rows, scatter_rows, shift_rows
from driftlab.dlm import fit_weights
from driftlab.moments import evaluate_moments
from driftlab.rng import substream
from driftlab.tables import DatasetCollection, Table
from driftlab.testfuncs import parse_test_functions


def points(rows, plot_id):
    """The (x, y) pairs of the rows with ``plot_id``, as an (n, 2) array."""
    return np.array([(x, y) for p, x, y, _ in rows if p == plot_id]).reshape(-1, 2)


def slopes(moments):
    """Label -> (slope, R^2) of every moment scatter block."""
    return {label: (x, y) for p, x, y, label in scatter_rows(moments)
            if p == "moment_scatter_slope"}


def shift_stats(moments):
    """Label -> standardized shift statistic."""
    return {label: x for p, x, _, label in shift_rows(moments)}


def qq_of_draws(draws):
    """The QQ points of a K = 1 fit whose residuals are ``draws``: the target
    moments are the draws and the source moments are zero."""
    fit = fit_weights(make_moments(np.vstack([draws, np.zeros_like(draws)])))
    assert np.allclose(fit.residuals, draws)
    return points(residual_rows(fit), "qq_normal")


def test_single_function_qq_point(rng):
    phi = rng.normal(size=(2, 1))
    with pytest.warns(UserWarning, match="L == K"):
        fit = fit_weights(make_moments(phi))
    qq = points(residual_rows(fit), "qq_normal")
    assert qq.shape == (1, 2)
    assert qq[0, 0] == pytest.approx(0.0)  # median quantile
    assert qq[0, 1] == pytest.approx(fit.residuals[0] / np.sqrt(fit.sigma2_hat))


def test_residual_points_fitted_values(rng):
    phi = rng.normal(size=(4, 12))
    mm = make_moments(phi)
    fit = fit_weights(mm)
    resid = points(residual_rows(fit), "residual_vs_fitted")
    fitted = fit.beta_hat @ phi[1:]
    assert np.allclose(resid[:, 0], fitted)
    assert np.allclose(resid[:, 1], fit.residuals)


def test_standardized_residuals_df_identity(rng):
    phi = rng.normal(size=(4, 30))
    fit = fit_weights(make_moments(phi))
    std = points(residual_rows(fit), "qq_normal")[:, 1]
    # sum of squared standardized residuals equals the residual df exactly
    assert np.sum(std**2) == pytest.approx(fit.df, rel=1e-8)


def test_zero_variance_fit_flags_qq(rng):
    phi = rng.normal(size=(2, 6))
    phi[0] = phi[1]  # single source identical to the target: exact zeros
    fit = fit_weights(make_moments(phi))
    assert fit.sigma2_hat == 0.0
    rows = residual_rows(fit)
    assert points(rows, "qq_normal").size == 0
    assert points(rows, "residual_vs_fitted").shape == (6, 2)


def test_gaussian_residuals_track_the_line():
    # standardized normal draws: inner-90% QQ deviation stays below 0.15
    # (the extreme order statistics fluctuate far more and are excluded)
    rng = substream(42, 50)
    n_funcs = 1000
    qq = qq_of_draws(rng.standard_normal(n_funcs))
    lo, hi = int(0.05 * n_funcs), int(0.95 * n_funcs)
    assert np.abs(qq[:, 1] - qq[:, 0])[lo:hi].max() < 0.15


def test_heavy_tailed_residuals_leave_the_line():
    # t(2) draws: even over the inner 90% the QQ points leave the line by
    # more than the bound the Gaussian draws above stay within
    n_funcs = 1000
    qq = qq_of_draws(stats.t.rvs(df=2, size=n_funcs, random_state=np.random.RandomState(7)))
    lo, hi = int(0.05 * n_funcs), int(0.95 * n_funcs)
    assert np.abs(qq[:, 1] - qq[:, 0])[lo:hi].max() > 0.15


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


def test_moment_scatter_coupled_vs_independent():
    coupled = slopes(_simulated_moments(1.0))
    assert len(coupled) == 2
    assert all(r2 > 0.95 for _, r2 in coupled.values())
    indep = slopes(_simulated_moments(0.0))
    assert all(r2 < 0.05 for _, r2 in indep.values())


def test_moment_scatter_slope_estimates_sigma_ratio():
    rho = 0.6
    mm = _simulated_moments(rho, seed=9)
    target = (np.exp(0.25 * rho) - 1) / (np.exp(0.25) - 1)
    n_points = len(points(scatter_rows(mm), "moment_scatter")) // 2
    se = 3.5 / np.sqrt(n_points)
    for slope, _ in slopes(mm).values():
        assert abs(slope - target) < 3 * se


def test_one_source_or_few_functions_give_no_scatter_rows(rng):
    assert scatter_rows(make_moments(rng.normal(size=(2, 20)))) == []
    assert scatter_rows(make_moments(rng.normal(size=(3, 9)))) == []
    assert len(scatter_rows(make_moments(rng.normal(size=(3, 10))))) == 2 * (10 + 1)


def test_shift_stats_identical_datasets_zero():
    x = np.arange(10.0)
    src = Table("s", dict(x=x))
    tgt = Table("t", dict(x=x))
    data = DatasetCollection((src,), tgt)
    stats_map = shift_stats(evaluate_moments(data, parse_test_functions(["column:x"], data)))
    assert stats_map["s|column:x"] == pytest.approx(0.0, abs=1e-14)


def test_shift_stats_prefactor_algebra():
    n = 50
    delta = 0.7
    rng = np.random.default_rng(12)
    base = rng.normal(size=n)
    base = (base - base.mean()) / base.std()  # exactly unit sd, zero mean
    src = Table("s", dict(x=base + delta))
    tgt = Table("t", dict(x=base))
    data = DatasetCollection((src,), tgt)
    stats_map = shift_stats(evaluate_moments(data, parse_test_functions(["column:x"], data)))
    assert stats_map["s|column:x"] == pytest.approx(delta * np.sqrt(n / 2))


def test_shift_stats_skip_zero_sd():
    src = Table("s", dict(x=[1.0, 1.0, 1.0], y=[0.0, 1.0, 2.0]))
    tgt = Table("t", dict(x=[1.0], y=[1.0]))
    data = DatasetCollection((src,), tgt)
    with pytest.warns(UserWarning, match="zero pooled"):
        stats_map = shift_stats(
            evaluate_moments(data, parse_test_functions(["column:x", "column:y"], data))
        )
    assert "s|column:x" not in stats_map
    assert "s|column:y" in stats_map


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


def test_diagnostic_rows_tidy_layout(rng):
    phi = rng.normal(size=(3, 12))
    mm = make_moments(phi, pooled=np.eye(12))
    rows = diagnostic_rows(fit_weights(mm))
    assert all(len(r) == 4 for r in rows)
    kinds = [r[0] for r in rows]
    # each diagnostic's rows in one run, in a fixed order
    order = ["residual_vs_fitted", "qq_normal", "moment_scatter", "moment_scatter_slope",
             "moment_scatter", "moment_scatter_slope", "shift_stat"]
    assert [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k] == order
    assert kinds.count("qq_normal") == 12
    assert kinds.count("moment_scatter") == 2 * 12
    assert kinds.count("shift_stat") == 2 * 12
