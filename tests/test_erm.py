import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import make_moments
from driftlab.dlm import fit_weights
from driftlab.erm import (
    SeparationError,
    _newton,
    density_ratio_weights,
    design_matrix,
    erm_ci,
    fit_erm,
    fit_erm_arrays,
    fit_weighted_samples,
    importance_weights,
    logistic_loss,
    ood_risk,
    squared_error_loss,
    validate_loss,
)
from driftlab.tables import DatasetCollection, Table


def linear_data(rng, n, theta, noise=0.5):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, len(theta) - 1))])
    y = x @ theta + noise * rng.normal(size=n)
    return x, y


@pytest.mark.parametrize("spec_factory", [squared_error_loss, logistic_loss])
def test_loss_derivatives_match_finite_differences(spec_factory, rng):
    spec = spec_factory()
    for _ in range(10):
        x = rng.normal(size=(1, 3))
        y = (
            rng.normal(size=1)
            if spec.family.startswith("squared")
            else rng.integers(0, 2, size=1).astype(float)
        )
        theta = rng.normal(size=3)
        validate_loss(spec, theta, x, y)


def test_single_dataset_squared_equals_ols(rng):
    theta = np.array([1.0, -2.0, 0.5])
    x, y = linear_data(rng, 400, theta)
    fit = fit_erm_arrays([(x, y)], squared_error_loss(), np.array([1.0]))
    ols = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(fit.theta_hat, ols, atol=1e-9)
    assert fit.converged


def test_identical_datasets_any_weights(rng):
    theta = np.array([0.3, 1.2])
    x, y = linear_data(rng, 300, theta)
    single = fit_erm_arrays([(x, y)], squared_error_loss(), np.array([1.0]))
    both = fit_erm_arrays(
        [(x, y), (x, y)], squared_error_loss(), np.array([0.3, 0.7])
    )
    assert np.allclose(single.theta_hat, both.theta_hat, atol=1e-9)


def test_weighted_normal_equations_oracle(rng):
    theta = np.array([1.0, 2.0])
    x1, y1 = linear_data(rng, 200, theta)
    x2, y2 = linear_data(rng, 300, np.array([0.0, -1.0]))
    beta = np.array([0.6, 0.4])
    fit = fit_erm_arrays([(x1, y1), (x2, y2)], squared_error_loss(), beta)
    a = beta[0] * x1.T @ x1 / 200 + beta[1] * x2.T @ x2 / 300
    b = beta[0] * x1.T @ y1 / 200 + beta[1] * x2.T @ y2 / 300
    assert np.allclose(fit.theta_hat, np.linalg.solve(a, b), atol=1e-9)


def test_one_hot_recovers_single_source(rng):
    x1, y1 = linear_data(rng, 150, np.array([1.0, 1.0]))
    x2, y2 = linear_data(rng, 150, np.array([-1.0, 2.0]))
    one_hot = fit_erm_arrays(
        [(x1, y1), (x2, y2)], squared_error_loss(), np.array([0.0, 1.0])
    )
    solo = fit_erm_arrays([(x2, y2)], squared_error_loss(), np.array([1.0]))
    assert np.allclose(one_hot.theta_hat, solo.theta_hat, atol=1e-10)


def test_logistic_matches_scipy_oracle(rng):
    n = 500
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    p = 1 / (1 + np.exp(-(x @ np.array([-0.5, 1.5]))))
    y = (rng.random(n) < p).astype(float)
    spec = logistic_loss()
    fit = fit_erm_arrays([(x, y)], spec, np.array([1.0]))
    res = minimize(
        lambda t: spec.loss(t, x, y).mean(), np.zeros(2), method="BFGS", tol=1e-12
    )
    assert np.allclose(fit.theta_hat, res.x, atol=1e-6)
    assert fit.grad_norm <= 1e-8 * (1 + np.linalg.norm(fit.theta_hat))


def test_newton_objective_monotone(rng):
    # instrument the loss to record objective values at accepted iterates
    n = 300
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < 0.5).astype(float)
    base = logistic_loss()
    seen = []

    def loss(theta, xx, yy):
        vals = base.loss(theta, xx, yy)
        seen.append(vals.mean())
        return vals

    from driftlab.erm import LossSpec

    spec = LossSpec("logistic", loss, base.gradient, base.hessian_mean)
    fit_erm_arrays([(x, y)], spec, np.array([1.0]))
    # the accepted sequence (first eval per line search is the incumbent)
    assert len(seen) >= 2


def test_nonconvergence_flags(rng):
    n = 400
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < 0.5).astype(float)
    with pytest.warns(UserWarning, match="did not reach"):
        fit = fit_erm_arrays(
            [(x, y)],
            logistic_loss(),
            np.array([1.0]),
            theta0=np.array([4.0, -4.0]),
            max_iter=1,
        )
    assert not fit.converged
    assert fit.n_iterations == 1


def test_newton_stops_when_accepted_step_leaves_objective_unchanged():
    # f is flat to rounding near the optimum while the gradient carries a
    # sign-alternating floor above the 1e-10 tolerance, so Armijo keeps
    # accepting steps that do not lower f
    target = np.array([1.0, -2.0])
    calls = itertools.count()

    def value(theta):
        d = theta - target
        return 1e6 + 0.5 * d @ d

    def grad(theta):
        return theta - target + 3e-10 * (-1.0) ** next(calls)

    theta, converged, n_iter, gnorm = _newton(value, grad, lambda t: np.eye(2), np.zeros(2))
    assert n_iter <= 5
    assert converged
    assert gnorm < 1e-8
    assert np.abs(theta - target).max() < 1e-9


def test_influence_variance_matches_per_row_influences(rng):
    x1, y1 = linear_data(rng, 400, np.array([1.0, 2.0, -1.0]))
    x2, y2 = linear_data(rng, 300, np.array([0.5, 2.0, -1.5]))
    spec = squared_error_loss()
    fit = fit_erm_arrays([(x1, y1), (x2, y2)], spec, np.array([0.3, 0.7]))
    grads = np.vstack(
        [spec.gradient(fit.theta_hat, x1, y1), spec.gradient(fit.theta_hat, x2, y2)]
    )
    infl = -np.linalg.solve(fit.hessian_hat, grads.T).T
    expected = np.cov(infl.T, bias=True)
    assert np.allclose(fit.influence_variance, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(fit.influence_variance, fit.influence_variance.T)


def test_ood_risk_one_hot_identity(rng):
    x, y = linear_data(rng, 400, np.array([1.0, 2.0]))
    fit = fit_erm_arrays([(x, y)], squared_error_loss(), np.array([1.0]))
    risk = ood_risk(fit, sigma_w=np.eye(1), m=100)
    assert risk.quadratic_form == pytest.approx(1.0)
    trace = np.trace(fit.hessian_hat @ fit.influence_variance)
    assert risk.trace_term == pytest.approx(trace)
    # mean excess risk carries the 1/2 Taylor constant
    assert risk.value == pytest.approx(0.5 * trace / 100)
    obs = ood_risk(fit, shift_scale=0.01)
    assert obs.mode == "observational"
    assert obs.value == pytest.approx(0.5 * 0.01 * trace)


def test_ood_risk_simplex_quadratic_oracle():
    # minimizing b' diag(1,4) b on the simplex: b = (0.8, 0.2), value 0.8
    from driftlab.dlm import minimize_quadratic_on_simplex

    sigma = np.diag([1.0, 4.0])
    beta, _ = minimize_quadratic_on_simplex(sigma)
    assert beta == pytest.approx([0.8, 0.2])
    assert beta @ sigma @ beta == pytest.approx(0.8)


def test_ood_risk_trace_term_matches_direct_computation(rng):
    x1, y1 = linear_data(rng, 300, np.array([1.0, 2.0]))
    x2, y2 = linear_data(rng, 300, np.array([1.0, 2.0]))
    beta = np.array([0.5, 0.5])
    fit = fit_erm_arrays([(x1, y1), (x2, y2)], squared_error_loss(), beta)
    spec = squared_error_loss()
    grads = np.vstack(
        [spec.gradient(fit.theta_hat, x1, y1), spec.gradient(fit.theta_hat, x2, y2)]
    )
    v = np.cov(grads.T, bias=True)
    expected = np.trace(np.linalg.solve(fit.hessian_hat, v))
    risk = ood_risk(fit, sigma_w=np.eye(2), m=50)
    assert risk.trace_term == pytest.approx(expected, rel=1e-10)


def test_erm_ci_zero_residual_dlm(rng):
    phi = rng.normal(size=(3, 8))
    phi[0] = phi[1]
    dlm_fit = fit_weights(make_moments(phi))
    x, y = linear_data(rng, 200, np.array([1.0, 2.0]))
    fit = fit_erm_arrays([(x, y), (x, y)], squared_error_loss(), dlm_fit.beta_hat)
    ci = erm_ci(fit, dlm_fit)
    assert np.allclose(ci[:, 0], ci[:, 1])


def test_erm_ci_intercept_only_hand_oracle(rng):
    # theta = weighted mean of y; influence = y - theta; width from pooled var
    y1 = rng.normal(1.0, 1.0, size=400)
    y2 = rng.normal(2.0, 1.0, size=600)
    x1 = np.ones((400, 1))
    x2 = np.ones((600, 1))
    beta = np.array([0.3, 0.7])
    fit = fit_erm_arrays([(x1, y1), (x2, y2)], squared_error_loss(), beta)
    assert fit.theta_hat[0] == pytest.approx(0.3 * y1.mean() + 0.7 * y2.mean())
    pooled = np.concatenate([y1, y2])
    infl_var = np.var(pooled - fit.theta_hat[0])
    assert fit.influence_variance[0, 0] == pytest.approx(infl_var, rel=1e-10)

    mm = make_moments(rng.normal(size=(3, 10)))
    dlm_fit = fit_weights(mm)
    ci = erm_ci(fit, dlm_fit, level=0.95)
    half = (ci[0, 1] - ci[0, 0]) / 2
    from scipy.stats import norm

    expected = norm.ppf(0.975) * np.sqrt(infl_var) * np.sqrt(dlm_fit.rss / 10)
    assert half == pytest.approx(expected, rel=1e-10)


def test_density_ratio_arithmetic():
    w = density_ratio_weights(np.array([2 / 3]), 0.5)
    assert w[0] == pytest.approx(2.0)


def test_importance_weights_identical_distributions(rng):
    x = rng.normal(size=(10_000, 2))
    res = importance_weights(x[:5000], x[5000:])
    assert 0.9 <= np.median(res.weights) <= 1.1
    assert res.weights.min() > 0


def test_importance_weights_disjoint_supports_clip(rng):
    x_src = rng.normal(loc=0.0, size=(500, 1))
    x_tgt = rng.normal(loc=8.0, size=(500, 1))
    with pytest.warns(UserWarning, match="clipped"):
        res = importance_weights(x_src, x_tgt)
    assert res.clipped
    assert res.weights.max() == pytest.approx(res.clip_threshold)


def test_importance_weights_separation_error(rng):
    x_src = rng.normal(loc=0.0, size=(200, 1))
    x_tgt = rng.normal(loc=50.0, size=(200, 1))
    with pytest.raises(SeparationError):
        importance_weights(x_src, x_tgt, l2_penalty=0.0)


def test_fit_weighted_samples_reweights(rng):
    x, y = linear_data(rng, 500, np.array([0.0, 1.0]))
    w = np.ones(500)
    w[:250] = 1e-9  # effectively drop the first half
    fit = fit_weighted_samples(x, y, w, squared_error_loss())
    sub = fit_erm_arrays([(x[250:], y[250:])], squared_error_loss(), np.array([1.0]))
    assert np.allclose(fit.theta_hat, sub.theta_hat, atol=1e-5)


def test_fit_erm_from_tables(rng):
    n = 300
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + 0.1 * rng.normal(size=n)
    src = Table.from_arrays("s", x=x, y=y)
    tgt = Table.from_arrays("t", x=x[:20])
    data = DatasetCollection((src,), tgt, outcome="y")
    fit = fit_erm(data, squared_error_loss(), np.array([1.0]))
    assert fit.feature_names == ("intercept", "x")
    assert fit.theta_hat == pytest.approx([1.0, 2.0], abs=0.05)
    with pytest.raises(ValueError):
        fit_erm(
            DatasetCollection((src,), tgt), squared_error_loss(), np.array([1.0])
        )


def test_design_matrix_orders_columns():
    tbl = Table.from_arrays("s", b=[1.0, 2.0], a=[3.0, 4.0])
    x = design_matrix(tbl, ("a", "b"))
    assert x.shape == (2, 3)
    assert np.allclose(x[:, 0], 1.0)
    assert np.allclose(x[:, 1], [3.0, 4.0])
