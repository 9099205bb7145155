import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import make_moments
from driftlab import erm
from driftlab.dlm import fit_weights, target_ci
from driftlab.erm import (
    LossSpec,
    _newton,
    design_matrix,
    erm_ci,
    fit_erm,
    importance_weights,
    logistic_loss,
    ood_risk,
    outcome_vector,
    squared_error_loss,
)
from driftlab.moments import evaluate_moments
from driftlab.tables import DatasetCollection, Table, read_csv_table
from driftlab.testfuncs import parse_test_functions

FIXTURE = Path(__file__).parent / "data" / "fixture_panel"


def linear_data(rng, n, theta, noise=0.5):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, len(theta) - 1))])
    y = x @ theta + noise * rng.normal(size=n)
    return x, y


def fit_datasets(datasets, spec, beta):
    """fit_erm on the (x, y) datasets stacked in order, at dataset weights
    beta: row weights beta_k / n_k."""
    sizes = np.array([y.size for _, y in datasets])
    w = np.repeat(np.asarray(beta, dtype=float) / sizes, sizes)
    return fit_erm(np.vstack([x for x, _ in datasets]),
                   np.concatenate([y for _, y in datasets]), w, sizes, spec)


def with_intercept(x):
    return np.column_stack([np.ones(x.shape[0]), x])


def central_difference(f, theta, step=1e-6):
    """Central finite differences of f along each coordinate of theta."""
    cols = []
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = step
        cols.append((f(theta + e) - f(theta - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def assert_matches_finite_differences(exact, fd):
    assert np.max(np.abs(exact - fd) / np.maximum(np.abs(exact), 1.0)) <= 1e-5


def row_gradients(spec, theta, x, y):
    """The per-row gradients of the loss in theta: x_i l'(x_i theta, y_i)."""
    return x * spec.dloss(x @ theta, y)[:, None]


def assembled_hessian(spec, theta, x, y, w):
    """sum_i w_i l''(x_i theta, y_i) x_i x_i', symmetrized as fit_erm reads it."""
    h = (x.T * (w * spec.d2loss(x @ theta, y))) @ x
    return 0.5 * (h + h.T)


def random_outcome(spec, rng, n):
    if spec.family == "logistic":
        return rng.integers(0, 2, size=n).astype(float)
    return rng.normal(size=n)


@pytest.mark.parametrize("spec_factory", [squared_error_loss, logistic_loss])
def test_loss_derivatives_in_eta_match_finite_differences(spec_factory, rng):
    spec = spec_factory()
    eta = 3.0 * rng.normal(size=50)
    y = random_outcome(spec, rng, 50)
    step = 1e-6
    fd_d1 = (spec.loss(eta + step, y) - spec.loss(eta - step, y)) / (2 * step)
    fd_d2 = (spec.dloss(eta + step, y) - spec.dloss(eta - step, y)) / (2 * step)
    for d, fd in ((spec.dloss(eta, y), fd_d1), (spec.d2loss(eta, y), fd_d2)):
        assert d.shape == eta.shape
        assert_matches_finite_differences(d, fd)


@pytest.mark.parametrize("spec_factory", [squared_error_loss, logistic_loss])
def test_newton_assembles_the_derivatives_of_its_objective(spec_factory, rng, monkeypatch):
    # each full Newton step from theta solves H(theta) step = -g(theta), and
    # the cap returns H where the last step lands: both against central
    # differences of f, at non-uniform row weights and a non-zero ridge
    spec = spec_factory()
    n, ridge = 200, 0.3
    x = with_intercept(rng.normal(size=(n, 2)))
    y = random_outcome(spec, rng, n)
    w = rng.random(n)
    w /= w.sum()

    def f(theta):
        return spec.loss(x @ theta, y) @ w + 0.5 * ridge * (theta @ theta)

    def fd_gradient(theta):
        return central_difference(f, theta, step=1e-5)

    def fd_hessian(theta):
        return central_difference(fd_gradient, theta, step=1e-4)

    iterates = [np.zeros(3)]
    for cap in (1, 2):
        monkeypatch.setattr(erm, "_MAX_ITER", cap)
        theta, h, n_iterations, _ = _newton(x, y, w, spec, ridge=ridge)
        assert n_iterations == cap
        assert_matches_finite_differences(h, fd_hessian(theta))
        iterates.append(theta)
    for before, after in itertools.pairwise(iterates):
        assert_matches_finite_differences(fd_hessian(before) @ (after - before),
                                          -fd_gradient(before))


def test_single_dataset_squared_equals_ols(rng):
    theta = np.array([1.0, -2.0, 0.5])
    x, y = linear_data(rng, 400, theta)
    fit = fit_datasets([(x, y)], squared_error_loss(), [1.0])
    ols = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(fit.theta_hat, ols, atol=1e-9)
    assert fit.converged


def test_identical_datasets_any_weights(rng):
    theta = np.array([0.3, 1.2])
    x, y = linear_data(rng, 300, theta)
    single = fit_datasets([(x, y)], squared_error_loss(), [1.0])
    both = fit_datasets([(x, y), (x, y)], squared_error_loss(), [0.3, 0.7])
    assert np.allclose(single.theta_hat, both.theta_hat, atol=1e-9)


def test_weighted_normal_equations_oracle(rng):
    theta = np.array([1.0, 2.0])
    x1, y1 = linear_data(rng, 200, theta)
    x2, y2 = linear_data(rng, 300, np.array([0.0, -1.0]))
    beta = np.array([0.6, 0.4])
    fit = fit_datasets([(x1, y1), (x2, y2)], squared_error_loss(), beta)
    a = beta[0] * x1.T @ x1 / 200 + beta[1] * x2.T @ x2 / 300
    b = beta[0] * x1.T @ y1 / 200 + beta[1] * x2.T @ y2 / 300
    assert np.allclose(fit.theta_hat, np.linalg.solve(a, b), atol=1e-9)


def test_one_hot_recovers_single_source(rng):
    x1, y1 = linear_data(rng, 150, np.array([1.0, 1.0]))
    x2, y2 = linear_data(rng, 150, np.array([-1.0, 2.0]))
    one_hot = fit_datasets([(x1, y1), (x2, y2)], squared_error_loss(), [0.0, 1.0])
    solo = fit_datasets([(x2, y2)], squared_error_loss(), [1.0])
    assert np.allclose(one_hot.theta_hat, solo.theta_hat, atol=1e-10)


def test_logistic_matches_scipy_oracle(rng):
    n = 500
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    p = 1 / (1 + np.exp(-(x @ np.array([-0.5, 1.5]))))
    y = (rng.random(n) < p).astype(float)
    spec = logistic_loss()
    fit = fit_erm(x, y, np.full(n, 1.0 / n), [n], spec)
    res = minimize(
        lambda t: spec.loss(x @ t, y).mean(), np.zeros(2), method="BFGS", tol=1e-12
    )
    assert np.allclose(fit.theta_hat, res.x, atol=1e-6)
    assert fit.converged


def test_newton_objective_monotone():
    # on the identity design eta = theta; the iteration takes l' once per
    # iteration, at each accepted iterate, so those calls record the iterates
    x = np.eye(3)
    y = np.array([0.2, 0.5, 0.9])
    w = np.full(3, 1.0 / 3)
    base = logistic_loss()
    seen = []

    def dloss(eta, yy):
        seen.append(eta.copy())
        return base.dloss(eta, yy)

    spec = LossSpec("logistic", base.loss, dloss, base.d2loss)
    _newton(x, y, w, spec)
    assert len(seen) >= 2
    values = [base.loss(eta, y) @ w for eta in seen]
    assert np.all(np.diff(values) <= 0)


def test_nonconvergence_flags(rng, monkeypatch):
    n = 400
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < 0.5).astype(float)
    monkeypatch.setattr(erm, "_MAX_ITER", 1)
    with pytest.warns(UserWarning, match="^the ERM fit did not converge after 1 iterations, "
                      "as the iteration cap was reached; returning the last iterate$"):
        fit = fit_datasets([(x, y)], logistic_loss(), [1.0])
    assert not fit.converged
    assert fit.n_iterations == 1


def test_importance_classifier_nonconvergence_warning_names_it(rng, monkeypatch):
    x = with_intercept(np.concatenate([rng.normal(size=(300, 1)),
                                       rng.normal(loc=0.5, size=(300, 1))]))
    monkeypatch.setattr(erm, "_MAX_ITER", 1)
    with pytest.warns(UserWarning, match="^the importance classifier did not converge after 1 "
                      "iterations, as the iteration cap was reached; its weights are used "
                      "as they are$"):
        res = importance_weights(x, 300, clip_quantile=1.0)
    assert res.n_clipped == 0 and np.all(res.weights > 0)


@pytest.mark.parametrize("spec", [squared_error_loss(), logistic_loss()],
                         ids=lambda spec: spec.family)
def test_convergence_does_not_depend_on_a_covariates_units(rng, spec):
    # the decrement g' H^{-1} g has no units, so rescaling a covariate
    # rescales its coefficient and nothing else
    n = 400
    z = rng.normal(size=n)
    eta = -0.5 + 1.5 * z
    if spec.family == "logistic":
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.normal(size=n)
    fits = {}
    for scale in (1e-100, 1e-6, 1.0, 1e6, 1e100):
        fit = fit_erm(np.column_stack([np.ones(n), scale * z]), y, np.full(n, 1.0 / n),
                      [n], spec)
        fits[scale] = (fit.converged, fit.n_iterations, fit.theta_hat * [1.0, scale])
    assert all(converged for converged, _, _ in fits.values())
    assert len({n_iter for _, n_iter, _ in fits.values()}) == 1
    reference = fits[1.0][2]
    for _, _, theta in fits.values():
        np.testing.assert_allclose(theta, reference, rtol=1e-10)


def test_newton_stops_when_accepted_step_leaves_objective_unchanged():
    # f is flat to rounding near the optimum while the gradient carries a
    # sign-alternating floor of 3e-10: the decrement there is far within
    # f's rounding, so the iteration converges instead of stepping on. On
    # the identity design at weights 1/2, f(theta) = 1e6 + |theta - target|^2 / 2
    target = np.array([1.0, -2.0])
    calls = itertools.count()

    def dloss(eta, y):
        return 2.0 * (eta - y) + 6e-10 * (-1.0) ** next(calls)

    spec = LossSpec("flat", lambda eta, y: 1e6 + (eta - y) ** 2, dloss,
                    lambda eta, y: np.full_like(eta, 2.0))
    theta, _, n_iterations, stop = _newton(np.eye(2), target, np.full(2, 0.5), spec)
    assert n_iterations <= 5
    assert stop is None
    assert np.abs(theta - target).max() < 1e-9


def step_loss() -> LossSpec:
    """On the identity design, every step away from theta = 0 raises the
    loss, however short."""
    return LossSpec("step", lambda eta, y: 1.0 + (eta != 0.0), lambda eta, y: np.ones_like(eta),
                    lambda eta, y: 1.0 + eta * eta)


def test_nonconvergence_warning_names_a_failed_line_search():
    with pytest.warns(UserWarning, match="^the ERM fit did not converge after 1 iterations, "
                      "as no descent step was accepted; returning the last iterate$"):
        fit = fit_erm(np.eye(2), np.zeros(2), np.full(2, 0.5), [2], step_loss())
    assert (fit.theta_hat.tolist(), fit.converged, fit.n_iterations) == ([0.0, 0.0], False, 1)


@pytest.mark.parametrize("case", ["converged", "iteration cap", "failed line search"])
def test_hessian_hat_is_the_hessian_at_theta_hat(case, rng, monkeypatch):
    # fit_erm reads the Hessian _newton returns; at the cap that is the
    # Hessian after the last step, not the one that chose it
    n = 400
    x = with_intercept(rng.normal(size=(n, 2)))
    y = (rng.random(n) < erm.expit(x @ [-0.5, 1.5, -1.0])).astype(float)
    w = np.full(n, 1.0 / n)
    spec = logistic_loss()
    if case == "iteration cap":
        monkeypatch.setattr(erm, "_MAX_ITER", 1)
    if case == "failed line search":
        x, y, w, spec = np.eye(2), np.zeros(2), np.full(2, 0.5), step_loss()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_erm(x, y, w, [y.size], spec)
    assert fit.converged == (case == "converged") and len(caught) == (case != "converged")
    direct = assembled_hessian(spec, fit.theta_hat, x, y, w)
    np.testing.assert_allclose(fit.hessian_hat, direct, rtol=1e-13, atol=0)
    if case == "iteration cap":
        stale = assembled_hessian(spec, np.zeros(3), x, y, w)
        assert not np.allclose(fit.hessian_hat, stale, rtol=1e-3)


def test_influence_variance_matches_per_row_influences(rng):
    x1, y1 = linear_data(rng, 400, np.array([1.0, 2.0, -1.0]))
    x2, y2 = linear_data(rng, 300, np.array([0.5, 2.0, -1.5]))
    spec = squared_error_loss()
    fit = fit_datasets([(x1, y1), (x2, y2)], spec, [0.3, 0.7])
    grads = np.vstack(
        [row_gradients(spec, fit.theta_hat, x1, y1), row_gradients(spec, fit.theta_hat, x2, y2)]
    )
    infl = -np.linalg.solve(fit.hessian_hat, grads.T).T
    expected = np.cov(infl.T, bias=True)
    assert np.allclose(fit.influence_variance, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(fit.influence_variance, fit.influence_variance.T)


def test_ood_risk_one_hot_identity(rng):
    x, y = linear_data(rng, 400, np.array([1.0, 2.0]))
    fit = fit_datasets([(x, y)], squared_error_loss(), [1.0])
    value, trace_term = ood_risk(fit, shift_scale=0.01)
    trace = np.trace(fit.hessian_hat @ fit.influence_variance)
    assert trace_term == pytest.approx(trace)
    # mean excess risk carries the 1/2 Taylor constant, at the shift scale given
    assert value == pytest.approx(0.5 * 0.01 * trace)
    assert value == 0.5 * 0.01 * trace_term


def test_ood_risk_simplex_quadratic_oracle():
    # minimizing b' diag(1,4) b on the simplex: b = (0.8, 0.2), value 0.8
    from driftlab.dlm import _simplex_weights

    sigma = np.diag([1.0, 4.0])
    beta, _ = _simplex_weights(np.diag([1.0, 2.0]))  # Phi' Phi = sigma
    assert beta == pytest.approx([0.8, 0.2])
    assert beta @ sigma @ beta == pytest.approx(0.8)


def test_ood_risk_trace_term_matches_direct_computation(rng):
    x1, y1 = linear_data(rng, 300, np.array([1.0, 2.0]))
    x2, y2 = linear_data(rng, 300, np.array([1.0, 2.0]))
    beta = np.array([0.5, 0.5])
    fit = fit_datasets([(x1, y1), (x2, y2)], squared_error_loss(), beta)
    spec = squared_error_loss()
    grads = np.vstack(
        [row_gradients(spec, fit.theta_hat, x1, y1), row_gradients(spec, fit.theta_hat, x2, y2)]
    )
    v = np.cov(grads.T, bias=True)
    expected = np.trace(np.linalg.solve(fit.hessian_hat, v))
    _, trace_term = ood_risk(fit, shift_scale=1.0)
    assert trace_term == pytest.approx(expected, rel=1e-10)


def test_erm_ci_zero_residual_dlm(rng):
    phi = rng.normal(size=(3, 8))
    phi[0] = phi[1]
    dlm_fit = fit_weights(make_moments(phi))
    x, y = linear_data(rng, 200, np.array([1.0, 2.0]))
    fit = fit_datasets([(x, y), (x, y)], squared_error_loss(), dlm_fit.beta_hat)
    ci = erm_ci(fit, dlm_fit)
    assert np.allclose(ci[:, 0], ci[:, 1])


def test_erm_ci_intercept_only_hand_oracle(rng):
    # theta = weighted mean of y; influence = y - theta, so source k's mean
    # influence is ybar_k - theta; width from pooled var
    y1 = rng.normal(1.0, 1.0, size=400)
    y2 = rng.normal(2.0, 1.0, size=600)
    # one-column tables: the outcome is the target's only column, so there
    # are no covariates and the design is the intercept
    data = DatasetCollection(
        (Table("s1", dict(y=y1)), Table("s2", dict(y=y2))),
        Table("t", dict(y=np.zeros(1))),
        outcome="y",
    )
    x = design_matrix(data.sources, data.numeric_covariates)
    assert data.numeric_covariates == () and np.array_equal(x, np.ones((1000, 1)))
    fit = fit_erm(x, outcome_vector(data), np.repeat([0.3 / 400, 0.7 / 600], [400, 600]),
                  data.sizes, squared_error_loss())
    theta = fit.theta_hat[0]
    assert theta == pytest.approx(0.3 * y1.mean() + 0.7 * y2.mean())
    pooled = np.concatenate([y1, y2])
    infl_var = np.var(pooled - theta)
    assert fit.influence_variance[0, 0] == pytest.approx(infl_var, rel=1e-10)
    assert fit.source_influence_means[:, 0] == pytest.approx(
        [y1.mean() - theta, y2.mean() - theta], rel=0, abs=1e-14)

    mm = make_moments(rng.normal(size=(3, 10)))
    dlm_fit = fit_weights(mm)
    ci = erm_ci(fit, dlm_fit, level=0.95)
    center, half = ci[0].mean(), (ci[0, 1] - ci[0, 0]) / 2
    assert center == pytest.approx(dlm_fit.beta_hat @ [y1.mean(), y2.mean()], rel=1e-12)
    from scipy.stats import norm

    expected = norm.ppf(0.975) * np.sqrt(infl_var) * np.sqrt(dlm_fit.rss / 10)
    assert half == pytest.approx(expected, rel=1e-10)


def fixture_data():
    sources = tuple(read_csv_table(FIXTURE / f"source_{k}.csv") for k in range(1, 5))
    return DatasetCollection(sources, read_csv_table(FIXTURE / "target.csv"), outcome="income")


@pytest.mark.parametrize("mode", ["sum_to_one", "simplex"])
def test_erm_ci_is_target_ci_of_the_influence_function(mode):
    # the weighted first-order condition sum_k beta_k mean_k(grad) = 0 puts
    # each interval's center at theta_hat_j
    data = fixture_data()
    covs = data.numeric_covariates
    tests = parse_test_functions([f"column:{c}" for c in covs] + [f"expr:{c}**2" for c in covs],
                                 data)
    dlm_fit = fit_weights(evaluate_moments(data, tests), mode=mode)
    sizes = np.array(data.sizes)
    fit = fit_erm(design_matrix(data.sources, covs), outcome_vector(data),
                  np.repeat(dlm_fit.beta_hat / sizes, sizes), sizes, squared_error_loss())
    ci = erm_ci(fit, dlm_fit, level=0.9)
    assert ci.shape == (5, 2)
    assert ci.mean(axis=1) == pytest.approx(fit.theta_hat, rel=1e-10, abs=0)
    for j, row in enumerate(ci):
        direct = target_ci(dlm_fit, fit.theta_hat[j] + fit.source_influence_means[:, j],
                           fit.influence_variance[j, j], level=0.9)
        assert row.tolist() == [direct.estimate - direct.half_width,
                                direct.estimate + direct.half_width]


def test_density_ratio_arithmetic():
    # with one binary covariate the classifier is saturated: it fits the
    # share of target rows in each group, so by Bayes' rule the weight of a
    # group is its target frequency over its source frequency
    x_src = with_intercept(np.repeat([0.0, 1.0], [300, 100])[:, None])
    x_tgt = with_intercept(np.repeat([0.0, 1.0], [100, 300])[:, None])
    res = importance_weights(np.vstack([x_src, x_tgt]), len(x_src))
    assert res.n_clipped == 0
    assert res.weights[:300] == pytest.approx(np.full(300, (1 / 4) / (3 / 4)), rel=1e-4)
    assert res.weights[300:] == pytest.approx(np.full(100, (3 / 4) / (1 / 4)), rel=1e-4)


def test_importance_weights_identical_distributions(rng):
    x = with_intercept(rng.normal(size=(10_000, 2)))
    with pytest.warns(UserWarning, match="importance weights clipped at the 99% quantile"):
        res = importance_weights(x, 5000)
    assert 0.9 <= np.median(res.weights) <= 1.1
    assert res.weights.min() > 0


def test_importance_weights_equal_the_classifier_on_stacked_designs_bit_for_bit():
    # the reference fits the classifier as erm did when it built the source
    # and target designs apart and stacked a copy of them, with erm's own
    # logistic function
    data = fixture_data()
    covariates = data.numeric_covariates
    x_source = design_matrix(data.sources, covariates)
    x_target = design_matrix((data.target,), covariates)
    n_s, n_t = len(x_source), len(x_target)
    n = n_s + n_t
    theta = _newton(np.vstack([x_source, x_target]),
                    np.concatenate([np.zeros(n_s), np.ones(n_t)]), np.full(n, 1.0 / n),
                    logistic_loss(), ridge=erm._L2_PENALTY / n)[0]
    p = erm.expit(x_source @ theta)
    raw = (p / (1.0 - p)) / ((n_t / n) / (1.0 - n_t / n))
    threshold = float(np.quantile(raw, 0.99))
    with pytest.warns(UserWarning, match="clipped"):
        res = importance_weights(design_matrix((*data.sources, data.target), covariates), n_s)
    assert res.weights.tobytes() == np.minimum(raw, threshold).tobytes()
    assert (res.clip_threshold, res.n_clipped) == (threshold, int((raw > threshold).sum()))


def test_importance_weights_disjoint_supports_clip(rng):
    x_src = with_intercept(rng.normal(loc=0.0, size=(500, 1)))
    x_tgt = with_intercept(rng.normal(loc=8.0, size=(500, 1)))
    with pytest.warns(UserWarning, match="clipped"):
        res = importance_weights(np.vstack([x_src, x_tgt]), len(x_src))
    assert res.n_clipped > 0
    assert res.weights.max() == pytest.approx(res.clip_threshold)


def test_row_weights_reweight(rng):
    x, y = linear_data(rng, 500, np.array([0.0, 1.0]))
    w = np.ones(500)
    w[:250] = 1e-9  # effectively drop the first half
    fit = fit_erm(x, y, w / w.sum(), [500], squared_error_loss())
    sub = fit_erm(x[250:], y[250:], np.full(250, 1 / 250), [250], squared_error_loss())
    assert np.allclose(fit.theta_hat, sub.theta_hat, atol=1e-5)


def test_fit_erm_from_tables(rng):
    n = 300
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + 0.1 * rng.normal(size=n)
    src = Table("s", dict(x=x, y=y))
    tgt = Table("t", dict(x=x[:20]))
    data = DatasetCollection((src,), tgt, outcome="y")
    assert data.numeric_covariates == ("x",)
    fit = fit_erm(design_matrix(data.sources, data.numeric_covariates), outcome_vector(data),
                  np.full(n, 1.0 / n), data.sizes, squared_error_loss())
    assert fit.theta_hat == pytest.approx([1.0, 2.0], abs=0.05)
    with pytest.raises(ValueError):
        outcome_vector(DatasetCollection((src,), tgt))


@pytest.mark.parametrize("rows, w, sizes, message", [
    (4, np.full(4, 0.25), [2, 1], "one row per source row"),
    (4, np.full(3, 1 / 3), [2, 2], "one row per source row"),
    (4, np.full(4, 0.2), [2, 2], "must sum to one"),
])
def test_fit_erm_checks_its_rows_and_weights(rng, rows, w, sizes, message):
    x, y = linear_data(rng, rows, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=message):
        fit_erm(x, y, w, sizes, squared_error_loss())


def test_design_matrix_orders_columns():
    first = Table("s1", dict(b=[5.0, 6.0], a=[1.0, 2.0]))
    second = Table("s2", dict(a=[3.0], b=[7.0]))
    x = design_matrix((first, second), ("a", "b"))
    assert np.array_equal(x, [[1.0, 1.0, 5.0], [1.0, 2.0, 6.0], [1.0, 3.0, 7.0]])
