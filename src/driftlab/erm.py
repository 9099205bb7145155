"""Weighted empirical risk minimization with influence-based uncertainty.

The estimator minimizes a convex combination of per-dataset empirical risks
(weights summing to one), solved by damped Newton with Armijo backtracking.
Out-of-distribution risk under random dense shift decomposes as the weight
quadratic form beta' Sigma_W beta times Trace(H^{-1} V), with H the weighted
mean Hessian and V the pooled gradient covariance; confidence intervals for
the target parameters combine the pooled influence-function variance with
the mean squared residual of a moment-matching weight fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, ndtri

from .dlm import DlmFit
from .tables import DatasetCollection, Table

__all__ = [
    "LossSpec",
    "squared_error_loss",
    "logistic_loss",
    "ErmFit",
    "OodRisk",
    "ImportanceWeightResult",
    "design_matrix",
    "fit_erm",
    "fit_erm_arrays",
    "fit_weighted_samples",
    "ood_risk",
    "erm_ci",
    "importance_weights",
    "validate_loss",
]


class ConvergenceError(RuntimeError):
    pass


class SeparationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LossSpec:
    """Twice-differentiable per-row loss with gradient and mean Hessian.

    loss(theta, X, y) -> (n,) per-row losses
    gradient(theta, X, y) -> (n, p) per-row gradients
    hessian_mean(theta, X, y) -> (p, p) average Hessian over rows
    """

    family: str
    loss: object
    gradient: object
    hessian_mean: object


def squared_error_loss() -> LossSpec:
    def loss(theta, x, y):
        r = y - x @ theta
        return r * r

    def gradient(theta, x, y):
        r = y - x @ theta
        return -2.0 * x * r[:, None]

    def hessian_mean(theta, x, y, w=None):
        if w is None:
            return 2.0 * (x.T @ x) / x.shape[0]
        return 2.0 * (x.T * w) @ x / w.sum()

    return LossSpec("squared_error_linear", loss, gradient, hessian_mean)


def logistic_loss() -> LossSpec:
    def loss(theta, x, y):
        eta = x @ theta
        return np.logaddexp(0.0, eta) - y * eta

    def gradient(theta, x, y):
        p = expit(x @ theta)
        return x * (p - y)[:, None]

    def hessian_mean(theta, x, y, w=None):
        p = expit(x @ theta)
        curv = p * (1.0 - p)
        if w is None:
            return (x.T * curv) @ x / x.shape[0]
        return (x.T * (curv * w)) @ x / w.sum()

    return LossSpec("logistic", loss, gradient, hessian_mean)


def validate_loss(
    spec: LossSpec,
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    rel_tol: float = 1e-5,
    step: float = 1e-6,
) -> None:
    """Check gradient and Hessian against central finite differences."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    grad = spec.gradient(theta, x, y).mean(axis=0)
    fd_grad = np.empty(p)
    for j in range(p):
        e = np.zeros(p)
        e[j] = step
        fd_grad[j] = (
            spec.loss(theta + e, x, y).mean() - spec.loss(theta - e, x, y).mean()
        ) / (2 * step)
    scale = np.maximum(np.abs(grad), 1.0)
    if np.max(np.abs(grad - fd_grad) / scale) > rel_tol:
        raise AssertionError("gradient does not match finite differences")
    hess = spec.hessian_mean(theta, x, y)
    fd_hess = np.empty((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = step
        fd_hess[:, j] = (
            spec.gradient(theta + e, x, y).mean(axis=0)
            - spec.gradient(theta - e, x, y).mean(axis=0)
        ) / (2 * step)
    scale = np.maximum(np.abs(hess), 1.0)
    if np.max(np.abs(hess - fd_hess) / scale) > rel_tol:
        raise AssertionError("hessian does not match finite differences")


@dataclass(frozen=True)
class ErmFit:
    theta_hat: np.ndarray
    weights_used: np.ndarray
    hessian_hat: np.ndarray  # weighted mean Hessian at theta_hat
    influence_variance: np.ndarray  # pooled covariance of the influence values
    grad_norm: float
    converged: bool
    n_iterations: int
    loss_family: str
    feature_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class OodRisk:
    """Mean excess target risk of the weighted fit.

    ``trace_term`` is Trace(H^{-1} V) with H the weighted mean Hessian and
    V the pooled gradient covariance; ``quadratic_form`` is
    beta' Sigma_W beta (simulation mode) or the plug-in residual scale
    (observational mode). ``value`` is the mean excess risk itself,
    (1/2) * quadratic_form * trace_term on the appropriate scale: the 1/2
    is the second-order Taylor constant of the risk around its minimizer.
    """

    value: float
    trace_term: float
    quadratic_form: float
    mode: str


def design_matrix(
    table: Table, covariates: tuple[str, ...], intercept: bool = True
) -> np.ndarray:
    cols = [np.asarray(table.column(c), dtype=float) for c in covariates]
    if intercept:
        cols = [np.ones(table.n_rows)] + cols
    return np.column_stack(cols)


def _weighted_objective(datasets, spec, beta):
    def value(theta):
        return sum(
            b * spec.loss(theta, x, y) @ w / w.sum()
            for b, (x, y, w) in zip(beta, datasets)
        )

    def grad(theta):
        return sum(
            b * (spec.gradient(theta, x, y).T @ w) / w.sum()
            for b, (x, y, w) in zip(beta, datasets)
        )

    def hess(theta):
        out = 0.0
        for b, (x, y, w) in zip(beta, datasets):
            if np.all(w == 1.0):
                out = out + b * spec.hessian_mean(theta, x, y)
            else:
                out = out + b * spec.hessian_mean(theta, x, y, w)
        return out

    return value, grad, hess


def _newton(value, grad, hess, theta0, max_iter=200, tol=1e-10):
    theta = np.asarray(theta0, dtype=float).copy()
    f = value(theta)
    n_iter = 0
    stalled = False
    for n_iter in range(1, max_iter + 1):
        g = grad(theta)
        if np.linalg.norm(g) <= tol * (1.0 + np.linalg.norm(theta)):
            return theta, True, n_iter, float(np.linalg.norm(g))
        if stalled:
            # the last step left f unchanged: the gradient sits at its
            # rounding floor and further steps cannot improve the fit
            break
        h = hess(theta)
        direction = None
        ridge = 0.0
        for _ in range(12):
            try:
                direction = -np.linalg.solve(h + ridge * np.eye(h.shape[0]), g)
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and g @ direction < 0:
                break
            ridge = max(2.0 * ridge, 1e-8 * max(np.abs(np.diag(h)).max(), 1.0))
        if direction is None or g @ direction >= 0:
            direction = -g
        # Armijo backtracking; in floating point an accepted step can leave
        # f unchanged, which ends the iteration at the next gradient test
        step = 1.0
        slope = g @ direction
        accepted = False
        for _ in range(60):
            cand = theta + step * direction
            f_cand = value(cand)
            if f_cand <= f + 1e-4 * step * slope:
                stalled = not f_cand < f
                theta, f = cand, f_cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    g = grad(theta)
    converged = bool(np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(theta)))
    return theta, converged, n_iter, float(np.linalg.norm(g))


def fit_erm_arrays(
    datasets: list[tuple[np.ndarray, np.ndarray]],
    spec: LossSpec,
    beta: np.ndarray,
    theta0: np.ndarray | None = None,
    sample_weights: list[np.ndarray] | None = None,
    max_iter: int = 200,
) -> ErmFit:
    """Weighted ERM over (X_k, y_k) arrays with distribution weights beta."""
    beta = np.asarray(beta, dtype=float)
    if len(datasets) != beta.size:
        raise ValueError("need one weight per dataset")
    if abs(beta.sum() - 1.0) > 1e-8:
        raise ValueError("distribution weights must sum to one")
    packed = []
    for idx, (x, y) in enumerate(datasets):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        w = (
            np.ones(x.shape[0])
            if sample_weights is None
            else np.asarray(sample_weights[idx], dtype=float)
        )
        packed.append((x, y, w))
    p = packed[0][0].shape[1]
    value, grad, hess = _weighted_objective(packed, spec, beta)
    theta0 = np.zeros(p) if theta0 is None else np.asarray(theta0, dtype=float)
    theta, converged, n_iter, gnorm = _newton(value, grad, hess, theta0, max_iter)
    if not converged:
        warnings.warn(
            f"ERM did not reach first-order tolerance in {max_iter} iterations "
            f"(|grad| = {gnorm:.3e}); returning last iterate",
            stacklevel=2,
        )
    h_hat = hess(theta)
    h_hat = 0.5 * (h_hat + h_hat.T)
    # influence values -H^{-1} grad on the pooled donor rows (never the
    # target) have covariance H^{-1} Cov(grad) H^{-1}: two p x p solves
    grads = np.vstack([spec.gradient(theta, x, y) for x, y, _ in packed])
    centered = grads - grads.mean(axis=0)
    grad_cov = centered.T @ centered / centered.shape[0]
    try:
        infl_var = np.linalg.solve(h_hat, np.linalg.solve(h_hat, grad_cov).T)
    except np.linalg.LinAlgError:
        raise ConvergenceError("weighted Hessian is singular at the optimum")
    return ErmFit(
        theta_hat=theta,
        weights_used=beta,
        hessian_hat=h_hat,
        influence_variance=0.5 * (infl_var + infl_var.T),
        grad_norm=gnorm,
        converged=converged,
        n_iterations=n_iter,
        loss_family=spec.family,
    )


def fit_erm(
    data: DatasetCollection,
    spec: LossSpec,
    beta: np.ndarray,
    covariates: tuple[str, ...] | None = None,
    intercept: bool = True,
) -> ErmFit:
    """Weighted ERM on a dataset collection (numeric covariates + outcome)."""
    if data.outcome is None:
        raise ValueError("dataset collection declares no outcome column")
    covs = covariates or tuple(
        c for c in data.covariates if data.sources[0].is_numeric(c)
    )
    arrays = [
        (design_matrix(tbl, covs, intercept), np.asarray(tbl.column(data.outcome), dtype=float))
        for tbl in data.sources
    ]
    fit = fit_erm_arrays(arrays, spec, beta)
    names = (("intercept",) if intercept else ()) + covs
    return replace(fit, feature_names=names)


def fit_weighted_samples(
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    spec: LossSpec,
) -> ErmFit:
    """Per-sample weighted M-estimation on one pooled dataset."""
    return fit_erm_arrays(
        [(x, y)], spec, np.array([1.0]), sample_weights=[np.asarray(weights, float)]
    )


def ood_risk(
    fit: ErmFit,
    sigma_w: np.ndarray | None = None,
    m: int | None = None,
    shift_scale: float | None = None,
) -> OodRisk:
    """Asymptotic mean excess risk of the weighted fit on the target.

    Simulation mode (``sigma_w`` and ``m`` known): the quadratic form
    beta' Sigma_W beta divided by m scales Trace(H^{-1} V). Observational
    mode: the mean squared residual of a moment-matching weight fit
    (``shift_scale``) substitutes for the unknown quadratic form over m.
    """
    v = fit.influence_variance  # pooled Var of -H^{-1} grad
    h = fit.hessian_hat
    # Trace(H^{-1} Var(grad)) == Trace(H Var(influence))
    trace_term = float(np.trace(h @ v))
    if sigma_w is not None:
        if m is None:
            raise ValueError("simulation mode needs the bin count m")
        q = float(fit.weights_used @ np.asarray(sigma_w, float) @ fit.weights_used)
        return OodRisk(value=0.5 * q * trace_term / m, trace_term=trace_term,
                       quadratic_form=q, mode="simulation")
    if shift_scale is None:
        raise ValueError("need sigma_w (simulation) or shift_scale (observational)")
    return OodRisk(
        value=0.5 * float(shift_scale) * trace_term,
        trace_term=trace_term,
        quadratic_form=float(shift_scale),
        mode="observational",
    )


def erm_ci(fit: ErmFit, dlm_fit: DlmFit, level: float = 0.95) -> np.ndarray:
    """Per-coordinate confidence intervals for the target parameters.

    Width combines the pooled influence variance with the mean squared
    residual of the weight fit; returns an array of (lower, upper) rows.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    z = ndtri(0.5 + level / 2.0)
    sd = np.sqrt(np.diag(fit.influence_variance))
    half = z * sd * np.sqrt(dlm_fit.shift_scale)
    return np.column_stack([fit.theta_hat - half, fit.theta_hat + half])


@dataclass(frozen=True)
class ImportanceWeightResult:
    weights: np.ndarray  # one per source row, strictly positive
    clip_threshold: float
    n_clipped: int
    clipped: bool


def density_ratio_weights(p_target_given_x: np.ndarray, p_target: float) -> np.ndarray:
    """Instance weights P(x | target) / P(x | source) via Bayes' rule."""
    p = np.asarray(p_target_given_x, dtype=float)
    prior_odds = p_target / (1.0 - p_target)
    return (p / (1.0 - p)) / prior_odds


def importance_weights(
    x_source: np.ndarray,
    x_target: np.ndarray,
    clip_quantile: float = 0.99,
    l2_penalty: float = 1e-6,
) -> ImportanceWeightResult:
    """Per-sample density-ratio weights from a source-vs-target classifier.

    A logistic regression distinguishes target rows from source rows on the
    pooled covariates; the fitted odds, corrected by the prior odds, give
    the density ratio. Weights above the ``clip_quantile`` quantile are
    clipped (and the clipping reported). With ``l2_penalty = 0`` a separable
    pooled sample raises an error.
    """
    x_source = np.atleast_2d(np.asarray(x_source, dtype=float))
    x_target = np.atleast_2d(np.asarray(x_target, dtype=float))
    n_s, n_t = x_source.shape[0], x_target.shape[0]
    x = np.vstack([x_source, x_target])
    x = np.column_stack([np.ones(x.shape[0]), x])
    a = np.concatenate([np.zeros(n_s), np.ones(n_t)])

    base = logistic_loss()

    def loss(theta, xx, yy):
        penalty = 0.5 * (l2_penalty / xx.shape[0]) * (theta @ theta)
        return base.loss(theta, xx, yy) + penalty

    def gradient(theta, xx, yy):
        return base.gradient(theta, xx, yy) + (l2_penalty / xx.shape[0]) * theta[None, :]

    def hessian_mean(theta, xx, yy, w=None):
        return base.hessian_mean(theta, xx, yy, w) + (
            l2_penalty / xx.shape[0]
        ) * np.eye(theta.size)

    spec = LossSpec("logistic_l2", loss, gradient, hessian_mean)
    with warnings.catch_warnings():
        warnings.simplefilter("error" if l2_penalty == 0.0 else "default")
        try:
            fit = fit_erm_arrays([(x, a)], spec, np.array([1.0]))
        except (Warning, ConvergenceError) as exc:
            raise SeparationError(
                "source/target classifier did not converge (perfect separation "
                "is likely); use a positive l2_penalty"
            ) from exc
    eta_all = x @ fit.theta_hat
    if l2_penalty == 0.0 and eta_all[:n_s].max() < eta_all[n_s:].min():
        # the fitted direction ranks every target row above every source row
        raise SeparationError(
            "pooled covariates are perfectly separated between source and "
            "target; density-ratio weights are undefined without "
            "regularization (use a positive l2_penalty)"
        )
    p = expit(eta_all[:n_s])
    raw = density_ratio_weights(p, n_t / (n_s + n_t))
    threshold = float(np.quantile(raw, clip_quantile))
    clipped = raw > threshold
    w = np.minimum(raw, threshold)
    n_clipped = int(clipped.sum())
    if n_clipped:
        warnings.warn(
            f"importance weights clipped at the {clip_quantile:.0%} quantile "
            f"({threshold:.4g}); {n_clipped} weights affected",
            stacklevel=2,
        )
    return ImportanceWeightResult(
        weights=w,
        clip_threshold=threshold,
        n_clipped=n_clipped,
        clipped=bool(n_clipped),
    )
