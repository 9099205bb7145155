"""Weighted empirical risk minimization with influence-based uncertainty.

Every fit here is one damped Newton iteration with Armijo backtracking over
pooled rows: minimize sum_i w_i loss_i(theta) + (ridge / 2) |theta|^2 with row
weights w summing to one. ``fit_erm`` is the one weighted fit with inference:
dataset weights beta are the row weights beta_k / n_k, and importance weights
are another row weighting. The importance baseline's density-ratio classifier
runs the iteration alone.

Out-of-distribution risk under random dense shift decomposes as the weight
quadratic form beta' Sigma_W beta times Trace(H^{-1} V), with H the weighted
mean Hessian and V the pooled gradient covariance. Coordinate j's confidence
interval is ``dlm.target_ci`` of its influence function theta_j + psi_j,
psi = -H^{-1} grad loss per row, whose weighted mean is zero at the optimum.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dlm import DlmFit, target_ci
from .tables import DatasetCollection, IngestError, Table, finite_column

__all__ = [
    "LossSpec",
    "squared_error_loss",
    "logistic_loss",
    "ErmFit",
    "ImportanceWeightResult",
    "design_matrix",
    "outcome_vector",
    "fit_erm",
    "ood_risk",
    "erm_ci",
    "importance_weights",
]


class ConvergenceError(RuntimeError):
    pass


class InfluenceOverflowError(ValueError):
    """The influence variance left the float range; ``source`` is the index
    of the source whose gradient products overflow."""

    def __init__(self, source: int):
        super().__init__(f"the gradient products of source {source} overflow the float range")
        self.source = source


@dataclass(frozen=True)
class LossSpec:
    """Twice-differentiable per-row loss with gradient and mean Hessian.

    loss(theta, X, y) -> (n,) per-row losses
    gradient(theta, X, y) -> (n, p) per-row gradients
    hessian_mean(theta, X, y, w) -> (p, p) mean Hessian over rows, weighted
        by the per-row weights ``w``
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
        return x * (-2.0 * r)[:, None]

    def hessian_mean(theta, x, y, w):
        return 2.0 * (x.T * w) @ x / w.sum()

    return LossSpec("squared_error_linear", loss, gradient, hessian_mean)


def logistic_loss() -> LossSpec:
    def loss(theta, x, y):
        eta = x @ theta
        return np.logaddexp(0.0, eta) - y * eta

    def gradient(theta, x, y):
        p = expit(x @ theta)
        return x * (p - y)[:, None]

    def hessian_mean(theta, x, y, w):
        p = expit(x @ theta)
        return (x.T * (p * (1.0 - p) * w)) @ x / w.sum()

    return LossSpec("logistic", loss, gradient, hessian_mean)


@dataclass(frozen=True)
class ErmFit:
    theta_hat: np.ndarray
    hessian_hat: np.ndarray  # weighted mean Hessian at theta_hat
    influence_variance: np.ndarray  # pooled covariance of the influence values
    grad_norm: float
    converged: bool
    n_iterations: int
    loss_family: str
    source_influence_means: np.ndarray  # (K, p): per source, the mean of -H^{-1} grad


def _fit_column(tbl: Table, col: str, role: str) -> np.ndarray:
    """``finite_column``, whose squares must also sum within the float range:
    the fit's loss, Hessian and influence variance sum them."""
    values = finite_column(tbl, col, role)
    with np.errstate(over="ignore"):
        if not np.isfinite(values @ values):
            raise IngestError(f"{role} {col!r} of dataset {tbl.name!r} has a sum of "
                              "squares beyond the float range")
    return values


def design_matrix(tables: Sequence[Table], covariates: tuple[str, ...]) -> np.ndarray:
    """The pooled design of ``tables``: an intercept column, then one column
    per covariate, with the tables' rows stacked in order."""
    x = np.empty((sum(tbl.n_rows for tbl in tables), len(covariates) + 1))
    x[:, 0] = 1.0
    start = 0
    for tbl in tables:
        rows = slice(start, start + tbl.n_rows)
        for j, c in enumerate(covariates, start=1):
            x[rows, j] = _fit_column(tbl, c, "covariate")
        start = rows.stop
    return x


def outcome_vector(data: DatasetCollection) -> np.ndarray:
    """The sources' outcomes, in the row order of ``design_matrix(data.sources, ...)``."""
    if data.outcome is None:
        raise ValueError("dataset collection declares no outcome column")
    return np.concatenate([_fit_column(t, data.outcome, "outcome") for t in data.sources])


# damped Newton's iteration cap; every solve starts at theta = 0
_MAX_ITER = 200


def _newton(x: np.ndarray, y: np.ndarray, w: np.ndarray, spec: LossSpec,
            ridge: float = 0.0) -> tuple[np.ndarray, float, bool, int]:
    """Minimize sum_i w_i loss_i(theta) + (ridge / 2) |theta|^2 over the rows
    of (x, y), for row weights ``w`` summing to one, by damped Newton with
    Armijo backtracking: theta, |grad|, whether it converged, the iterations."""

    def value(theta):
        return spec.loss(theta, x, y) @ w + 0.5 * ridge * (theta @ theta)

    def grad(theta):
        return spec.gradient(theta, x, y).T @ w + ridge * theta

    theta = np.zeros(x.shape[1])
    f = value(theta)
    n_iter = 0
    stalled = False
    for n_iter in range(1, _MAX_ITER + 1):
        g = grad(theta)
        # after a step that left f unchanged the gradient sits at its
        # rounding floor and further steps cannot improve the fit
        if stalled or np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(theta)):
            break
        h = spec.hessian_mean(theta, x, y, w) + ridge * np.eye(theta.size)
        direction = None
        damping = 0.0
        for _ in range(12):
            try:
                direction = -np.linalg.solve(h + damping * np.eye(h.shape[0]), g)
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and g @ direction < 0:
                break
            damping = max(2.0 * damping, 1e-8 * max(np.abs(np.diag(h)).max(), 1.0))
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
    else:
        g = grad(theta)  # the last step moved theta
    gnorm = float(np.linalg.norm(g))
    converged = gnorm <= 1e-8 * (1.0 + np.linalg.norm(theta))
    if not converged:
        warnings.warn(
            f"ERM did not reach first-order tolerance in {_MAX_ITER} iterations "
            f"(|grad| = {gnorm:.3e}); returning last iterate",
            stacklevel=3,
        )
    return theta, gnorm, bool(converged), n_iter


def fit_erm(x: np.ndarray, y: np.ndarray, w: np.ndarray, sizes: Sequence[int],
            spec: LossSpec) -> ErmFit:
    """Weighted ERM on the pooled source rows (x, y), stacked in source
    blocks of ``sizes`` rows, for row weights ``w`` summing to one: dataset
    weights beta are the row weights beta_k / n_k. Returns the fit with its
    weighted mean Hessian, its influence variance and the per-source means of
    the influence values -H^{-1} grad, which ``erm_ci`` reads."""
    sizes = np.asarray(sizes)
    if not x.shape[0] == y.size == w.size == sizes.sum():
        raise ValueError("x, y and w need one row per source row")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("row weights must sum to one")
    theta, gnorm, converged, n_iter = _newton(x, y, w, spec)
    h_hat = spec.hessian_mean(theta, x, y, w)
    h_hat = 0.5 * (h_hat + h_hat.T)
    # the rank of H scaled to unit diagonal, which a covariate's units cannot
    # change; a zero diagonal entry is a covariate the fit cannot see
    scale = np.sqrt(np.diag(h_hat))
    if not (np.all(scale > 0)
            and np.linalg.matrix_rank(h_hat / np.outer(scale, scale)) == scale.size):
        # a covariate that repeats or combines others; whether LU meets an
        # exact zero pivot then depends on the BLAS summation order
        raise ConvergenceError("weighted Hessian is singular at the optimum")
    grads = spec.gradient(theta, x, y)
    starts = np.cumsum(sizes) - sizes
    grad_sums = np.add.reduceat(grads, starts)
    psi_means = -np.linalg.solve(h_hat, (grad_sums / sizes[:, None]).T).T
    # influence values -H^{-1} grad on the pooled rows have covariance
    # H^{-1} Cov(grad) H^{-1}: two p x p solves
    with np.errstate(over="ignore", invalid="ignore"):
        grads -= grads.mean(axis=0)
        grad_cov = grads.T @ grads / grads.shape[0]
        if not np.isfinite(grad_cov).all():
            # argmax finds the first NaN, or else the first inf
            squares = np.add.reduceat(grads * grads, starts).max(axis=1)
            raise InfluenceOverflowError(int(np.argmax(squares)))
    infl_var = np.linalg.solve(h_hat, np.linalg.solve(h_hat, grad_cov).T)
    return ErmFit(
        theta_hat=theta,
        hessian_hat=h_hat,
        influence_variance=0.5 * (infl_var + infl_var.T),
        grad_norm=gnorm,
        converged=converged,
        n_iterations=n_iter,
        loss_family=spec.family,
        source_influence_means=psi_means,
    )


def ood_risk(fit: ErmFit, shift_scale: float) -> tuple[float, float]:
    """Asymptotic mean excess risk of the weighted fit on the target, and its
    trace term Trace(H^{-1} V), with H the weighted mean Hessian and V the
    pooled gradient covariance.

    The mean squared residual of a moment-matching weight fit
    (``shift_scale``) stands in for the unknown shift magnitude
    beta' Sigma_W beta / m. The risk is (1/2) * shift_scale * trace term; the
    1/2 is the second-order Taylor constant of the risk around its minimizer.
    """
    # Trace(H^{-1} Var(grad)) == Trace(H Var(influence))
    trace_term = float(np.trace(fit.hessian_hat @ fit.influence_variance))
    return 0.5 * float(shift_scale) * trace_term, trace_term


def erm_ci(fit: ErmFit, dlm_fit: DlmFit, level: float = 0.95) -> np.ndarray:
    """Per-coordinate (lower, upper) confidence intervals for the target
    parameters: row j is ``target_ci`` of the influence function theta_j + psi_j
    under ``dlm_fit``, from the per-source influence means ``fit_erm`` records."""
    cis = [target_ci(dlm_fit, theta + means, var, level) for theta, means, var in zip(
        fit.theta_hat, fit.source_influence_means.T, np.diag(fit.influence_variance))]
    return np.array([(ci.estimate - ci.half_width, ci.estimate + ci.half_width) for ci in cis])


@dataclass(frozen=True)
class ImportanceWeightResult:
    weights: np.ndarray  # one per source row, strictly positive
    clip_threshold: float
    n_clipped: int


# ridge on the classifier's coefficients, scaled by 1/n like the loss; it
# keeps the fit finite when source and target rows are separable
_L2_PENALTY = 1e-6


def importance_weights(
    x: np.ndarray,
    n_source: int,
    clip_quantile: float = 0.99,
) -> ImportanceWeightResult:
    """Per-sample density-ratio weights from a source-vs-target classifier.

    ``x`` is a design matrix whose first column is the intercept: its first
    ``n_source`` rows are the source rows, the rest the target rows. A
    logistic regression with a small ridge (``_L2_PENALTY``) distinguishes
    target rows from source rows; by Bayes' rule the fitted odds, divided by
    the prior odds n_target / n_source, give the density ratio
    P(x | target) / P(x | source) at each source row. Weights above the
    ``clip_quantile`` quantile are clipped (and the clipping reported).
    """
    n = x.shape[0]
    n_t = n - n_source
    a = np.concatenate([np.zeros(n_source), np.ones(n_t)])
    theta = _newton(x, a, np.full(n, 1.0 / n), logistic_loss(), ridge=_L2_PENALTY / n)[0]
    p = expit(x[:n_source] @ theta)
    p_target = n_t / n
    raw = (p / (1.0 - p)) / (p_target / (1.0 - p_target))
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
    return ImportanceWeightResult(weights=w, clip_threshold=threshold, n_clipped=n_clipped)
