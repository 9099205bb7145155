"""Weighted empirical risk minimization with influence-based uncertainty.

A loss is a function of the linear predictor eta = x theta: a ``LossSpec``
gives, per row, the loss l(eta, y) and its derivatives l' and l'' in eta.
Every fit here is one Newton iteration with Armijo backtracking over pooled
rows: minimize f(theta) = sum_i w_i l(x_i theta, y_i) + (ridge / 2) |theta|^2
with row weights w summing to one, from g = X'(w l') + ridge theta and
H = X' diag(w l'') X + ridge I. It converges when the Newton decrement
g' H^{-1} g, which no rescaling of a covariate changes, falls within the
loss's rounding; otherwise the caller warns and keeps the last iterate.
Either way it returns H at the theta it returns. ``fit_erm`` is the one
weighted fit with inference, and reads that H: dataset weights beta are the
row weights beta_k / n_k, and importance weights are another row weighting.
The importance baseline's density-ratio classifier runs the iteration alone.

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

from ._tails import expit
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


class SingularHessianError(RuntimeError):
    pass


class InfluenceOverflowError(ValueError):
    """The influence variance left the float range; ``source`` is the index
    of the source whose gradient products overflow."""

    def __init__(self, source: int):
        super().__init__(f"the gradient products of source {source} overflow the float range")
        self.source = source


@dataclass(frozen=True)
class LossSpec:
    """Twice-differentiable loss of the linear predictor eta = X theta, as
    three per-row functions of (eta, y), each returning an (n,) array: the
    loss, and its first and second derivatives in eta."""

    family: str
    loss: object
    dloss: object
    d2loss: object


def squared_error_loss() -> LossSpec:
    return LossSpec("squared_error_linear",
                    loss=lambda eta, y: (y - eta) ** 2,
                    dloss=lambda eta, y: 2.0 * (eta - y),
                    d2loss=lambda eta, y: np.full_like(eta, 2.0))


def logistic_loss() -> LossSpec:
    return LossSpec("logistic",
                    loss=lambda eta, y: np.logaddexp(0.0, eta) - y * eta,
                    dloss=lambda eta, y: expit(eta) - y,
                    d2loss=lambda eta, y: expit(eta) * expit(-eta))


@dataclass(frozen=True)
class ErmFit:
    theta_hat: np.ndarray
    hessian_hat: np.ndarray  # weighted mean Hessian at theta_hat
    influence_variance: np.ndarray  # pooled covariance of the influence values
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


# Newton's iteration cap; every solve starts at theta = 0
_MAX_ITER = 200
_EPS = float(np.finfo(float).eps)


def _newton(x: np.ndarray, y: np.ndarray, w: np.ndarray, spec: LossSpec,
            ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray, int, str | None]:
    """Minimize f(theta) = sum_i w_i loss(x_i theta, y_i) + (ridge / 2) |theta|^2
    over the rows of (x, y), for row weights ``w`` summing to one, by Newton
    steps with Armijo backtracking: theta, the Hessian of f at theta, the
    iterations, and why the iteration stopped short (None when it converged).

    It converges when the Newton decrement lambda^2 = g' H^{-1} g is at most
    8 eps max(|f|, |f(0)|): the Newton step's predicted decrease lambda^2 / 2
    is then within the loss's rounding. lambda^2 does not change when a
    covariate is rescaled, and |f(0)| floors the bound, so a fit whose loss
    reaches 0 still converges."""

    def value(eta, theta):
        return spec.loss(eta, y) @ w + 0.5 * ridge * (theta @ theta)

    def hessian(eta):
        return (x.T * (w * spec.d2loss(eta, y))) @ x + ridge * np.eye(x.shape[1])

    theta = np.zeros(x.shape[1])
    eta = np.zeros(x.shape[0])
    f = value(eta, theta)
    f0 = abs(f)
    for n_iter in range(1, _MAX_ITER + 1):
        g = x.T @ (w * spec.dloss(eta, y)) + ridge * theta
        h = hessian(eta)
        try:
            direction = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            direction = -np.linalg.lstsq(h, g, rcond=None)[0]
        # where H is not positive definite, steepest descent takes over and
        # |g|^2 stands in for the decrement
        if not g @ direction < 0:
            direction = -g
        decrement = -(g @ direction)
        if decrement <= 8.0 * _EPS * max(abs(f), f0):
            return theta, h, n_iter, None
        # Armijo backtracking
        step = 1.0
        for _ in range(60):
            cand = theta + step * direction
            eta_cand = x @ cand
            f_cand = value(eta_cand, cand)
            if f_cand <= f - 1e-4 * step * decrement:
                theta, eta, f = cand, eta_cand, f_cand
                break
            step *= 0.5
        else:
            return theta, h, n_iter, "no descent step was accepted"
    return theta, hessian(eta), _MAX_ITER, "the iteration cap was reached"


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
    theta, h_hat, n_iter, stop = _newton(x, y, w, spec)
    if stop is not None:
        warnings.warn(f"the ERM fit did not converge after {n_iter} iterations, as {stop}; "
                      "returning the last iterate", stacklevel=2)
    h_hat = 0.5 * (h_hat + h_hat.T)
    # the rank of H scaled to unit diagonal, which a covariate's units cannot
    # change; a zero diagonal entry is a covariate the fit cannot see
    scale = np.sqrt(np.diag(h_hat))
    if not (np.all(scale > 0)
            and np.linalg.matrix_rank(h_hat / np.outer(scale, scale)) == scale.size):
        # a covariate that repeats or combines others; whether LU meets an
        # exact zero pivot then depends on the BLAS summation order
        raise SingularHessianError("weighted Hessian is singular at the optimum")
    grads = x * spec.dloss(x @ theta, y)[:, None]
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
        converged=stop is None,
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
    theta, _, n_iter, stop = _newton(x, a, np.full(n, 1.0 / n), logistic_loss(),
                                     ridge=_L2_PENALTY / n)
    if stop is not None:
        warnings.warn(f"the importance classifier did not converge after {n_iter} iterations, "
                      f"as {stop}; its weights are used as they are", stacklevel=2)
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
