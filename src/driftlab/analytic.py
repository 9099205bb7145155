"""Closed-form targets for the Monte Carlo validation harness.

Everything here is derived from scheme *parameters* and textbook moment
algebra, independently of the simulation and estimation code whose output
the harness checks. Where a finite-sample run mixes sampling noise into a
distributional limit, the corrected (finite-n) prediction is provided next
to the pure limit so checks can gate on an honest target; the corrections
vanish as n/m grows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "relative_weight_moments",
    "scheme_sigma_w",
    "uniform_poly_cov",
    "effective_row_cov",
    "optimal_uniform_quadratic",
    "conditional_shift_var",
    "excess_risk_mean",
]


def relative_weight_moments(family: str, a: float, b: float) -> tuple[float, float, float]:
    """(mean, var, var/mean^2) of a positive weight law, by direct formula."""
    if family == "lognormal":
        mean = math.exp(a + 0.5 * b * b)
        var = (math.exp(b * b) - 1.0) * math.exp(2.0 * a + b * b)
    elif family == "gamma":
        mean = a * b
        var = a * b * b
    elif family == "uniform":
        mean = 0.5 * (a + b)
        var = (b - a) ** 2 / 12.0
    else:
        raise ValueError(f"unknown weight family {family!r}")
    return mean, var, var / mean**2


def scheme_sigma_w(kind: str, **params) -> np.ndarray:
    """Distributional covariance matrix implied by a scheme's parameters.

    Supported kinds: "independent" (list of (family, a, b) triples),
    "lognormal_copula" (sigmas list + copula correlation matrix),
    "random_walk" (base triple, innovation_sd, K), and "mixture"
    (base triples, coefficient rows, noise_sd list).
    """
    if kind == "independent":
        rel = [relative_weight_moments(*law)[2] for law in params["laws"]]
        return np.diag(rel)
    if kind == "lognormal_copula":
        sig = np.asarray(params["sigmas"], dtype=float)
        corr = np.asarray(params["corr"], dtype=float)
        return np.exp(np.outer(sig, sig) * corr) - 1.0
    if kind == "random_walk":
        # w_k = w_0 times k independent mean-one factors with E f^2 = exp(s^2),
        # so E[w_i w_j] = E[w_0^2] exp(min(i, j) s^2)
        rel0 = relative_weight_moments(*params["base"])[2]
        idx = np.arange(params["k"])
        s2 = params["innovation_sd"] ** 2
        return (1.0 + rel0) * np.exp(s2 * np.minimum.outer(idx, idx)) - 1.0
    if kind == "mixture":
        means = []
        variances = []
        for law in params["base_laws"]:
            m_, v_, _ = relative_weight_moments(*law)
            means.append(m_)
            variances.append(v_)
        base_mean = np.asarray(means)
        base_var = np.asarray(variances)
        c = np.asarray(params["coefficients"], dtype=float)
        noise = np.asarray(params["noise_sd"], dtype=float)
        b = base_mean.size
        d = c.shape[0]
        mean_all = np.concatenate([base_mean, c @ base_mean])
        cov = np.zeros((b + d, b + d))
        cov[:b, :b] = np.diag(base_var)
        cov[b:, :b] = c * base_var[None, :]
        cov[:b, b:] = cov[b:, :b].T
        # derived d is (c_d . base) g_d with g_d independent, E g_d = 1 and
        # E g_d^2 = exp(s_d^2), so only its variance gains the noise term
        mixed = (c * base_var[None, :]) @ c.T
        second_moment = np.diag(mixed) + (c @ base_mean) ** 2
        cov[b:, b:] = mixed + np.diag(second_moment * np.expm1(noise**2))
        return cov / np.outer(mean_all, mean_all)
    raise ValueError(f"unknown scheme kind {kind!r}")


def uniform_poly_cov() -> np.ndarray:
    """Covariance matrix of (U, U^2) under the uniform law on [0, 1]."""
    # E U = 1/2, E U^2 = 1/3, E U^3 = 1/4, E U^4 = 1/5
    var_u = 1.0 / 12.0
    var_u2 = 1.0 / 5.0 - 1.0 / 9.0
    cov = 1.0 / 4.0 - (1.0 / 2.0) * (1.0 / 3.0)
    return np.array([[var_u, cov], [cov, var_u2]])


def effective_row_cov(
    sigma_w: np.ndarray, m: int, n_sources: np.ndarray | list, n_target: float | None
) -> np.ndarray:
    """Finite-n covariance of the sqrt(m)-scaled moment deviation rows.

    For unit-variance test functions the deviation of dataset k from the
    target-dataset mean has, besides the distributional part sigma_w / m,
    an independent sampling part 1/n_k on its own coordinate and a shared
    target sampling part 1/n_target on all coordinates. Scaled by m:

        sigma_eff = sigma_w + m diag(1/n_k) + (m/n_target) J.

    Pass ``n_target=None`` when the target means are exact (no target
    sampling noise).
    """
    sigma_w = np.asarray(sigma_w, dtype=float)
    k = sigma_w.shape[0]
    out = sigma_w + m * np.diag(1.0 / np.asarray(n_sources, dtype=float))
    if n_target is not None:
        out = out + (m / float(n_target)) * np.ones((k, k))
    return out


def optimal_uniform_quadratic(sigma_eff: np.ndarray) -> float:
    """beta' sigma beta at uniform beta (the optimum for exchangeable sigma)."""
    k = sigma_eff.shape[0]
    beta = np.full(k, 1.0 / k)
    return float(beta @ sigma_eff @ beta)


def conditional_shift_var(
    s11: float, cond_var: float, prob: float, m: int, n_source: int, n_target: int
) -> float:
    """Variance of the sqrt(m)-scaled conditional-mean gap, finite-n corrected.

    Limit part: s11 * cond_var / prob. Sampling part: each conditional mean
    over roughly n * prob rows adds cond_var / (n * prob), scaled by m.
    """
    limit = s11 * cond_var / prob
    sampling = m * cond_var / prob * (1.0 / n_source + 1.0 / n_target)
    return limit + sampling


def excess_risk_mean(
    beta: np.ndarray, sigma_w: np.ndarray, dim: int, noise_var: float
) -> float:
    """Mean of m times the excess target risk for a linear-squared-error fit.

    With loss (y - x'theta)^2, independent unit-variance regressors plus an
    intercept (second-moment matrix M = I_dim), and independent noise of
    variance ``noise_var``, the excess risk is exactly |theta - theta*|^2_M
    and sqrt(m)(theta_hat - theta*) is asymptotically centered normal with
    covariance (beta' sigma_w beta) noise_var M^{-1}, so

        E[m excess] -> beta' sigma_w beta * noise_var * dim
                     = (1/2) beta' sigma_w beta * Trace(H^{-1} V),

    the 1/2 being the second-order Taylor constant of the risk (H = 2M,
    V = 4 noise_var M).
    """
    beta = np.asarray(beta, dtype=float)
    q = float(beta @ np.asarray(sigma_w, dtype=float) @ beta)
    return q * noise_var * dim
