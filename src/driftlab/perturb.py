"""Randomly perturbed distributions via binned random reweighting.

A target law on [0, 1] is split into ``m`` equal bins; each of ``K``
perturbed distributions multiplies the bin probabilities by i.i.d. positive
random weights ``W_j^k`` and renormalizes. Arbitrary data spaces are reached
through a measurable transform ``h`` applied to the reweighted uniform, so a
single weight scheme induces a dense, correlated shift of every functional
of the data distribution at once.

The strength and correlation of the induced shifts is summarized by the
distributional covariance matrix

    sigma_w[i, j] = Cov(W^i, W^j) / (E[W^i] E[W^j]),

which every scheme here can report analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._tails import libm, ndtr, ndtri

__all__ = [
    "WeightLaw",
    "lognormal_law",
    "gamma_law",
    "uniform_law",
    "IndependentWeights",
    "GaussianCopulaWeights",
    "RandomWalkWeights",
    "MixtureWeights",
    "PerturbationScheme",
    "realize_world",
    "sample_uniform",
    "uniform_target",
    "gaussian_target",
    "exponential_target",
    "categorical_target",
]


# ---------------------------------------------------------------------------
# Marginal weight laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightLaw:
    """Marginal law of one bin weight; must have positive support.

    Families
    --------
    lognormal : params = (mu, sigma) of the underlying normal
    gamma     : params = (shape, scale)
    uniform   : params = (lo, hi) with lo > 0 (lo == hi gives constant
                weights, i.e. no perturbation)
    """

    family: str
    a: float
    b: float

    def __post_init__(self):
        if self.family == "lognormal":
            if self.b < 0:
                raise ValueError("lognormal sigma must be >= 0")
        elif self.family == "gamma":
            if self.a <= 0 or self.b <= 0:
                raise ValueError("gamma shape and scale must be > 0")
        elif self.family == "uniform":
            if self.a <= 0 or self.b < self.a:
                raise ValueError("uniform weight law needs 0 < lo <= hi")
        else:
            raise ValueError(f"unknown weight family {self.family!r}")
        try:
            in_range = math.isfinite(self.var) and 0.0 < self.mean**2 < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(
                f"{self.family} weight law's mean or variance is beyond the float range"
            )

    @property
    def mean(self) -> float:
        if self.family == "lognormal":
            return math.exp(self.a + 0.5 * self.b**2)
        if self.family == "gamma":
            return self.a * self.b
        return 0.5 * (self.a + self.b)

    @property
    def var(self) -> float:
        if self.family == "lognormal":
            return (math.exp(self.b**2) - 1.0) * math.exp(2 * self.a + self.b**2)
        if self.family == "gamma":
            return self.a * self.b**2
        return (self.b - self.a) ** 2 / 12.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "lognormal":
            return rng.lognormal(self.a, self.b, size=size)
        if self.family == "gamma":
            return rng.gamma(self.a, self.b, size=size)
        return rng.uniform(self.a, self.b, size=size)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        if self.family == "lognormal":
            return np.exp(self.a + self.b * ndtri(q))
        if self.family == "gamma":
            from scipy.special import gammaincinv

            return gammaincinv(self.a, q) * self.b
        return self.a + (self.b - self.a) * np.asarray(q)


def lognormal_law(mu: float = 0.0, sigma: float = 0.5) -> WeightLaw:
    return WeightLaw("lognormal", mu, sigma)


def gamma_law(shape: float, scale: float) -> WeightLaw:
    return WeightLaw("gamma", shape, scale)


def uniform_law(lo: float, hi: float) -> WeightLaw:
    return WeightLaw("uniform", lo, hi)


# ---------------------------------------------------------------------------
# Weight models (joint law across the K distributions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentWeights:
    """Weights drawn independently across distributions and bins."""

    laws: tuple[WeightLaw, ...]

    @property
    def n_dists(self) -> int:
        return len(self.laws)

    def mean_w(self) -> np.ndarray:
        return np.array([law.mean for law in self.laws])

    def sigma_w(self) -> np.ndarray:
        rel = [law.var / law.mean**2 for law in self.laws]
        return np.diag(rel)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.stack([law.draw(rng, m) for law in self.laws])


@dataclass(frozen=True)
class GaussianCopulaWeights:
    """Cross-distribution correlation via shared Gaussian innovations.

    Per bin, one multivariate normal draw with correlation ``copula_corr``
    is mapped through the marginal quantile functions. For lognormal
    marginals the induced relative covariance is exact
    (``exp(sigma_i sigma_j rho) - 1``); for other marginals it is computed
    by Gauss-Hermite quadrature, so the achieved sigma_w (and its distortion
    from the requested copula correlation) is always reported analytically.
    """

    laws: tuple[WeightLaw, ...]
    copula_corr: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = len(self.laws)
        # row lengths first: numpy cannot shape a ragged matrix
        if len(self.copula_corr) != k or any(len(row) != k for row in self.copula_corr):
            raise ValueError(f"copula_corr must be K x K with K = {k} laws")
        c = self._corr()
        if not np.allclose(c, c.T):
            raise ValueError("copula_corr must be symmetric")
        if not np.allclose(np.diag(c), 1.0):
            raise ValueError("copula_corr must have unit diagonal")
        if not (np.linalg.eigvalsh(c) >= -1e-10).all():
            raise ValueError("copula_corr must be positive semidefinite")

    @property
    def n_dists(self) -> int:
        return len(self.laws)

    def _corr(self) -> np.ndarray:
        # K x K even at K = 0, which PerturbationScheme rejects
        return np.asarray(self.copula_corr, dtype=float).reshape(self.n_dists, self.n_dists)

    def mean_w(self) -> np.ndarray:
        return np.array([law.mean for law in self.laws])

    def sigma_w(self) -> np.ndarray:
        corr = self._corr()
        k = self.n_dists
        out = np.empty((k, k))
        for i in range(k):
            out[i, i] = self.laws[i].var / self.laws[i].mean**2
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = _copula_rel_cov(
                    self.laws[i], self.laws[j], corr[i, j]
                )
        return out

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        corr = self._corr()
        chol = np.linalg.cholesky(corr + 1e-14 * np.eye(self.n_dists))
        z = chol @ rng.standard_normal((self.n_dists, m))
        q = _clip_unit(ndtr(z))
        for law in dict.fromkeys(self.laws):  # equal laws share one quantile call
            rows = [i for i, other in enumerate(self.laws) if other == law]
            q[rows] = law.ppf(q[rows])
        return q


def _clip_unit(q: np.ndarray) -> np.ndarray:
    # keep quantile arguments strictly inside (0, 1); the clipped mass is
    # below 1e-16 and irrelevant at any achievable Monte Carlo precision
    return np.clip(q, 1e-16, 1.0 - 1e-16)


def _copula_rel_cov(law_i: WeightLaw, law_j: WeightLaw, rho: float) -> float:
    """Cov(W_i, W_j) / (E W_i E W_j) under a Gaussian copula with corr rho."""
    if law_i.family == "lognormal" and law_j.family == "lognormal":
        return math.exp(law_i.b * law_j.b * rho) - 1.0
    if rho == 0.0:
        return 0.0
    # E[g_i(Z1) g_j(Z2)] with Z2 = rho Z1 + sqrt(1-rho^2) Z, by nested
    # Gauss-Hermite quadrature on the probabilists' weight.
    nodes, wts = np.polynomial.hermite_e.hermegauss(64)
    wts = wts / math.sqrt(2 * math.pi)
    gi = law_i.ppf(_clip_unit(ndtr(nodes)))
    s = math.sqrt(max(0.0, 1.0 - rho * rho))
    z2 = rho * nodes[:, None] + s * nodes[None, :]
    gj = law_j.ppf(_clip_unit(ndtr(z2)))
    e_prod = float(wts @ (gj @ wts * gi))
    return e_prod / (law_i.mean * law_j.mean) - 1.0


@dataclass(frozen=True)
class RandomWalkWeights:
    """Time-ordered distributions: each weight is the previous one times an
    independent mean-one lognormal factor exp(eps - s^2/2), eps ~ N(0, s^2)
    with s = ``innovation_sd`` (per bin), so every weight stays positive.

    With r0 = Var(W^0)/E[W^0]^2 the steps give
    sigma_w[i, j] = (1 + r0) exp(min(i, j) s^2) - 1.
    """

    base: WeightLaw
    innovation_sd: float
    n_dists: int

    def __post_init__(self):
        if self.innovation_sd < 0:
            raise ValueError("innovation_sd must be >= 0")
        if self.n_dists < 1:
            raise ValueError("n_dists must be >= 1")

    def mean_w(self) -> np.ndarray:
        return np.full(self.n_dists, self.base.mean)

    def sigma_w(self) -> np.ndarray:
        idx = np.arange(self.n_dists)
        steps = np.minimum.outer(idx, idx)
        rel0 = self.base.var / self.base.mean**2
        return (1.0 + rel0) * np.exp(self.innovation_sd**2 * steps) - 1.0

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        s = self.innovation_sd
        w0 = self.base.draw(rng, m)
        factors = np.exp(s * rng.standard_normal((self.n_dists - 1, m)) - 0.5 * s * s)
        return np.cumprod(np.vstack([w0, factors]), axis=0)


@dataclass(frozen=True)
class MixtureWeights:
    """Some distributions are noisy nonnegative combinations of base ones.

    ``coefficients[d][b] >= 0`` weights base ``b`` in derived distribution
    ``d``, and each row has a positive entry. The combination is multiplied
    by an independent mean-one lognormal factor exp(eta - s^2/2),
    eta ~ N(0, s^2) with s = ``noise_sd[d]``, so every weight stays
    positive. With C the coefficients, V the diagonal base covariance and mu
    the base means, the covariance has base block V, cross block C V and
    derived block C V C^T + diag(((C V C^T)_dd + (C mu)_d^2)(exp(s_d^2) - 1)).
    """

    base_laws: tuple[WeightLaw, ...]
    coefficients: tuple[tuple[float, ...], ...]
    noise_sd: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("coefficients must hold at least one row, one per derived "
                             "distribution")
        b = len(self.base_laws)
        for row in self.coefficients:
            if len(row) != b:
                raise ValueError("each coefficient row must have one entry per base law")
            if min(row, default=0.0) < 0 or max(row, default=0.0) <= 0:
                raise ValueError(
                    "mixture coefficients must be >= 0 with a positive entry in each row"
                )
        if len(self.noise_sd) != len(self.coefficients):
            raise ValueError("need one noise_sd per derived distribution")
        if any(s < 0 for s in self.noise_sd):
            raise ValueError("noise_sd must be >= 0")

    @property
    def n_dists(self) -> int:
        return len(self.base_laws) + len(self.coefficients)

    def mean_w(self) -> np.ndarray:
        base_means = np.array([law.mean for law in self.base_laws])
        derived = [float(np.dot(row, base_means)) for row in self.coefficients]
        return np.concatenate([base_means, derived])

    def sigma_w(self) -> np.ndarray:
        b = len(self.base_laws)
        d = len(self.coefficients)
        base_var = np.array([law.var for law in self.base_laws])
        c = np.asarray(self.coefficients, dtype=float)  # (d, b)
        means = self.mean_w()
        cov = np.zeros((b + d, b + d))
        cov[:b, :b] = np.diag(base_var)
        cov[b:, :b] = c * base_var[None, :]
        cov[:b, b:] = cov[b:, :b].T
        cvc = (c * base_var[None, :]) @ c.T
        noise = (np.diag(cvc) + means[b:] ** 2) * np.expm1(np.asarray(self.noise_sd) ** 2)
        cov[b:, b:] = cvc + np.diag(noise)
        return cov / np.outer(means, means)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        base = np.stack([law.draw(rng, m) for law in self.base_laws])
        s = np.asarray(self.noise_sd, dtype=float)[:, None]
        factors = np.exp(s * rng.standard_normal((s.shape[0], m)) - 0.5 * s * s)
        derived = np.asarray(self.coefficients, dtype=float) @ base * factors
        return np.concatenate([base, derived], axis=0)


# ---------------------------------------------------------------------------
# Scheme and realized world
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationScheme:
    """Generative recipe for one realized set of perturbed distributions.

    The weight law must describe at least one dataset, and its ``sigma_w``
    is checked once, here: it must be finite, symmetric and positive
    semidefinite to within 1e-8 of its largest eigenvalue in magnitude.
    """

    m: int
    weight_law: IndependentWeights | GaussianCopulaWeights | RandomWalkWeights | MixtureWeights

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least m = 2 bins")
        if self.n_dists < 1:
            raise ValueError("the weight scheme needs at least one law: it has no datasets")
        with np.errstate(over="ignore"):
            sigma_w = self.weight_law.sigma_w()
        if not np.isfinite(sigma_w).all():
            raise ValueError("the weight scheme's sigma_w overflows the float range")
        if not np.allclose(sigma_w, sigma_w.T):
            raise ValueError("sigma_w must be symmetric")
        if (eig := np.linalg.eigvalsh(sigma_w)).min() < -1e-8 * max(1.0, np.abs(eig).max()):
            raise ValueError("sigma_w must be positive semidefinite")

    @property
    def n_dists(self) -> int:
        return self.weight_law.n_dists


def realize_world(scheme: PerturbationScheme, rng: np.random.Generator) -> np.ndarray:
    """Draw one world: the (K, m) matrix of strictly positive bin weights."""
    w = scheme.weight_law.draw(rng, scheme.m)
    if w.shape != (scheme.n_dists, scheme.m):
        raise ValueError("weights must be (K, m)")
    if np.any(w <= 0):
        raise ValueError("all realized weights must be strictly positive")
    return w


def sample_uniform(weights: np.ndarray, k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values from the k-th reweighted uniform distribution of the
    world ``weights`` (K, m).

    A bin is selected with probability proportional to its weight, then the
    value is uniform within the bin. Conditioned on the weights the draws
    are i.i.d. The bin of each draw r is ``searchsorted(cum, r, "right")``
    over the cumulative bin probabilities. Values are built by
    :func:`_rows_in_bins`, so every one is < 1 and, for dyadic m, inside
    its bin.
    """
    n_dists, m = weights.shape
    if not 0 <= k < n_dists:
        raise IndexError(f"dataset index {k} out of range [0, {n_dists})")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = weights[k]
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    bins = np.searchsorted(cum, rng.random(n), side="right")
    return _rows_in_bins(rng.random(n), bins, m)


def _rows_in_bins(v: np.ndarray, bins: np.ndarray, m: int) -> np.ndarray:
    """The values (b + v) / m of uniform draws v in [0, 1) in bins b of m,
    computed in place on v, with b + v kept below b + 1.

    b + v rounds up to b + 1 when 1 - v is at most half the spacing of
    doubles below b + 1 (a tie rounds up: b + 1 is even there). That
    spacing grows with b, so it can happen only if it happens for the
    largest v in the top bin m - 1; only then are the sums clamped, and the
    common case allocates nothing more.
    """
    clamp = v.size > 0 and (m - 1) + v.max() == m
    v += bins
    if clamp:
        np.minimum(v, np.nextafter(bins + 1.0, 0.0), out=v)
    v /= m
    return v


# ---------------------------------------------------------------------------
# Column laws: each maps n uniforms in (0, 1) to n values
# ---------------------------------------------------------------------------


def uniform_target() -> Callable[[np.ndarray], np.ndarray]:
    return lambda u: u


def gaussian_target(mean: float = 0.0, sd: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    if sd <= 0:
        raise ValueError(f"sd must be > 0, got {sd!r}")
    return lambda u: mean + sd * ndtri(u)


def exponential_target(rate: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate!r}")
    # libm's log1p, so that simulate's bytes do not depend on numpy's CPU dispatch
    return lambda u: -libm(math.log1p, -u) / rate


def categorical_target(
    levels: Sequence, probs: Sequence[float] | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Maps u to the first level i with u <= cum[i], where cum is the
    cumulative ``probs`` (uniform by default), or to the last level when
    rounding leaves cum[-1] below u. Values are an object array of levels.
    """
    table = np.fromiter(levels, dtype=object)
    if table.size == 0:
        raise ValueError("levels must not be empty")
    if probs is None:
        probs = [1.0 / table.size] * table.size
    if len(probs) != table.size:
        raise ValueError(f"probs must have one entry per level ({table.size}), got {len(probs)}")
    if min(probs) < 0:
        raise ValueError("probs must be >= 0")
    cum = np.cumsum(probs)
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ValueError("probs must sum to 1")
    last = table.size - 1
    return lambda u: table[np.minimum(np.searchsorted(cum, u, side="left"), last)]


def check_regime(m: int, n_min: int) -> None:
    """Warn when sampling noise is not clearly dominated by the shift scale."""
    import warnings

    if n_min < 10 * m:
        warnings.warn(
            f"n/m ratio {n_min / m:.1f} is below 10; sampling "
            "uncertainty may not be negligible relative to distributional "
            "uncertainty",
            stacklevel=2,
        )
