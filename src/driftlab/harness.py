"""Brute-force Monte Carlo validation of the distributional limit laws.

Each check simulates many independently realized worlds through the real
sampling and estimation pipeline and compares empirical statistics against
closed-form targets from :mod:`driftlab.analytic` (never against values
computed by the code under test). Pass gates are finite-sample conventions:
moment comparisons within 3 Monte Carlo standard errors, distributional
comparisons by Kolmogorov-Smirnov at p > 0.01, and size/coverage inside
binomial bands. Where sampling noise contributes a known O(m/n) term on top
of a distributional limit, the target is corrected by exactly that term (or
the empirical estimate is debiased); the corrections are reported and
vanish in the large-n regime.

Replicates draw from counter-keyed streams (seed, check lane, replicate
index), so reports are bit-for-bit reproducible for a given config, and
each replicate can be rebuilt on its own.

A dataset of n rows from a world's bin weights w is, by construction, a
multinomial draw of the m bin counts plus a uniform draw inside each bin.
The checks sample at that level (:func:`_bin_counts`, :func:`_bin_rows`):
the Walsh checks read their test-function means straight off the counts, and
rows (b + v) / m are built, in bin order, only where a statistic needs them
and only for the bins it needs. Every statistic is symmetric in the rows, so
this is the law of ``perturb.sample_uniform``'s i.i.d. rows;
``tests/test_harness.py`` tests the two samplers against each other.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import chdtr, fdtr, smirnov, stdtr, stdtrit

from . import analytic
from .dlm import _fit_stack, _interval
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    PerturbationScheme,
    WeightLaw,
    _rows_in_bins,
    lognormal_law,
    realize_world,
)
from .rng import split_uniform, substream

__all__ = [
    "HarnessConfig",
    "HarnessReport",
    "CheckResult",
    "run_harness",
    "ALL_CHECKS",
]

# The law each check tests and its pass rule, fixed: the gates' bands were
# tuned at these, and a definition text that names one reads it from here.
_WEIGHT_SD = 0.5  # lognormal weight sd of clt_cov, kron_cov and conditional_shift
_COPULA_RHO = 0.6
# i.i.d. weights of null_laws and ci_chi2; symmetric bin weights converge to
# the limiting t/F laws much faster in m than skewed ones
_NULL_WEIGHT_LAW = ("uniform", 0.2, 1.8)
_CI_LEVEL = 0.95
_ERM_WEIGHT_SD = 0.8
_ERM_DIM_X = 2
_ERM_NOISE_SD = 0.5
_ERM_REL_TOL = 0.10
_EVENT_PROB = 0.5  # conditional_shift's base P(A)


@dataclass(frozen=True)
class CltCovConfig:
    replicates: int = 5000
    m: int = 200
    n_ratio: int = 50
    n_sources: int = 2


@dataclass(frozen=True)
class KronCovConfig:
    replicates: int = 3000
    m: int = 200
    n_ratio: int = 50


def _power_of_two(m: int) -> bool:
    return m > 0 and m & (m - 1) == 0


def _weight_fit_rules(cfg, min_sources: int) -> tuple:
    """A weight fit needs L >= K, and the Walsh functions 1..L are constant
    on the m bins only for a power-of-two m larger than L."""
    return (
        ("n_sources", cfg.n_sources >= min_sources, f"at least {min_sources}"),
        ("n_functions", cfg.n_functions >= cfg.n_sources,
         f"at least n_sources ({cfg.n_sources})"),
        ("m", _power_of_two(cfg.m) and cfg.m > cfg.n_functions,
         f"a power of two larger than n_functions ({cfg.n_functions})"),
    )


@dataclass(frozen=True)
class NullLawsConfig:
    # dyadic bin count for the Walsh test functions
    replicates: int = 10_000
    m: int = 512
    n_ratio: int = 50
    n0_ratio: int = 50
    n_sources: int = 3
    n_functions: int = 50


@dataclass(frozen=True)
class CiChi2Config:
    replicates: int = 2000
    m: int = 512
    n_ratio: int = 50
    n0_ratio: int = 100
    n_sources: int = 2
    n_functions: int = 500


@dataclass(frozen=True)
class ExcessRiskConfig:
    # dyadic m keeps the bit-split regressor cells aligned with the bins,
    # so the within-bin variance loss is (cell width)^2, i.e. negligible
    replicates: int = 2000
    m: int = 512
    n_ratio: int = 50
    n_sources: int = 2


@dataclass(frozen=True)
class ConditionalShiftConfig:
    replicates: int = 4000
    m: int = 256
    n_ratio: int = 50
    n0_ratio: int = 50


@dataclass(frozen=True)
class _Family:
    """A check function, where its settings and its streams come from, and the
    results it reports. A new check is one entry in ``_FAMILIES``, plus its
    settings class, its HarnessConfig field and its function."""

    block: str  # the HarnessConfig field holding its settings
    config: type  # that field's settings class
    lane: int  # its substream lane; lane 0 is simulate's world realization
    func: str  # a module global, looked up at each run so that a wrapper sees the call
    results: tuple[str, ...]
    # (key, holds, what it must be) for the rules its sizes meet beyond
    # replicates >= 100 and m >= 2
    rules: Callable = lambda cfg: ()


_FAMILIES = (
    _Family("clt_cov", CltCovConfig, 11, "check_clt_cov", ("clt_cov",)),
    _Family("kron_cov", KronCovConfig, 12, "check_kron_cov", ("kron_cov",)),
    # F(K - 1, L - K + 1) needs K >= 2
    _Family("null_laws", NullLawsConfig, 13, "check_null_laws", ("t_null", "f_null"),
            lambda cfg: _weight_fit_rules(cfg, 2)),
    _Family("ci_chi2", CiChi2Config, 14, "check_ci_chi2", ("chi2_residual", "ci_coverage"),
            lambda cfg: _weight_fit_rules(cfg, 1)),
    _Family("erm_excess_risk", ExcessRiskConfig, 15, "check_excess_risk",
            ("erm_excess_risk",)),
    # both events x < _EVENT_PROB and x < _EVENT_PROB / 2 are sets of bins
    _Family("conditional_shift", ConditionalShiftConfig, 16, "check_conditional_shift",
            ("conditional_shift",),
            lambda cfg: (("m", _power_of_two(cfg.m) and cfg.m >= 8, "a power of two >= 8"),)),
)
ALL_CHECKS = tuple(name for family in _FAMILIES for name in family.results)
_LANE_OF = {family.block: family.lane for family in _FAMILIES}


@dataclass(frozen=True)
class HarnessConfig:
    checks: tuple[str, ...] = ALL_CHECKS
    seed: int = 20240801
    clt_cov: CltCovConfig = field(default_factory=CltCovConfig)
    kron_cov: KronCovConfig = field(default_factory=KronCovConfig)
    null_laws: NullLawsConfig = field(default_factory=NullLawsConfig)
    ci_chi2: CiChi2Config = field(default_factory=CiChi2Config)
    erm_excess_risk: ExcessRiskConfig = field(default_factory=ExcessRiskConfig)
    conditional_shift: ConditionalShiftConfig = field(
        default_factory=ConditionalShiftConfig
    )

    def __post_init__(self):
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks requested: {sorted(unknown)}")
        for family in _FAMILIES:
            name, sub = family.block, getattr(self, family.block)
            for key, holds, what in (("replicates", sub.replicates >= 100, "at least 100"),
                                     ("m", sub.m >= 2, "at least 2"), *family.rules(sub)):
                if not holds:
                    raise ValueError(f"{name}.{key} must be {what}, got {getattr(sub, key)}")
            if sub.n_ratio < 10:
                import warnings

                warnings.warn(
                    f"{name}: n/m ratio {sub.n_ratio} is below 10; sampling "
                    "noise will not be negligible next to the shift scale",
                    stacklevel=3,
                )


@dataclass(frozen=True, kw_only=True)
class CheckResult:
    name: str
    passed: bool
    runtime_s: float = 0.0  # the wall time of the family's call, set by run_harness
    definition: str  # verbatim pass-flag rule
    target: dict
    empirical: dict
    mc_se: dict
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HarnessReport:
    results: tuple[CheckResult, ...]
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "results": [r.to_dict() for r in self.results],
        }


def _replicates(seed: int, lane: int, indices, draw) -> np.ndarray:
    """Row i is draw(substream(seed, lane, indices[i])), the vector that
    replicate indices[i] reports from its own stream."""
    return np.array([draw(substream(seed, lane, r)) for r in indices], dtype=float)


def _cov_with_se(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of rows plus a moment-based SE for each entry."""
    n, d = g.shape
    centered = g - g.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    se = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            prods = centered[:, i] * centered[:, j]
            se[i, j] = prods.std(ddof=1) / math.sqrt(n)
    return cov, se


def _bin_counts(w: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows per bin of n i.i.d. draws that pick bin b with probability
    proportional to ``w[b]``: one multinomial draw."""
    return rng.multinomial(n, w / w.sum())


def _bin_rows(
    counts: np.ndarray, rng: np.random.Generator, bins: np.ndarray | None = None
) -> np.ndarray:
    """The rows (b + v) / m, v uniform on [0, 1), of ``counts[b]`` draws in
    each bin b of ``bins`` (every bin by default), in bin order, built by
    ``perturb._rows_in_bins`` as ``perturb.sample_uniform`` builds them."""
    m = counts.size
    bins = np.arange(m) if bins is None else bins
    per_bin = counts[bins]
    return _rows_in_bins(rng.random(int(per_bin.sum())), np.repeat(bins, per_bin), m)


def _walsh_table(n_functions: int, n_bins: int) -> np.ndarray:
    """Walsh function values on a dyadic grid: (L, n_bins) entries of +-1.

    The Walsh system is exactly orthonormal under the uniform law, has zero
    mean for every index >= 1, and is constant on each of the n_bins cells,
    so the binned reweighting acts on it without any within-bin attenuation
    at any frequency (n_bins must be a power of two > n_functions; see
    :func:`_weight_fit_rules`).
    """
    masked = np.arange(1, n_functions + 1)[:, None] & np.arange(n_bins)[None, :]
    parity = np.zeros_like(masked)
    while masked.any():
        parity ^= masked & 1
        masked >>= 1
    return 1.0 - 2.0 * parity


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _lognormal_scheme(m: int, sigma: float, k: int):
    """K independent lognormal(0, sigma) weight laws: the scheme, and its
    sigma_w derived from the parameters alone (never from the scheme)."""
    laws = tuple(lognormal_law(0.0, sigma) for _ in range(k))
    sigma_w = analytic.scheme_sigma_w("independent", laws=[("lognormal", 0.0, sigma)] * k)
    return PerturbationScheme(m, IndependentWeights(laws)), sigma_w


def _moment_shift_cov(name, cfg, scheme, sigma_w, p, seed, definition, **details):
    """Replicate covariance of the sqrt(m)-scaled shifts of the source means
    of phi = (u, ..., u^p) vs kron(sigma_w, Var(phi)).

    Each replicate also records each dataset's population covariance S of
    phi; m * S / n, averaged over replicates, is the sampling term taken off
    that dataset's diagonal block.
    """
    k = sigma_w.shape[0]
    n = cfg.n_ratio * cfg.m
    target = np.kron(sigma_w, analytic.uniform_poly_cov()[:p, :p])
    e_phi = 1.0 / np.arange(2, p + 2)  # E[u^i] = 1 / (i + 1)
    sqrt_m = math.sqrt(cfg.m)

    def draw(rng):
        world = realize_world(scheme, rng)
        shifts, s_entries = [], []
        for j in range(k):
            u = _bin_rows(_bin_counts(world[j], n, rng), rng)
            phi = (u,) if p == 1 else (u, u * u)
            means = np.array([c.mean() for c in phi])
            centered = [c - mu for c, mu in zip(phi, means)]
            shifts.extend(sqrt_m * (means - e_phi))
            s_entries.extend(np.mean(a * b) for a in centered for b in centered)
        return shifts + s_entries

    data = _replicates(seed, _LANE_OF[name], range(cfg.replicates), draw)
    cov, se = _cov_with_se(data[:, : k * p])
    correction = cfg.m * data[:, k * p :].mean(axis=0).reshape(k, p, p) / n
    cov_corrected = cov.copy()
    for j, block in enumerate(correction):
        cov_corrected[j * p : (j + 1) * p, j * p : (j + 1) * p] -= block
    return CheckResult(
        name=name,
        passed=bool(np.all(np.abs(cov_corrected - target) <= 3.0 * se)),
        definition=definition,
        target={"cov": target.tolist()},
        empirical={
            "cov_corrected": cov_corrected.tolist(),
            "cov_raw": cov.tolist(),
            "sampling_correction_diag": np.diagonal(correction, 0, 1, 2).ravel().tolist(),
        },
        mc_se={"cov": se.tolist()},
        details={"replicates": cfg.replicates, "m": cfg.m, "n": n, **details},
    )


def check_clt_cov(cfg: CltCovConfig, seed: int) -> CheckResult:
    """Covariance of sqrt(m)-scaled moment shifts vs sigma_w * Var(phi)."""
    scheme, sigma_w = _lognormal_scheme(cfg.m, _WEIGHT_SD, cfg.n_sources)
    return _moment_shift_cov(
        "clt_cov", cfg, scheme, sigma_w, 1, seed,
        "every entry of the replicate covariance of sqrt(m)*(mean_k - "
        "target mean), after subtracting the within-replicate sampling "
        "variance m*s^2/n from the diagonal, lies within 3 Monte Carlo "
        "standard errors of sigma_w * Var(phi)",
    )


def check_kron_cov(cfg: KronCovConfig, seed: int) -> CheckResult:
    """Vector test functions: block covariance vs sigma_w (x) Var(phi)."""
    corr = ((1.0, _COPULA_RHO), (_COPULA_RHO, 1.0))
    laws = (lognormal_law(0.0, _WEIGHT_SD),) * 2
    scheme = PerturbationScheme(cfg.m, GaussianCopulaWeights(laws, corr))
    sigma_w = analytic.scheme_sigma_w(
        "lognormal_copula", sigmas=[_WEIGHT_SD] * 2, corr=np.asarray(corr)
    )
    return _moment_shift_cov(
        "kron_cov", cfg, scheme, sigma_w, 2, seed,
        "every entry of the replicate covariance of the stacked "
        "sqrt(m)-scaled vector-moment shifts, after subtracting the "
        "within-replicate sampling covariance m*S/n on the within-dataset "
        "blocks, lies within 3 Monte Carlo standard errors of "
        "kron(sigma_w, Var(phi))",
        copula_rho=_COPULA_RHO,
    )


# replicates _simulate_null fits together; memory grows with the block, and
# the solve gains little beyond it
_BLOCK = 32


def _simulate_null(cfg, seed: int, lane: int, with_ci: bool):
    """Shared exchangeable-null simulation for the t/F/chi2/CI checks.

    Per replicate: realize a world with i.i.d. symmetric weights (the
    exchangeable null, optimal weights uniform), draw the bin counts of one
    unperturbed target dataset and of K source datasets, take the
    orthonormal Walsh test-function means off the counts, and fit the weight
    regression. Rows are built only for the CI's source means of u.

    Replicates are drawn one at a time, each from its own substream, and
    fitted in blocks of at most ``_BLOCK`` by one call to the weight-fit core
    ``dlm._fit_stack``; the interval is ``dlm.target_ci``'s arithmetic. Row r
    holds replicate r's t pivot, F, RSS and coverage flag (0 without the CI).
    """
    k = cfg.n_sources
    n = cfg.n_ratio * cfg.m
    n0 = cfg.n0_ratio * cfg.m
    law = WeightLaw(*_NULL_WEIGHT_LAW)
    scheme = PerturbationScheme(cfg.m, IndependentWeights((law,) * k))
    table_t = _walsh_table(cfg.n_functions, cfg.m).T
    flat = np.ones(cfg.m)
    sizes = np.array((n0,) + (n,) * k)[:, None]
    out = np.zeros((cfg.replicates, 4))
    for start in range(0, cfg.replicates, _BLOCK):
        block = range(start, min(start + _BLOCK, cfg.replicates))
        counts = np.empty((len(block), k + 1, cfg.m), dtype=np.int64)
        source_means = np.empty((len(block), k))
        pooled_var = np.empty(len(block))
        for i, r in enumerate(block):
            rng = substream(seed, lane, r)
            world = realize_world(scheme, rng)
            counts[i, 0] = _bin_counts(flat, n0, rng)
            for j in range(k):
                counts[i, j + 1] = _bin_counts(world[j], n, rng)
            if with_ci:
                u_sources = [_bin_rows(c, rng) for c in counts[i, 1:]]
                source_means[i] = [u.mean() for u in u_sources]
                pooled_var[i] = np.concatenate(u_sources).var()
        phi_hat = (counts.reshape(-1, cfg.m) @ table_t).reshape(len(block), k + 1, -1) / sizes
        fits = _fit_stack(phi_hat)
        out[block, 0] = (fits.beta[:, 0] - 1.0 / k) / fits.se[:, 0]
        out[block, 1] = fits.f_stat
        out[block, 2] = fits.rss
        if with_ci:
            estimate, half_width = _interval(fits.beta, fits.rss, cfg.n_functions,
                                             source_means, pooled_var, _CI_LEVEL)
            out[block, 3] = np.abs(estimate - 0.5) <= half_width
    return out, n, n0


# The two-sided one-sample Kolmogorov-Smirnov test. The statistic and the
# p-value P(D_n >= d) follow scipy.stats.ks_1samp and scipy.stats.kstwo.sf;
# the p-value code below is ported from SciPy's scipy/stats/_ksstats.py
# (Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers,
# under SciPy's BSD-3-Clause license). Simard & L'Ecuyer (2011), "Computing the two-sided
# Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11), choose the method
# for each (n, d).

_KS_E128 = 128
_KS_EP128 = np.ldexp(np.longdouble(1), _KS_E128)
_KS_EM128 = np.ldexp(np.longdouble(1), -_KS_E128)
_KS_MIN_LOG = -708
# B_2j / (2j) / (2j - 1) for j = 8, ..., 1 (the Stirling series of log n!)
_KS_STIRLING = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                -5.952380952380952381e-4, 7.9365079365079365079e-4,
                -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _kstest(sample: np.ndarray, cdf) -> tuple[float, float]:
    """Two-sided one-sample KS test of ``sample`` against the continuous law
    with CDF ``cdf``: the statistic d = max(D+, D-) and P(D_n >= d).

    The statistic is ``scipy.stats.kstest``'s, bit for bit. The p-value is
    :func:`_ks_sf`: bit for bit ``scipy.stats.kstwo.sf`` for n > 140, and
    within 1e-10 relative of it for n <= 140.
    """
    x = np.sort(sample)
    n = x.size
    f = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), _ks_sf(n, d)


def _ks_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided KS statistic of n i.i.d. draws, by
    scipy's choice of method for each (n, d), in this order:

    - d >= 1: 0; nd <= 1/2: 1;
    - nd <= 1 or nd >= n - 1: Ruben & Gambino's closed forms;
    - d >= 1/2: 2 smirnov(n, d), exact, as D+ and D- cannot both reach d;
    - n <= 140: the Durbin matrix up to nd^2 = 4, 2 smirnov(n, d) above;
      scipy uses Pomeranz's recursion from nd^2 = 0.754693 to 4, and the
      two exact methods agree there to 3e-11 relative;
    - n > 140: 0 from nd^2 = 370, 2 smirnov(n, d) from nd^2 = 2.2, the
      Durbin matrix where n <= 100000 and n d^1.5 <= 1.4, Pelz-Good
      elsewhere.

    Only 2 smirnov(n, d) below d = 1/2 (Miller's approximation), the 0 and
    Pelz-Good are not exact.
    """
    d = np.float64(d)
    if np.isnan(d):
        return float(d)
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            cdf = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip_prob(1.0 - cdf)
    if t >= n - 1:
        return _clip_prob(2 * (1.0 - d) ** n)
    if d >= 0.5:
        return _clip_prob(2 * smirnov(n, d))
    nd2 = t * d
    if n <= 140:
        if nd2 > 4.0:
            return _clip_prob(2 * smirnov(n, d))
        return _clip_prob(1.0 - _durbin_cdf(n, d))
    if nd2 >= 370.0:
        return 0.0
    if nd2 >= 2.2:
        return _clip_prob(2 * smirnov(n, d))
    if n <= 100000 and n * np.power(d, 1.5) <= 1.4:
        return _clip_prob(1.0 - _durbin_cdf(n, d))
    return _clip_prob(1.0 - _pelz_good_cdf(n, d))


def _clip_prob(p) -> float:
    return float(np.clip(p, 0.0, 1.0))


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n! / n^n) by Stirling's series, with n log n taken out first."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + np.log(2 * np.pi) / 2 + rn * np.polyval(_KS_STIRLING, rn / n)


def _durbin_cdf(n: int, d):
    """P(D_n <= d), exact, for 1/(2n) < d < 1: Durbin's (1968) matrix method
    as Marsaglia, Tsang & Wang (2003), "Evaluating Kolmogorov's
    distribution", J. Stat. Softw. 8(18), compute it. With nd = k - h,
    0 <= h < 1, it is n!/n^n times the (k, k) entry of H^n for an
    m x m matrix H, m = 2k - 1, powered by squaring with rescaling."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    # v: first column and reversed last row of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn = n
    expnt = 0  # Hpwr is scaled by 2^-expnt
    Hexpnt = 0  # and H by 2^-Hexpnt
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _KS_EP128:
            H /= _KS_EP128
            Hexpnt += _KS_E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _KS_EM128:
            p *= _KS_EP128
            expnt -= _KS_E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pelz_good_cdf(n: int, d):
    """P(D_n <= d) by Pelz & Good (1976), "Approximating the lower tail-areas
    of the Kolmogorov-Smirnov one-sample statistic", JRSS B 38(2): the
    Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5, z = d sqrt(n), recast through Jacobi theta functions for
    small z."""
    z = np.sqrt(n) * d
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -np.pi**2 / 8 / zsquared
    if qlog < _KS_MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms of K1, K2 and K3
    k1a = -zsquared
    k1b = np.pi**2 / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * zsquared) / 16

    k3d = np.pi**6 * (5 - 30 * zsquared) / 64
    k3c = np.pi**4 * (-60 * zsquared + 212 * zfour) / 16
    k3b = np.pi**2 * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner's scheme for sum c_i q^(i^2) over the odd i = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= np.sqrt(2 * np.pi)
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all k of (pi^2 k^2) q^(k^2) in K2 and of
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3
    q = np.exp(-np.pi**2 / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = np.sqrt(3) * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= np.pi**2 * np.sqrt(2 * np.pi) / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= np.pi**2 * np.sqrt(2 * np.pi) / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(K0to3)


def check_null_laws(cfg: NullLawsConfig, seed: int) -> list[CheckResult]:
    """t and F statistics under the exchangeable null vs their exact laws."""
    data, n, n0 = _simulate_null(cfg, seed, _LANE_OF["null_laws"], with_ci=False)
    df = cfg.n_functions - cfg.n_sources + 1
    t_vals, f_vals = data[:, 0], data[:, 1]

    crit = stdtrit(df, 0.975)
    size = float(np.mean(np.abs(t_vals) > crit))
    size_se = math.sqrt(0.05 * 0.95 / cfg.replicates)
    ks_stat, ks_p = _kstest(t_vals, lambda x: stdtr(df, x))
    t_pass = bool(0.04 <= size <= 0.06 and ks_p > 0.01)
    results = [
        CheckResult(
            name="t_null",
            passed=t_pass,
            definition=(
                "empirical two-sided size of the level-0.05 t pivot on the "
                "first weight lies in [0.04, 0.06] and the pivot passes a "
                "KS test against t(L-K+1) at p > 0.01"
            ),
            target={"size": 0.05, "law": f"t({df})"},
            empirical={"size": size, "ks_pvalue": ks_p, "ks_stat": ks_stat},
            mc_se={"size": size_se},
            details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "n0": n0},
        )
    ]
    ks_stat, ks_p = _kstest(f_vals, lambda x: fdtr(cfg.n_sources - 1, df, x))
    results.append(
        CheckResult(
            name="f_null",
            passed=bool(ks_p > 0.01),
            definition=(
                "the uniform-weights F statistic under the exchangeable null "
                "passes a KS test against F(K-1, L-K+1) at p > 0.01"
            ),
            target={"law": f"F({cfg.n_sources - 1}, {df})"},
            empirical={"ks_pvalue": ks_p, "ks_stat": ks_stat},
            mc_se={},
            details={"replicates": cfg.replicates},
        )
    )
    return results


def check_ci_chi2(cfg: CiChi2Config, seed: int) -> list[CheckResult]:
    """Residual chi-squared law and CI coverage in the many-functions regime."""
    data, n, n0 = _simulate_null(cfg, seed, _LANE_OF["ci_chi2"], with_ci=True)
    k = cfg.n_sources
    n_funcs = cfg.n_functions

    sigma_w = analytic.scheme_sigma_w("independent", laws=[_NULL_WEIGHT_LAW] * k)
    sigma_eff = analytic.effective_row_cov(sigma_w, cfg.m, [n] * k, n0)
    scale = analytic.optimal_uniform_quadratic(sigma_eff) / cfg.m
    chi2_stats = data[:, 2] / scale
    ks_stat, ks_p = _kstest(chi2_stats, lambda x: chdtr(n_funcs, x))
    results = [
        CheckResult(
            name="chi2_residual",
            passed=bool(ks_p > 0.01),
            definition=(
                "L times the mean squared residual, divided by the "
                "finite-n-corrected shift scale beta*' sigma_eff beta* / m, "
                "passes a KS test against chi2(L) at p > 0.01"
            ),
            target={"law": f"chi2({n_funcs})", "scale": scale},
            empirical={"ks_pvalue": ks_p, "ks_stat": ks_stat,
                       "mean_stat_over_L": float(chi2_stats.mean() / n_funcs)},
            mc_se={},
            details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "n0": n0,
                     "sigma_eff_correction": (sigma_eff - sigma_w).tolist()},
        )
    ]
    coverage = float(data[:, 3].mean())
    cov_se = math.sqrt(_CI_LEVEL * (1 - _CI_LEVEL) / cfg.replicates)
    results.append(
        CheckResult(
            name="ci_coverage",
            passed=bool(0.93 <= coverage <= 0.97),
            definition=(
                f"empirical coverage of the level-{_CI_LEVEL} target-mean interval "
                "lies in [0.93, 0.97]"
            ),
            target={"coverage": _CI_LEVEL},
            empirical={"coverage": coverage},
            mc_se={"coverage": cov_se},
            details={"replicates": cfg.replicates, "L": n_funcs},
        )
    )
    return results


def check_excess_risk(cfg: ExcessRiskConfig, seed: int) -> CheckResult:
    """Mean of m * excess target risk of the weighted squared-error fit vs
    half the weight quadratic form times Trace(H^{-1} V).

    The data law: regressors and noise are independent unit-variance scaled
    uniforms obtained by bit-splitting the perturbed uniform, so the
    second-moment matrix is the identity and the excess risk of any theta
    is exactly |theta - theta*|^2.
    """
    k = cfg.n_sources
    n = cfg.n_ratio * cfg.m
    dim = _ERM_DIM_X + 1
    theta_star = np.array([1.0, 2.0, -1.0, 0.5, -0.25])[:dim]
    beta = np.full(k, 1.0 / k)
    scheme, sigma_w = _lognormal_scheme(cfg.m, _ERM_WEIGHT_SD, k)
    target = analytic.excess_risk_mean(beta, sigma_w, dim, _ERM_NOISE_SD**2)
    sqrt12 = math.sqrt(12.0)

    def draw(rng):
        world = realize_world(scheme, rng)
        # the weighted squared-error fit solves its normal equations,
        # sum_k beta_k X_k'X_k / n theta = sum_k beta_k X_k'y_k / n
        gram, moment = 0.0, 0.0
        for j in range(k):
            u = _bin_rows(_bin_counts(world[j], n, rng), rng)
            # in place and into one buffer: fresh (5, n) temporaries per
            # replicate can fault the trimmed top of the heap back in
            streams = split_uniform(u, dim)
            streams -= 0.5
            streams *= sqrt12
            x = np.empty((n, dim))
            x[:, 0] = 1.0
            x[:, 1:] = streams[:_ERM_DIM_X].T
            y = x @ theta_star + _ERM_NOISE_SD * streams[_ERM_DIM_X]
            gram = gram + beta[j] * (x.T @ x) / n
            moment = moment + beta[j] * (x.T @ y) / n
        diff = np.linalg.solve(gram, moment) - theta_star
        # M = E[x x'] = I for this construction, so excess = |diff|^2
        return np.array([cfg.m * float(diff @ diff)])

    data = _replicates(seed, _LANE_OF["erm_excess_risk"], range(cfg.replicates), draw)
    mean = float(data.mean())
    se = float(data.std(ddof=1) / math.sqrt(cfg.replicates))
    rel_err = abs(mean - target) / target
    return CheckResult(
        name="erm_excess_risk",
        passed=bool(rel_err < _ERM_REL_TOL),
        definition=(
            "the Monte Carlo mean of m times the excess target risk of the "
            f"weighted squared-error fit is within {_ERM_REL_TOL:.0%} relative of "
            "(1/2) beta' sigma_w beta * Trace(H^{-1} V)"
        ),
        target={"mean_excess": target},
        empirical={"mean_excess": mean, "relative_error": rel_err},
        mc_se={"mean_excess": se},
        details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "dim": dim},
    )


def _event_bins(m: int, prob: float) -> np.ndarray:
    """The bins b of a dyadic m whose rows u = (b + v) / m all have
    x = split_uniform(u, 2)[0] < prob = 2^-j, and whose rows all miss it
    otherwise.

    Stream 0 of the split takes bits 0, 2, 4, ... of u (most significant
    first), so x < 2^-j exactly when bits 0, 2, ..., 2j - 2 of u are zero.
    For 2j - 1 <= log2(m) those bits lie in the bin index.
    """
    j = 1 - math.frexp(prob)[1]
    top = m.bit_length() - 2  # bit 0 of u is bit log2(m) - 1 of the index
    mask = sum(1 << (top - i) for i in range(0, 2 * j - 1, 2))
    return np.flatnonzero((np.arange(m) & mask) == 0)


def check_conditional_shift(cfg: ConditionalShiftConfig, seed: int) -> CheckResult:
    """Conditional-mean shifts scale with shift strength and inversely with
    the conditioning probability.

    Data law: (X, Y) from a bit-split of the perturbed uniform with X the
    first stream (uniform) and Y an independent unit-variance scaled uniform,
    so the conditional variance of Y given any X-event is exactly 1 and dyadic
    event probabilities align with the bin grid: the event is a set of bins
    (:func:`_event_bins`), and only its rows are built and split.
    """
    n = cfg.n_ratio * cfg.m
    n0 = cfg.n0_ratio * cfg.m
    v_base = math.exp(_WEIGHT_SD**2) - 1.0
    sigma_doubled = math.sqrt(math.log(2.0 * v_base + 1.0))
    subconfigs = [
        ("base", _WEIGHT_SD, _EVENT_PROB),
        ("half_prob", _WEIGHT_SD, _EVENT_PROB / 2.0),
        ("double_sigma", sigma_doubled, _EVENT_PROB),
    ]
    sqrt_m = math.sqrt(cfg.m)
    sqrt12 = math.sqrt(12.0)
    flat = np.ones(cfg.m)
    empirical = {}
    targets = {}
    ses = {}
    resampled = {}

    # sub-configuration s draws replicate r from stream index 10 r + s
    for s, (label, sig, prob) in enumerate(subconfigs):
        scheme, sigma_w = _lognormal_scheme(cfg.m, sig, 1)
        event = _event_bins(cfg.m, prob)

        def draw(rng):
            for attempt in range(20):
                world = realize_world(scheme, rng)
                c_src = _bin_counts(world[0], n, rng)
                c_tgt = _bin_counts(flat, n0, rng)
                if c_src[event].any() and c_tgt[event].any():
                    ys = split_uniform(_bin_rows(c_src, rng, event), 2)[1]
                    yt = split_uniform(_bin_rows(c_tgt, rng, event), 2)[1]
                    gap = sqrt12 * (ys.mean() - yt.mean())
                    return np.array([sqrt_m * gap, float(attempt)])
            raise RuntimeError("conditioning event empty in 20 consecutive draws")

        out = _replicates(seed, _LANE_OF["conditional_shift"],
                          range(s, 10 * cfg.replicates, 10), draw)
        data = out[:, 0]
        centered = data - data.mean()
        empirical[label] = float(centered @ centered / (cfg.replicates - 1))
        ses[label] = float((centered**2).std(ddof=1) / math.sqrt(cfg.replicates))
        targets[label] = analytic.conditional_shift_var(
            sigma_w[0, 0], 1.0, prob, cfg.m, n, n0
        )
        resampled[label] = int(out[:, 1].sum())

    level_ok = all(
        abs(empirical[lbl] - targets[lbl]) <= 3.0 * ses[lbl] for lbl, _, _ in subconfigs
    )
    ratio = empirical["half_prob"] / empirical["base"]
    ratio_se = ratio * math.sqrt(
        (ses["half_prob"] / empirical["half_prob"]) ** 2
        + (ses["base"] / empirical["base"]) ** 2
    )
    ratio_ok = abs(ratio - 2.0) <= 3.0 * ratio_se
    return CheckResult(
        name="conditional_shift",
        passed=bool(level_ok and ratio_ok),
        definition=(
            "each sub-configuration's variance of the sqrt(m)-scaled "
            "conditional-mean gap lies within 3 Monte Carlo standard errors "
            "of s11 * Var(Y|A) / P(A) plus the known sampling term, and "
            "halving P(A) doubles the variance within 3 standard errors of "
            "the ratio"
        ),
        target={**{k_: v for k_, v in targets.items()}, "ratio_half_over_base": 2.0},
        empirical={**empirical, "ratio_half_over_base": ratio},
        mc_se={**ses, "ratio": ratio_se},
        details={"replicates": cfg.replicates, "resampled_empty_events": resampled},
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_harness(config: HarnessConfig) -> HarnessReport:
    """Run each family that reports a requested check, serially and in table
    order, and keep the requested results, each stamped with the wall time
    of its family's call."""
    results: list[CheckResult] = []
    for family in _FAMILIES:
        if set(family.results) & set(config.checks):
            t0 = time.perf_counter()
            out = globals()[family.func](getattr(config, family.block), config.seed)
            runtime = time.perf_counter() - t0
            results.extend(replace(r, runtime_s=runtime)
                           for r in (out if isinstance(out, list) else [out])
                           if r.name in config.checks)
    return HarnessReport(results=tuple(results), seed=config.seed)
