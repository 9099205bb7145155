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
index), so reports are bit-for-bit reproducible for a given config and
thread count independent of scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.special import stdtrit

from . import analytic
from .dlm import fit_weights, target_ci
from .moments import MomentMatrix, ScalarMoments
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    PerturbationScheme,
    WeightLaw,
    lognormal_law,
    realize_world,
    sample_uniform,
)
from .rng import split_uniform, substream

__all__ = [
    "HarnessConfig",
    "HarnessReport",
    "CheckResult",
    "run_harness",
    "ALL_CHECKS",
]

ALL_CHECKS = (
    "clt_cov",
    "kron_cov",
    "t_null",
    "f_null",
    "chi2_residual",
    "ci_coverage",
    "erm_excess_risk",
    "conditional_shift",
)

# stream lanes per check family (lane 0 is reserved for world realization
# in user-facing simulate runs)
_LANES = {
    "clt_cov": 11,
    "kron_cov": 12,
    "null_laws": 13,
    "ci_chi2": 14,
    "erm_excess_risk": 15,
    "conditional_shift": 16,
}


@dataclass(frozen=True)
class CltCovConfig:
    replicates: int = 5000
    m: int = 200
    n_ratio: int = 50
    n_sources: int = 2
    sigma: float = 0.5  # lognormal weight sd


@dataclass(frozen=True)
class KronCovConfig:
    replicates: int = 3000
    m: int = 200
    n_ratio: int = 50
    sigma: float = 0.5
    copula_rho: float = 0.6


def _weight_law(spec: tuple) -> WeightLaw:
    """The marginal law a settings block's ``weight_law`` (family, a, b) names."""
    try:
        return WeightLaw(*spec)
    except ValueError as exc:
        raise ValueError(f"weight_law: {exc}") from None


@dataclass(frozen=True)
class NullLawsConfig:
    # dyadic bin count for the Walsh test functions; symmetric bin weights
    # converge to the limiting t/F laws much faster in m than skewed ones
    replicates: int = 10_000
    m: int = 512
    n_ratio: int = 50
    n0_ratio: int = 50
    n_sources: int = 3
    n_functions: int = 50
    weight_law: tuple = ("uniform", 0.2, 1.8)

    def __post_init__(self):
        _weight_law(self.weight_law)


@dataclass(frozen=True)
class CiChi2Config:
    replicates: int = 2000
    m: int = 512
    n_ratio: int = 50
    n0_ratio: int = 100
    n_sources: int = 2
    n_functions: int = 500
    weight_law: tuple = ("uniform", 0.2, 1.8)
    level: float = 0.95

    def __post_init__(self):
        _weight_law(self.weight_law)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")


@dataclass(frozen=True)
class ExcessRiskConfig:
    # dyadic m keeps the bit-split regressor cells aligned with the bins,
    # so the within-bin variance loss is (cell width)^2, i.e. negligible
    replicates: int = 2000
    m: int = 512
    n_ratio: int = 50
    n_sources: int = 2
    sigma: float = 0.8
    dim_x: int = 2
    noise_sd: float = 0.5
    rel_tol: float = 0.10


@dataclass(frozen=True)
class ConditionalShiftConfig:
    replicates: int = 4000
    m: int = 256
    n_ratio: int = 50
    n0_ratio: int = 50
    sigma: float = 0.5
    prob: float = 0.5
    y_sd: float = 1.0


@dataclass(frozen=True)
class HarnessConfig:
    checks: tuple[str, ...] = ALL_CHECKS
    seed: int = 20240801
    threads: int = 1
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
        for name in (f.name for f in fields(self) if f.default_factory is not MISSING):
            sub = getattr(self, name)
            if sub.replicates < 100:
                raise ValueError(f"{name}: need at least 100 replicates")
            if sub.n_ratio < 10:
                import warnings

                warnings.warn(
                    f"{name}: n/m ratio {sub.n_ratio} is below 10; sampling "
                    "noise will not be negligible next to the shift scale",
                    stacklevel=3,
                )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    runtime_s: float
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
    threads: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "threads": self.threads,
            "all_passed": self.all_passed,
            "results": [r.to_dict() for r in self.results],
        }


def _thread_cap(requested: int) -> int:
    cap = os.environ.get("DRIFTLAB_THREADS")
    if cap is not None:
        try:
            requested = min(requested, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"DRIFTLAB_THREADS must be an integer, got {cap!r}") from None
    return max(1, requested)


def _replicate_map(fn, n_replicates: int, threads: int, width: int) -> np.ndarray:
    """Evaluate fn(replicate_index) -> vector for all replicates.

    Rows are keyed by replicate index, so the reduction is independent of
    execution order and thread count.
    """
    out = np.empty((n_replicates, width))

    if threads <= 1:
        for r in range(n_replicates):
            out[r] = fn(r)
        return out

    def worker(block):
        for r in block:
            out[r] = fn(r)

    blocks = np.array_split(np.arange(n_replicates), threads * 4)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, [b for b in blocks if b.size]))
    return out


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


def _walsh_table(n_functions: int, n_bins: int) -> np.ndarray:
    """Walsh function values on a dyadic grid: (L, n_bins) entries of +-1.

    The Walsh system is exactly orthonormal under the uniform law, has zero
    mean for every index >= 1, and is constant on each of the n_bins cells,
    so the binned reweighting acts on it without any within-bin attenuation
    at any frequency (n_bins must be a power of two > n_functions).
    """
    if n_bins & (n_bins - 1) or n_functions >= n_bins:
        raise ValueError("need a power-of-two bin count larger than n_functions")
    masked = np.arange(1, n_functions + 1)[:, None] & np.arange(n_bins)[None, :]
    parity = np.zeros_like(masked)
    while masked.any():
        parity ^= masked & 1
        masked >>= 1
    return 1.0 - 2.0 * parity


def _walsh_means(u: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-function means via bin counts; table is the (L, m) Walsh grid."""
    n_bins = table.shape[1]
    bins = np.minimum((u * n_bins).astype(np.intp), n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins)
    return table @ (counts / u.size)


def _moment_matrix(phi_hat: np.ndarray, sizes: tuple[int, ...]) -> MomentMatrix:
    k = phi_hat.shape[0] - 1
    return MomentMatrix(
        phi_hat=phi_hat,
        names=tuple(f"phi_{i + 1}" for i in range(phi_hat.shape[1])),
        sizes=sizes,
        source_names=tuple(f"source_{i + 1}" for i in range(k)),
        target_name="target",
        pooled_var=None,
    )


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _lognormal_scheme(m: int, sigma: float, k: int):
    """K independent lognormal(0, sigma) weight laws: the scheme, and its
    sigma_w derived from the parameters alone (never from the scheme)."""
    laws = tuple(lognormal_law(0.0, sigma) for _ in range(k))
    sigma_w = analytic.scheme_sigma_w("independent", laws=[("lognormal", 0.0, sigma)] * k)
    return PerturbationScheme(m, IndependentWeights(laws)), sigma_w


def _moment_shift_cov(name, cfg, scheme, sigma_w, p, seed, threads, definition, **details):
    """Replicate covariance of the sqrt(m)-scaled shifts of the source means
    of phi = (u, ..., u^p) vs kron(sigma_w, Var(phi)).

    Each replicate also records each dataset's population covariance S of
    phi; m * S / n, averaged over replicates, is the sampling term taken off
    that dataset's diagonal block.
    """
    t0 = time.perf_counter()
    k = sigma_w.shape[0]
    n = cfg.n_ratio * cfg.m
    target = np.kron(sigma_w, analytic.uniform_poly_cov()[:p, :p])
    e_phi = 1.0 / np.arange(2, p + 2)  # E[u^i] = 1 / (i + 1)
    sqrt_m = math.sqrt(cfg.m)

    def one(r):
        rng = substream(seed, _LANES[name], r)
        world = realize_world(scheme, rng)
        shifts, s_entries = [], []
        for j in range(k):
            u = sample_uniform(world, j, n, rng)
            phi = (u,) if p == 1 else (u, u * u)
            means = np.array([c.mean() for c in phi])
            centered = [c - mu for c, mu in zip(phi, means)]
            shifts.extend(sqrt_m * (means - e_phi))
            s_entries.extend(np.mean(a * b) for a in centered for b in centered)
        return shifts + s_entries

    data = _replicate_map(one, cfg.replicates, threads, k * p * (1 + p))
    cov, se = _cov_with_se(data[:, : k * p])
    correction = cfg.m * data[:, k * p :].mean(axis=0).reshape(k, p, p) / n
    cov_corrected = cov.copy()
    for j, block in enumerate(correction):
        cov_corrected[j * p : (j + 1) * p, j * p : (j + 1) * p] -= block
    return CheckResult(
        name=name,
        passed=bool(np.all(np.abs(cov_corrected - target) <= 3.0 * se)),
        runtime_s=time.perf_counter() - t0,
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


def check_clt_cov(cfg: CltCovConfig, seed: int, threads: int) -> CheckResult:
    """Covariance of sqrt(m)-scaled moment shifts vs sigma_w * Var(phi)."""
    scheme, sigma_w = _lognormal_scheme(cfg.m, cfg.sigma, cfg.n_sources)
    return _moment_shift_cov(
        "clt_cov", cfg, scheme, sigma_w, 1, seed, threads,
        "every entry of the replicate covariance of sqrt(m)*(mean_k - "
        "target mean), after subtracting the within-replicate sampling "
        "variance m*s^2/n from the diagonal, lies within 3 Monte Carlo "
        "standard errors of sigma_w * Var(phi)",
    )


def check_kron_cov(cfg: KronCovConfig, seed: int, threads: int) -> CheckResult:
    """Vector test functions: block covariance vs sigma_w (x) Var(phi)."""
    corr = ((1.0, cfg.copula_rho), (cfg.copula_rho, 1.0))
    laws = (lognormal_law(0.0, cfg.sigma),) * 2
    scheme = PerturbationScheme(cfg.m, GaussianCopulaWeights(laws, corr))
    sigma_w = analytic.scheme_sigma_w(
        "lognormal_copula", sigmas=[cfg.sigma] * 2, corr=np.asarray(corr)
    )
    return _moment_shift_cov(
        "kron_cov", cfg, scheme, sigma_w, 2, seed, threads,
        "every entry of the replicate covariance of the stacked "
        "sqrt(m)-scaled vector-moment shifts, after subtracting the "
        "within-replicate sampling covariance m*S/n on the within-dataset "
        "blocks, lies within 3 Monte Carlo standard errors of "
        "kron(sigma_w, Var(phi))",
        copula_rho=cfg.copula_rho,
    )


def _simulate_null(cfg, seed: int, threads: int, lane: int, with_ci: bool):
    """Shared exchangeable-null simulation for the t/F/chi2/CI checks.

    Per replicate: realize a world with i.i.d. symmetric weights (the
    exchangeable null, optimal weights uniform), sample K source datasets
    and one target dataset, evaluate the orthonormal Walsh test functions,
    and fit the weight regression.
    """
    k = cfg.n_sources
    n_funcs = cfg.n_functions
    n = cfg.n_ratio * cfg.m
    n0 = cfg.n0_ratio * cfg.m
    law = _weight_law(cfg.weight_law)
    scheme = PerturbationScheme(cfg.m, IndependentWeights((law,) * k))
    beta_star = np.full(k, 1.0 / k)
    table = _walsh_table(n_funcs, cfg.m)

    def one(r):
        rng = substream(seed, lane, r)
        world = realize_world(scheme, rng)
        phi_hat = np.empty((k + 1, n_funcs))
        u0 = rng.random(n0)
        phi_hat[0] = _walsh_means(u0, table)
        u_sources = []
        for j in range(k):
            u = sample_uniform(world, j, n, rng)
            u_sources.append(u)
            phi_hat[j + 1] = _walsh_means(u, table)
        mm = _moment_matrix(phi_hat, (n0,) + (n,) * k)
        fit = fit_weights(mm)
        t_pivot = (fit.beta_hat[0] - beta_star[0]) / fit.se[0]
        out = [t_pivot, fit.f_stat, fit.rss]
        if with_ci:
            pooled = np.concatenate(u_sources)
            phi0 = ScalarMoments(
                name="identity",
                source_means=np.array([u.mean() for u in u_sources]),
                pooled_var=float(pooled.var()),
            )
            ci = target_ci(fit, mm, phi0, level=cfg.level)
            covered = abs(ci.estimate - 0.5) <= ci.half_width
            out.append(1.0 if covered else 0.0)
        else:
            out.append(0.0)
        return np.array(out)

    return _replicate_map(one, cfg.replicates, threads, 4), n, n0


def _kstest(sample: np.ndarray, law: str, *args):
    """KS test of ``sample`` against the ``scipy.stats`` law ``law(*args)``.

    ``scipy.stats`` is imported here, not with the module: importing it takes
    about a second, and no other subcommand than ``validate`` needs it.
    """
    from scipy import stats

    return stats.kstest(sample, law, args=args)


def check_null_laws(cfg: NullLawsConfig, seed: int, threads: int) -> list[CheckResult]:
    """t and F statistics under the exchangeable null vs their exact laws."""
    t0 = time.perf_counter()
    data, n, n0 = _simulate_null(cfg, seed, threads, _LANES["null_laws"], with_ci=False)
    df = cfg.n_functions - cfg.n_sources + 1
    t_vals, f_vals = data[:, 0], data[:, 1]
    runtime = time.perf_counter() - t0

    crit = stdtrit(df, 0.975)
    size = float(np.mean(np.abs(t_vals) > crit))
    size_se = math.sqrt(0.05 * 0.95 / cfg.replicates)
    ks_t = _kstest(t_vals, "t", df)
    t_pass = bool(0.04 <= size <= 0.06 and ks_t.pvalue > 0.01)
    results = [
        CheckResult(
            name="t_null",
            passed=t_pass,
            runtime_s=runtime,
            definition=(
                "empirical two-sided size of the level-0.05 t pivot on the "
                "first weight lies in [0.04, 0.06] and the pivot passes a "
                "KS test against t(L-K+1) at p > 0.01"
            ),
            target={"size": 0.05, "law": f"t({df})"},
            empirical={"size": size, "ks_pvalue": float(ks_t.pvalue),
                       "ks_stat": float(ks_t.statistic)},
            mc_se={"size": size_se},
            details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "n0": n0},
        )
    ]
    ks_f = _kstest(f_vals, "f", cfg.n_sources - 1, df)
    results.append(
        CheckResult(
            name="f_null",
            passed=bool(ks_f.pvalue > 0.01),
            runtime_s=runtime,
            definition=(
                "the uniform-weights F statistic under the exchangeable null "
                "passes a KS test against F(K-1, L-K+1) at p > 0.01"
            ),
            target={"law": f"F({cfg.n_sources - 1}, {df})"},
            empirical={"ks_pvalue": float(ks_f.pvalue), "ks_stat": float(ks_f.statistic)},
            mc_se={},
            details={"replicates": cfg.replicates},
        )
    )
    return results


def check_ci_chi2(cfg: CiChi2Config, seed: int, threads: int) -> list[CheckResult]:
    """Residual chi-squared law and CI coverage in the many-functions regime."""
    t0 = time.perf_counter()
    data, n, n0 = _simulate_null(cfg, seed, threads, _LANES["ci_chi2"], with_ci=True)
    runtime = time.perf_counter() - t0
    k = cfg.n_sources
    n_funcs = cfg.n_functions

    sigma_w = analytic.scheme_sigma_w("independent", laws=[tuple(cfg.weight_law)] * k)
    sigma_eff = analytic.effective_row_cov(sigma_w, cfg.m, [n] * k, n0)
    scale = analytic.optimal_uniform_quadratic(sigma_eff) / cfg.m
    chi2_stats = data[:, 2] / scale
    ks = _kstest(chi2_stats, "chi2", n_funcs)
    results = [
        CheckResult(
            name="chi2_residual",
            passed=bool(ks.pvalue > 0.01),
            runtime_s=runtime,
            definition=(
                "L times the mean squared residual, divided by the "
                "finite-n-corrected shift scale beta*' sigma_eff beta* / m, "
                "passes a KS test against chi2(L) at p > 0.01"
            ),
            target={"law": f"chi2({n_funcs})", "scale": scale},
            empirical={"ks_pvalue": float(ks.pvalue), "ks_stat": float(ks.statistic),
                       "mean_stat_over_L": float(chi2_stats.mean() / n_funcs)},
            mc_se={},
            details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "n0": n0,
                     "sigma_eff_correction": (sigma_eff - sigma_w).tolist()},
        )
    ]
    coverage = float(data[:, 3].mean())
    cov_se = math.sqrt(cfg.level * (1 - cfg.level) / cfg.replicates)
    results.append(
        CheckResult(
            name="ci_coverage",
            passed=bool(0.93 <= coverage <= 0.97),
            runtime_s=runtime,
            definition=(
                "empirical coverage of the level-0.95 target-mean interval "
                "lies in [0.93, 0.97]"
            ),
            target={"coverage": cfg.level},
            empirical={"coverage": coverage},
            mc_se={"coverage": cov_se},
            details={"replicates": cfg.replicates, "L": n_funcs},
        )
    )
    return results


def check_excess_risk(cfg: ExcessRiskConfig, seed: int, threads: int) -> CheckResult:
    """Mean of m * excess target risk of the weighted squared-error fit vs
    half the weight quadratic form times Trace(H^{-1} V).

    The data law: regressors and noise are independent unit-variance scaled
    uniforms obtained by bit-splitting the perturbed uniform, so the
    second-moment matrix is the identity and the excess risk of any theta
    is exactly |theta - theta*|^2.
    """
    t0 = time.perf_counter()
    k = cfg.n_sources
    n = cfg.n_ratio * cfg.m
    dim = cfg.dim_x + 1
    theta_star = np.array([1.0, 2.0, -1.0, 0.5, -0.25])[:dim]
    beta = np.full(k, 1.0 / k)
    scheme, sigma_w = _lognormal_scheme(cfg.m, cfg.sigma, k)
    target = analytic.excess_risk_mean(beta, sigma_w, dim, cfg.noise_sd**2)
    sqrt12 = math.sqrt(12.0)

    def one(r):
        rng = substream(seed, _LANES["erm_excess_risk"], r)
        world = realize_world(scheme, rng)
        # the weighted squared-error fit solves its normal equations,
        # sum_k beta_k X_k'X_k / n theta = sum_k beta_k X_k'y_k / n
        gram, moment = 0.0, 0.0
        for j in range(k):
            u = sample_uniform(world, j, n, rng)
            streams = sqrt12 * (split_uniform(u, cfg.dim_x + 1) - 0.5)
            x = np.column_stack([np.ones(n)] + [streams[i] for i in range(cfg.dim_x)])
            y = x @ theta_star + cfg.noise_sd * streams[cfg.dim_x]
            gram = gram + beta[j] * (x.T @ x) / n
            moment = moment + beta[j] * (x.T @ y) / n
        diff = np.linalg.solve(gram, moment) - theta_star
        # M = E[x x'] = I for this construction, so excess = |diff|^2
        return np.array([cfg.m * float(diff @ diff)])

    data = _replicate_map(one, cfg.replicates, threads, 1)
    mean = float(data.mean())
    se = float(data.std(ddof=1) / math.sqrt(cfg.replicates))
    rel_err = abs(mean - target) / target
    return CheckResult(
        name="erm_excess_risk",
        passed=bool(rel_err < cfg.rel_tol),
        runtime_s=time.perf_counter() - t0,
        definition=(
            "the Monte Carlo mean of m times the excess target risk of the "
            "weighted squared-error fit is within 10% relative of "
            "(1/2) beta' sigma_w beta * Trace(H^{-1} V)"
        ),
        target={"mean_excess": target},
        empirical={"mean_excess": mean, "relative_error": rel_err},
        mc_se={"mean_excess": se},
        details={"replicates": cfg.replicates, "m": cfg.m, "n": n, "dim": dim},
    )


def check_conditional_shift(
    cfg: ConditionalShiftConfig, seed: int, threads: int
) -> CheckResult:
    """Conditional-mean shifts scale with shift strength and inversely with
    the conditioning probability.

    Data law: (X, Y) from a bit-split of the perturbed uniform with X the
    first stream (uniform) and Y an independent scaled uniform, so the
    conditional variance of Y given any X-event is exactly y_sd^2 and dyadic
    event probabilities align with the bin grid.
    """
    t0 = time.perf_counter()
    n = cfg.n_ratio * cfg.m
    n0 = cfg.n0_ratio * cfg.m
    v_base = math.exp(cfg.sigma**2) - 1.0
    sigma_doubled = math.sqrt(math.log(2.0 * v_base + 1.0))
    subconfigs = [
        ("base", cfg.sigma, cfg.prob),
        ("half_prob", cfg.sigma, cfg.prob / 2.0),
        ("double_sigma", sigma_doubled, cfg.prob),
    ]
    sqrt_m = math.sqrt(cfg.m)
    sqrt12 = math.sqrt(12.0)
    empirical = {}
    targets = {}
    ses = {}
    resampled = {}

    for sub_idx, (label, sig, prob) in enumerate(subconfigs):
        scheme, sigma_w = _lognormal_scheme(cfg.m, sig, 1)

        def one(r, _scheme=scheme, _prob=prob, _sub=sub_idx):
            rng = substream(seed, _LANES["conditional_shift"], 10 * r + _sub)
            for attempt in range(20):
                world = realize_world(_scheme, rng)
                u_src = sample_uniform(world, 0, n, rng)
                xs, ys_raw = split_uniform(u_src, 2)
                u_tgt = rng.random(n0)
                xt, yt_raw = split_uniform(u_tgt, 2)
                in_src = xs < _prob
                in_tgt = xt < _prob
                if in_src.any() and in_tgt.any():
                    ys = cfg.y_sd * sqrt12 * (ys_raw[in_src] - 0.5)
                    yt = cfg.y_sd * sqrt12 * (yt_raw[in_tgt] - 0.5)
                    return np.array([sqrt_m * (ys.mean() - yt.mean()), float(attempt)])
            raise RuntimeError("conditioning event empty in 20 consecutive draws")

        out = _replicate_map(one, cfg.replicates, threads, 2)
        data = out[:, 0]
        centered = data - data.mean()
        empirical[label] = float(centered @ centered / (cfg.replicates - 1))
        ses[label] = float((centered**2).std(ddof=1) / math.sqrt(cfg.replicates))
        targets[label] = analytic.conditional_shift_var(
            sigma_w[0, 0], cfg.y_sd**2, prob, cfg.m, n, n0
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
        runtime_s=time.perf_counter() - t0,
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
    threads = _thread_cap(config.threads)
    results: list[CheckResult] = []
    requested = list(config.checks)

    if "clt_cov" in requested:
        results.append(check_clt_cov(config.clt_cov, config.seed, threads))
    if "kron_cov" in requested:
        results.append(check_kron_cov(config.kron_cov, config.seed, threads))
    if "t_null" in requested or "f_null" in requested:
        pair = check_null_laws(config.null_laws, config.seed, threads)
        results.extend(r for r in pair if r.name in requested)
    if "chi2_residual" in requested or "ci_coverage" in requested:
        pair = check_ci_chi2(config.ci_chi2, config.seed, threads)
        results.extend(r for r in pair if r.name in requested)
    if "erm_excess_risk" in requested:
        results.append(check_excess_risk(config.erm_excess_risk, config.seed, threads))
    if "conditional_shift" in requested:
        results.append(
            check_conditional_shift(config.conditional_shift, config.seed, threads)
        )
    order = {name: i for i, name in enumerate(ALL_CHECKS)}
    results.sort(key=lambda r: order[r.name])
    return HarnessReport(results=tuple(results), seed=config.seed, threads=threads)

