"""Dataset-weight estimation and exact t/F inference (the dlm).

The target dataset's test-function means are regressed on the source
datasets' means under a sum-to-one constraint on the weights. With (nearly)
uncorrelated unit-variance test functions, the moment deviations behave like
i.i.d. Gaussian rows, so the constrained least-squares fit admits the same
small-sample t and F laws as an ordinary linear model, with L - K + 1
degrees of freedom (L test functions, K source datasets).

Two equivalent solvers are kept deliberately: the reparametrized
least-squares path (dataset K as reference, solved by QR) used for fitting,
and the closed form

    beta = (Phi' Phi)^{-1} 1 / (1' (Phi' Phi)^{-1} 1),

where Phi's columns are the source-minus-target mean deviations, used for
cross-checking. Both must agree to high accuracy on well-conditioned
problems, and the residual sum of squares satisfies
RSS = 1 / (1' (Phi' Phi)^{-1} 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc, ndtri, stdtr

from .moments import MomentMatrix, ScalarMoments

__all__ = [
    "DlmFit",
    "ContrastSpec",
    "TargetCI",
    "InferenceReport",
    "fit_weights",
    "closed_form_weights",
    "minimize_quadratic_on_simplex",
    "infer",
    "r_squared",
    "target_ci",
    "summarize",
    "fit_to_dict",
]


class CollinearDatasetsError(np.linalg.LinAlgError):
    pass


class DegreesOfFreedomError(ValueError):
    pass


@dataclass(frozen=True)
class DlmFit:
    """Fitted dataset weights with residual and inference state.

    Standard errors live in the reparametrized coordinates (reference =
    last dataset); the reference dataset's own standard error is the
    implied contrast 1 - sum of the others. For simplex-mode fits the
    inference fields are None.
    """

    beta_hat: np.ndarray  # (K,)
    mode: str  # "sum_to_one" | "simplex"
    reference: int  # index of the reference dataset in the reparametrization
    residuals: np.ndarray  # (L,)
    rss: float
    rss_uniform: float
    sigma2_hat: float
    df: int
    design: np.ndarray  # (L, K-1) reparametrized feature matrix
    target_means: np.ndarray  # (L,) target-dataset test-function means
    source_names: tuple[str, ...]
    target_name: str
    n_functions: int
    whitened: bool
    max_offdiag_corr: float | None
    se: np.ndarray | None = None  # (K,)
    t_stats: np.ndarray | None = None
    p_values: np.ndarray | None = None
    f_stat: float | None = None
    f_pvalue: float | None = None
    r2: float = np.nan
    adj_r2: float = np.nan
    cov_beta: np.ndarray | None = None  # (K-1, K-1)
    non_unique: bool = False
    notes: tuple[str, ...] = ()

    @property
    def n_sources(self) -> int:
        return self.beta_hat.size

    @property
    def shift_scale(self) -> float:
        """Mean squared residual: the plug-in estimate of the squared shift
        magnitude."""
        return self.rss / self.n_functions


@dataclass(frozen=True)
class ContrastSpec:
    """p x (K-1) full-row-rank contrast matrix on the free weight coordinates."""

    q: np.ndarray
    q0: np.ndarray | None = None  # hypothesized contrast values (default 0)

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        object.__setattr__(self, "q", q)
        if np.linalg.matrix_rank(q) != q.shape[0]:
            raise ValueError("contrast matrix must have full row rank")
        if self.q0 is not None:
            q0 = np.asarray(self.q0, dtype=float).ravel()
            if q0.size != q.shape[0]:
                raise ValueError("q0 must have one entry per contrast row")
            object.__setattr__(self, "q0", q0)


@dataclass(frozen=True)
class TargetCI:
    """Confidence interval for a target-distribution mean functional."""

    phi0_name: str
    estimate: float
    half_width: float
    level: float
    variance_hat: float
    shift_scale: float  # mean squared residual of the fit

    @property
    def interval(self) -> tuple[float, float]:
        return (self.estimate - self.half_width, self.estimate + self.half_width)


@dataclass(frozen=True)
class InferenceReport:
    names: tuple[str, ...]
    estimates: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    df: int
    f_stat: float
    f_pvalue: float
    contrast_stat: float | None = None
    contrast_pvalue: float | None = None
    contrast_df: tuple[int, int] | None = None


def _f_sf(x: float, dfn: int, dfd: int) -> float:
    """Upper tail of F(dfn, dfd) at x, equal to ``scipy.stats.f.sf``.

    ``fdtrc`` is the function ``stats.f.sf`` evaluates inside the support;
    below it ``stats.f.sf`` returns 1 where ``fdtrc`` returns NaN.
    """
    return 1.0 if x <= 0.0 else float(fdtrc(dfn, dfd, x))


def _build_deviations(moments: MomentMatrix) -> np.ndarray:
    """Phi: (L, K) matrix of source-minus-target mean deviations."""
    phi0 = moments.phi_hat[0]
    return (moments.phi_hat[1:] - phi0[None, :]).T


def _name_collinear(phi: np.ndarray, names: tuple[str, ...]) -> str:
    k = phi.shape[1]
    centered = phi - phi.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    norms[norms == 0] = 1.0
    corr = (centered / norms).T @ (centered / norms)
    pairs = [
        f"{names[i]!r} ~ {names[j]!r}"
        for i in range(k)
        for j in range(i + 1, k)
        if abs(corr[i, j]) > 1.0 - 1e-8
    ]
    return "; ".join(pairs) if pairs else "rank-deficient design"


def minimize_quadratic_on_simplex(
    g: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, bool]:
    """Minimize beta' G beta over the probability simplex (G PSD).

    Primal active-set method: on a support S the equality-constrained
    minimizer is G_S^{-1} 1 normalized to sum one; variables are dropped
    when a line step hits zero and added back when their KKT multiplier is
    violated. Returns (beta, non_unique); when the restricted system is
    singular the minimum-norm solution on the optimal face is returned and
    flagged.
    """
    g = np.asarray(g, dtype=float)
    k = g.shape[0]
    if g.shape != (k, k):
        raise ValueError("G must be square")
    if k == 1:
        return np.array([1.0]), False
    scale = max(float(np.abs(g).max()), 1.0)
    beta = np.full(k, 1.0 / k)
    support = list(range(k))
    non_unique = False

    def restricted_solution(idx):
        nonlocal non_unique
        sub = g[np.ix_(idx, idx)]
        ones = np.ones(len(idx))
        if np.abs(sub).max() <= tol * scale:
            non_unique = True
            return ones / len(idx)
        vals = np.linalg.eigvalsh(sub)
        if vals.min() <= 1e-12 * max(vals.max(), tol * scale):
            non_unique = True
            x, *_ = np.linalg.lstsq(sub, ones, rcond=None)
            if abs(x.sum()) < 1e-14:
                return ones / len(idx)
        else:
            x = np.linalg.solve(sub, ones)
        return x / x.sum()

    for _ in range(50 * k + 50):
        cand = np.zeros(k)
        cand[support] = restricted_solution(support)
        if cand[support].min() >= -1e-12:
            beta = np.clip(cand, 0.0, None)
            beta /= beta.sum()
            grad = 2.0 * g @ beta
            lam = float(np.mean(grad[support]))
            outside = [i for i in range(k) if i not in support]
            if not outside:
                break
            viol = [(grad[i] - lam, i) for i in outside]
            worst, idx = min(viol)
            if worst >= -1e-10 * scale:
                break
            support.append(idx)
            support.sort()
        else:
            # step from the current feasible point until a coordinate hits 0
            step = 1.0
            drop = None
            for i in support:
                if cand[i] < beta[i]:
                    alpha = beta[i] / (beta[i] - cand[i])
                    if alpha < step:
                        step = alpha
                        drop = i
            beta = beta + step * (cand - beta)
            beta = np.clip(beta, 0.0, None)
            if drop is not None:
                beta[drop] = 0.0
                support.remove(drop)
            beta /= beta.sum()
    if non_unique:
        beta = _min_norm_on_face(g, beta, tol)
    return beta, non_unique


def _min_norm_on_face(g, beta, tol):
    """Project to the minimum-norm point of the optimal face, if feasible."""
    support = np.where(beta > 0)[0]
    sub = g[np.ix_(support, support)]
    vals, vecs = np.linalg.eigh(sub)
    null = vecs[:, vals <= tol * max(vals.max(), 1.0)]
    if null.size == 0:
        return beta
    ones = np.ones(len(support))
    # directions in null(G_S) that keep the sum-to-one constraint
    proj = null - np.outer(ones, ones @ null) / len(support)
    qmat, _ = np.linalg.qr(proj)
    keep = [j for j in range(qmat.shape[1]) if np.linalg.norm(proj[:, j]) > 1e-12]
    if not keep:
        return beta
    basis, _ = np.linalg.qr(proj[:, keep])
    delta = -basis @ (basis.T @ beta[support])
    cand = beta[support] + delta
    if cand.min() < -1e-12:
        return beta
    out = np.zeros_like(beta)
    out[support] = np.clip(cand, 0.0, None)
    out /= out.sum()
    return out


def fit_weights(moments: MomentMatrix, mode: str = "sum_to_one") -> DlmFit:
    """Estimate dataset weights by test-function moment matching.

    ``sum_to_one`` solves the reparametrized least squares (weights sum to
    one, any sign) and carries full t/F inference; ``simplex`` additionally
    constrains the weights to be nonnegative and carries no inference.
    """
    if mode not in ("sum_to_one", "simplex"):
        raise ValueError(f"unknown mode {mode!r}")
    k = moments.n_sources
    n_funcs = moments.n_functions
    if n_funcs < k:
        raise DegreesOfFreedomError(
            f"need at least as many test functions as datasets (L={n_funcs} < K={k})"
        )
    notes = []
    if n_funcs == k:
        warnings.warn(
            "L == K leaves a single degree of freedom; inference will have "
            "very low power",
            stacklevel=2,
        )
        notes.append("df = 1 (L == K): low-power fit")

    phi = _build_deviations(moments)  # (L, K)
    design = phi[:, : k - 1] - phi[:, [k - 1]] if k > 1 else np.zeros((n_funcs, 0))
    target_vec = -phi[:, k - 1] if k > 1 else np.zeros(n_funcs)

    non_unique = False
    if k == 1:
        beta = np.array([1.0])
    elif mode == "sum_to_one":
        sol, _, rank, _ = np.linalg.lstsq(design, target_vec, rcond=None)
        if rank < k - 1:
            raise CollinearDatasetsError(
                "dataset moment deviations are collinear: "
                + _name_collinear(phi, moments.source_names)
            )
        beta = np.append(sol, 1.0 - sol.sum())
    else:
        beta, non_unique = minimize_quadratic_on_simplex(phi.T @ phi)
        if non_unique:
            notes.append("simplex optimum non-unique; returned minimum-norm solution")

    residuals = moments.phi_hat[0] - beta @ moments.phi_hat[1:]
    rss = float(residuals @ residuals)
    df = n_funcs - k + 1
    sigma2 = rss / df
    uniform = np.full(k, 1.0 / k)
    resid_unif = moments.phi_hat[0] - uniform @ moments.phi_hat[1:]
    rss_unif = float(resid_unif @ resid_unif)

    se = t_stats = p_values = cov_beta = None
    f_stat = f_pvalue = None
    r2 = adj_r2 = np.nan
    if mode == "sum_to_one":
        if rss_unif > 0.0:
            r2 = 1.0 - rss / rss_unif
            adj_r2 = 1.0 - (1.0 - r2) * n_funcs / df
        else:
            notes.append("uniform-weight RSS is zero; R^2 undefined")
        if k > 1:
            gram = design.T @ design
            try:
                cov_beta = np.linalg.inv(gram) * sigma2
            except np.linalg.LinAlgError:
                raise CollinearDatasetsError(
                    "dataset moment deviations are collinear: "
                    + _name_collinear(phi, moments.source_names)
                )
            se_free = np.sqrt(np.diag(cov_beta))
            se_ref = float(np.sqrt(np.ones(k - 1) @ cov_beta @ np.ones(k - 1)))
            se = np.append(se_free, se_ref)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_stats = beta / se
            p_values = 2.0 * stdtr(df, -np.abs(t_stats))
            if sigma2 > 0.0:
                # the numerator is a quadratic form, nonnegative up to rounding
                f_stat = max(rss_unif - rss, 0.0) / ((k - 1) * sigma2)
                f_pvalue = _f_sf(f_stat, k - 1, df)
            else:
                f_stat = 0.0 if rss_unif <= 0.0 else np.inf
                f_pvalue = 1.0 if rss_unif <= 0.0 else 0.0
        else:
            se = np.array([np.nan])
            t_stats = np.array([np.nan])
            p_values = np.array([np.nan])

    if not abs(beta.sum() - 1.0) < 1e-12:
        raise RuntimeError(f"fit_weights: weights sum to {beta.sum()!r}, not 1")
    return DlmFit(
        beta_hat=beta,
        mode=mode,
        reference=k - 1,
        residuals=residuals,
        rss=rss,
        rss_uniform=rss_unif,
        sigma2_hat=sigma2,
        df=df,
        design=design,
        target_means=moments.phi_hat[0].copy(),
        source_names=moments.source_names,
        target_name=moments.target_name,
        n_functions=n_funcs,
        whitened=moments.whitened,
        max_offdiag_corr=moments.max_offdiag_correlation(),
        se=se,
        t_stats=t_stats,
        p_values=p_values,
        f_stat=f_stat,
        f_pvalue=f_pvalue,
        r2=r2,
        adj_r2=adj_r2,
        cov_beta=cov_beta,
        non_unique=non_unique,
        notes=tuple(notes),
    )


def closed_form_weights(moments: MomentMatrix) -> np.ndarray:
    """Sum-to-one weights via the normal-equations closed form."""
    phi = _build_deviations(moments)
    gram = phi.T @ phi
    ones = np.ones(gram.shape[0])
    try:
        x = np.linalg.solve(gram, ones)
    except np.linalg.LinAlgError:
        raise CollinearDatasetsError(
            "dataset moment deviations are collinear: "
            + _name_collinear(phi, moments.source_names)
        )
    return x / (ones @ x)


def infer(fit: DlmFit, contrast: ContrastSpec | None = None) -> InferenceReport:
    """Per-coordinate t-tests, the uniform-weights F-test, and contrasts.

    The per-coordinate null is "this dataset deserves weight zero"; the
    F-test null is "all datasets are equally informative" (uniform weights).
    A general contrast Q on the K-1 free coordinates is referred to
    F(p, L-K+1) through the same covariance estimate.
    """
    if fit.mode != "sum_to_one":
        raise ValueError("inference is only available for sum_to_one fits")
    if fit.df < 1:
        raise DegreesOfFreedomError("no residual degrees of freedom")
    if fit.n_sources < 2:
        raise ValueError("inference needs at least two datasets")
    c_stat = c_p = None
    c_df = None
    if contrast is not None:
        q = contrast.q
        if q.shape[1] != fit.n_sources - 1:
            raise ValueError("contrast width must be K-1")
        q0 = contrast.q0 if contrast.q0 is not None else np.zeros(q.shape[0])
        diff = q @ fit.beta_hat[:-1] - q0
        qcq = q @ fit.cov_beta @ q.T
        p = q.shape[0]
        c_stat = float(diff @ np.linalg.solve(qcq, diff) / p)
        c_p = _f_sf(c_stat, p, fit.df)
        c_df = (p, fit.df)
    return InferenceReport(
        names=fit.source_names,
        estimates=fit.beta_hat.copy(),
        se=fit.se.copy(),
        t_stats=fit.t_stats.copy(),
        p_values=fit.p_values.copy(),
        df=fit.df,
        f_stat=fit.f_stat,
        f_pvalue=fit.f_pvalue,
        contrast_stat=c_stat,
        contrast_pvalue=c_p,
        contrast_df=c_df,
    )


def r_squared(fit: DlmFit, moments: MomentMatrix) -> tuple[float, float]:
    """R^2 of the fitted weights against the uniform-weights baseline.

    R^2 = 1 - RSS(beta_hat) / RSS(uniform); the adjusted version rescales
    by L / (L - K + 1). A zero uniform RSS makes both undefined (NaN).
    RSS(uniform) is the one ``fit_weights`` stored on the fit, computed from
    the moments it was fitted on; ``moments`` itself is not read.
    """
    rss_unif = fit.rss_uniform
    if rss_unif == 0.0:
        warnings.warn(
            "uniform-weight RSS is zero (uniform weights already interpolate); "
            "R^2 is undefined",
            stacklevel=2,
        )
        return float("nan"), float("nan")
    r2 = 1.0 - fit.rss / rss_unif
    adj = 1.0 - (1.0 - r2) * fit.n_functions / fit.df
    return r2, adj


def target_ci(
    fit: DlmFit,
    moments: MomentMatrix,
    phi0: str | ScalarMoments,
    level: float = 0.95,
) -> TargetCI:
    """Confidence interval for the target-distribution mean of phi0.

    Center is the weighted combination of the source means; the half-width
    is z * sqrt(pooled variance of phi0) * sqrt(mean squared residual of
    the fit), the residual scale serving as the plug-in estimate of the
    squared shift magnitude.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if isinstance(phi0, str):
        if phi0 not in moments.names:
            raise KeyError(f"{phi0!r} is not a declared test function")
        if moments.pooled_var is None:
            raise ValueError("moments carry no pooled covariance")
        idx = moments.names.index(phi0)
        source_means = moments.phi_hat[1:, idx]
        var_hat = float(moments.pooled_var[idx, idx])
        name = phi0
    else:
        source_means = np.asarray(phi0.source_means, dtype=float)
        var_hat = float(phi0.pooled_var)
        name = phi0.name
    if source_means.size != fit.n_sources:
        raise ValueError("phi0 needs one mean per source dataset")
    estimate = float(fit.beta_hat @ source_means)
    z = ndtri(0.5 + level / 2.0)
    half = float(z * np.sqrt(var_hat) * np.sqrt(fit.shift_scale))
    return TargetCI(
        phi0_name=name,
        estimate=estimate,
        half_width=half,
        level=level,
        variance_hat=var_hat,
        shift_scale=fit.shift_scale,
    )


# ---------------------------------------------------------------------------
# Text summary
# ---------------------------------------------------------------------------


def signif_code(p: float) -> str:
    if np.isnan(p):
        return " "
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    if p <= 0.1:
        return "."
    return " "


def format_pvalue(p: float, f_line: bool = False) -> str:
    if np.isnan(p):
        return "NA"
    if f_line:
        return "< 2.2e-16" if p < 2.2e-16 else _p_digits(p)
    return "< 2e-16" if p < 2e-16 else _p_digits(p)


def _p_digits(p: float) -> str:
    return f"{p:.4f}" if p >= 1e-4 else f"{p:.2e}"


def _fmt(x: float, spec: str) -> str:
    return "NA" if np.isnan(x) else format(x, spec)


def summarize(fit: DlmFit, data_label: str = "data") -> str:
    """Render the linear-model style text summary.

    Layout: Call, five-number residual summary, coefficient table with
    significance codes, residual standard error with degrees of freedom,
    R-squared pair, and the uniform-weights F-test line.
    """
    if fit.mode != "sum_to_one":
        raise ValueError("summaries require a sum_to_one fit with inference")
    lines: list[str] = []
    formula = f"{fit.target_name} ~ " + " + ".join(fit.source_names)
    call = (
        f"dlm(formula = {formula}, test.function = phi[{fit.n_functions}], "
        f"data = {data_label}, whitening = {'TRUE' if fit.whitened else 'FALSE'})"
    )
    lines.append("Call:")
    lines.extend(_wrap_call(call, 72))
    lines.append("")
    lines.append("Residuals:")
    q = np.percentile(fit.residuals, [0, 25, 50, 75, 100])
    head = ["Min", "1Q", "Median", "3Q", "Max"]
    cells = [f"{v:.5f}" for v in q]
    width = max(max(len(h), len(c)) for h, c in zip(head, cells)) + 1
    lines.append("".join(h.rjust(width) for h in head))
    lines.append("".join(c.rjust(width) for c in cells))
    lines.append("")
    lines.append("Coefficients:")
    name_w = max(len(n) for n in fit.source_names)
    header = (
        " " * name_w
        + "   Estimate"
        + " Std. Error"
        + " t value"
        + " Pr(>|t|)"
        + "    "
    )
    lines.append(header)
    for i, name in enumerate(fit.source_names):
        est = _fmt(fit.beta_hat[i], ".7f").rjust(11)
        se = _fmt(fit.se[i], ".7f").rjust(11)
        t = _fmt(fit.t_stats[i], ".3f").rjust(8)
        p = format_pvalue(fit.p_values[i]).rjust(9)
        code = signif_code(fit.p_values[i])
        lines.append(f"{name.ljust(name_w)}{est}{se}{t}{p} {code}")
    lines.append("---")
    lines.append(
        "Signif. codes:  0 ‘***’ 0.001 ‘**’ 0.01 ‘*’ "
        "0.05 ‘.’ 0.1 ‘ ’ 1"
    )
    lines.append("")
    rse = np.sqrt(fit.sigma2_hat)
    lines.append(
        f"Residual standard error: {rse:.4g} on {fit.df} degrees of freedom"
    )
    lines.append(
        f"Multiple R-squared:  {_fmt(fit.r2, '.4f')},\t"
        f"Adjusted R-squared:  {_fmt(fit.adj_r2, '.4f')}"
    )
    if fit.f_stat is not None:
        lines.append(
            f"F-statistic: {fit.f_stat:.4g} on {fit.n_sources - 1} and {fit.df} DF,"
            f"  p-value: {format_pvalue(fit.f_pvalue, f_line=True)}"
        )
    return "\n".join(lines) + "\n"


def _wrap_call(call: str, width: int) -> list[str]:
    if len(call) <= width:
        return [call]
    out = []
    line = ""
    for piece in call.split(", "):
        candidate = piece if not line else line + ", " + piece
        if len(candidate) > width and line:
            out.append(line + ",")
            line = "    " + piece
        else:
            line = candidate
    out.append(line)
    return out


def fit_to_dict(fit: DlmFit) -> dict:
    """JSON-ready twin of the text summary (full numeric precision)."""
    return {
        "mode": fit.mode,
        "source_names": list(fit.source_names),
        "target_name": fit.target_name,
        "beta_hat": fit.beta_hat.tolist(),
        "se": None if fit.se is None else fit.se.tolist(),
        "t_stats": None if fit.t_stats is None else fit.t_stats.tolist(),
        "p_values": None if fit.p_values is None else fit.p_values.tolist(),
        "sigma2_hat": fit.sigma2_hat,
        "df": fit.df,
        "rss": fit.rss,
        "rss_uniform": fit.rss_uniform,
        "r_squared": fit.r2,
        "adj_r_squared": fit.adj_r2,
        "f_stat": fit.f_stat,
        "f_pvalue": fit.f_pvalue,
        "residuals": fit.residuals.tolist(),
        "n_functions": fit.n_functions,
        "reference": fit.reference,
        "whitened": fit.whitened,
        "max_offdiag_corr": fit.max_offdiag_corr,
        "non_unique": fit.non_unique,
        "notes": list(fit.notes),
    }
