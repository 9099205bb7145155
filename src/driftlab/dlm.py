"""Dataset-weight estimation and exact t/F inference (the dlm).

The target dataset's test-function means are regressed on the source
datasets' means under a sum-to-one constraint on the weights. With (nearly)
uncorrelated unit-variance test functions, the moment deviations behave like
i.i.d. Gaussian rows, so the constrained least-squares fit admits the same
small-sample t and F laws as an ordinary linear model, with L - K + 1
degrees of freedom (L test functions, K source datasets).

Both fit modes rest on one solve: the least squares of the design
reparametrized with dataset K as reference, by ``np.linalg.lstsq``. Its rank
is the one rule for a degenerate fit. ``sum_to_one`` raises
CollinearDatasetsError below rank K - 1; ``simplex`` runs the solve on each
active support S and, below rank |S| - 1 on the last, returns the
minimum-norm optimum flagged non-unique. The closed form

    beta = (Phi' Phi)^{-1} 1 / (1' (Phi' Phi)^{-1} 1),

where Phi's columns are the source-minus-target mean deviations, is kept
deliberately as a cross-check. Both must agree to high accuracy on
well-conditioned problems, and the residual sum of squares satisfies
RSS = 1 / (1' (Phi' Phi)^{-1} 1).

``target_ci`` is the one interval formula, beta_hat . (source means) +-
z * sqrt(pooled variance) * sqrt(RSS / L); ``erm.erm_ci`` calls it too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc, ndtri, stdtr

from .moments import MomentMatrix

__all__ = [
    "DlmFit",
    "TargetCI",
    "fit_weights",
    "closed_form_weights",
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
    residuals: np.ndarray  # (L,)
    rss: float
    rss_uniform: float
    sigma2_hat: float
    df: int
    design: np.ndarray  # (L, K-1) reparametrized feature matrix
    moments: MomentMatrix  # the moments the weights were fitted on
    se: np.ndarray | None = None  # (K,)
    t_stats: np.ndarray | None = None
    p_values: np.ndarray | None = None
    f_stat: float | None = None
    f_pvalue: float | None = None
    r2: float = np.nan
    adj_r2: float = np.nan
    non_unique: bool = False
    notes: tuple[str, ...] = ()

    @property
    def n_sources(self) -> int:
        return self.beta_hat.size

    @property
    def n_functions(self) -> int:
        return self.moments.n_functions

    @property
    def shift_scale(self) -> float:
        """Mean squared residual: the plug-in estimate of the squared shift
        magnitude."""
        return self.rss / self.n_functions


@dataclass(frozen=True)
class TargetCI:
    """Confidence interval for a target-distribution mean functional."""

    estimate: float
    half_width: float
    level: float


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


def _collinear(phi: np.ndarray, names: tuple[str, ...]) -> CollinearDatasetsError:
    """The error for a rank-deficient Phi, naming the pairs of sources that
    are collinear."""
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
    return CollinearDatasetsError("dataset moment deviations are collinear: "
                                  + ("; ".join(pairs) if pairs else "rank-deficient design"))


def _sum_to_one(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize |Phi beta|^2 subject to sum(beta) = 1, the last column the reference.

    The free weights are the least squares of -Phi_K on the (L, K-1) design
    Phi_j - Phi_K. Returns the weights, the design and its rank; below K - 1
    the minimizer is not unique and lstsq gives the free weights of least norm.
    """
    design = phi[:, :-1] - phi[:, -1:]
    free, _, rank, _ = np.linalg.lstsq(design, -phi[:, -1], rcond=None)
    return np.append(free, 1.0 - free.sum()), design, int(rank)


def _simplex_weights(phi: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimize |Phi beta|^2 over the probability simplex; returns (beta, non_unique).

    Primal active set: on a support S the candidate is _sum_to_one(Phi_S); a
    variable is dropped when the line step toward it hits zero and added back
    when its KKT multiplier is violated. If the final support's design is rank
    deficient, the optimum is not unique: the least-norm b with Phi_S b =
    Phi beta and sum(b) = 1 is returned when it is nonnegative, and flagged.
    """
    k = phi.shape[1]
    # with a unit largest column (|Phi' Phi|.max() = 1) the tolerances below and
    # the rank cutoff on [Phi_S; 1'] do not depend on the units of the test functions
    norm = np.sqrt((phi * phi).sum(axis=0).max())
    phi = phi / norm if norm > 0.0 else phi
    beta = np.full(k, 1.0 / k)
    support = list(range(k))
    for _ in range(50 * k + 50):
        cand = np.zeros(k)
        cand[support], _, rank = _sum_to_one(phi[:, support])
        if cand[support].min() >= -1e-12:
            beta = np.clip(cand, 0.0, None)
            beta /= beta.sum()
            grad = 2.0 * phi.T @ (phi @ beta)
            lam = float(np.mean(grad[support]))
            outside = [i for i in range(k) if i not in support]
            if not outside:
                break
            worst, idx = min((grad[i] - lam, i) for i in outside)
            if worst >= -1e-10:
                break
            support.append(idx)
            support.sort()
        else:
            # step from the feasible beta toward cand until a coordinate hits 0
            step, drop = min((beta[i] / (beta[i] - cand[i]), i)
                             for i in support if cand[i] < beta[i])
            beta = np.clip(beta + step * (cand - beta), 0.0, None)
            beta[drop] = 0.0
            support.remove(drop)
            beta /= beta.sum()
    non_unique = rank < len(support) - 1
    if non_unique:
        face = np.vstack([phi[:, support], np.ones(len(support))])
        least, *_ = np.linalg.lstsq(face, np.append(phi @ beta, 1.0), rcond=None)
        if least.min() >= -1e-12:
            beta = np.zeros(k)
            beta[support] = np.clip(least, 0.0, None)
            beta /= beta.sum()
    return beta, non_unique


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
    beta, design, rank = _sum_to_one(phi)
    non_unique = False
    if mode == "simplex":
        beta, non_unique = _simplex_weights(phi)
        if non_unique:
            notes.append("simplex optimum non-unique; returned minimum-norm solution")
    elif rank < k - 1:
        raise _collinear(phi, moments.source_names)

    residuals = moments.phi_hat[0] - beta @ moments.phi_hat[1:]
    rss = float(residuals @ residuals)
    df = n_funcs - k + 1
    sigma2 = rss / df
    uniform = np.full(k, 1.0 / k)
    resid_unif = moments.phi_hat[0] - uniform @ moments.phi_hat[1:]
    rss_unif = float(resid_unif @ resid_unif)

    se = t_stats = p_values = None
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
                raise _collinear(phi, moments.source_names)
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
        residuals=residuals,
        rss=rss,
        rss_uniform=rss_unif,
        sigma2_hat=sigma2,
        df=df,
        design=design,
        moments=moments,
        se=se,
        t_stats=t_stats,
        p_values=p_values,
        f_stat=f_stat,
        f_pvalue=f_pvalue,
        r2=r2,
        adj_r2=adj_r2,
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
        raise _collinear(phi, moments.source_names)
    return x / (ones @ x)


def target_ci(
    fit: DlmFit, source_means: np.ndarray, pooled_var: float, level: float = 0.95
) -> TargetCI:
    """Confidence interval for the target-distribution mean of a function,
    from its mean on each source and its variance over the pooled source rows.

    Center is the weighted combination of the source means; the half-width
    is z * sqrt(pooled_var) * sqrt(fit.shift_scale), the mean squared
    residual serving as the plug-in estimate of the squared shift magnitude.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    source_means = np.asarray(source_means, dtype=float)
    if source_means.size != fit.n_sources:
        raise ValueError("need one mean per source dataset")
    z = ndtri(0.5 + level / 2.0)
    return TargetCI(
        estimate=float(fit.beta_hat @ source_means),
        half_width=float(z * np.sqrt(pooled_var) * np.sqrt(fit.shift_scale)),
        level=level,
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
    """Render the fit's text summary.

    A sum_to_one fit gets the linear-model style layout: Call, five-number
    residual summary, coefficient table with significance codes, residual
    standard error with degrees of freedom, R-squared pair, and the
    uniform-weights F-test line. A simplex fit, which carries no inference,
    gets its formula, one weight per source and the RSS line.
    """
    names = fit.moments.source_names
    formula = f"{fit.moments.target_name} ~ " + " + ".join(names)
    if fit.mode == "simplex":
        rows = "".join(f"  {name}: {w:.7f}\n" for name, w in zip(names, fit.beta_hat))
        return (f"Simplex weight fit: {formula}\n{rows}"
                f"RSS {fit.rss:.6g} on {fit.df} degrees of freedom\n")
    lines: list[str] = []
    call = (
        f"dlm(formula = {formula}, test.function = phi[{fit.n_functions}], "
        f"data = {data_label}, whitening = {'TRUE' if fit.moments.whitened else 'FALSE'})"
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
    name_w = max(len(n) for n in names)
    header = (
        " " * name_w
        + "   Estimate"
        + " Std. Error"
        + " t value"
        + " Pr(>|t|)"
        + "    "
    )
    lines.append(header)
    for i, name in enumerate(names):
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
        "source_names": list(fit.moments.source_names),
        "target_name": fit.moments.target_name,
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
        "reference": fit.n_sources - 1,
        "whitened": fit.moments.whitened,
        "max_offdiag_corr": fit.moments.max_offdiag_correlation(),
        "non_unique": fit.non_unique,
        "notes": list(fit.notes),
    }
