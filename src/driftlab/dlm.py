"""Dataset-weight estimation and exact t/F inference (the dlm).

The target dataset's test-function means are regressed on the source
datasets' means under a sum-to-one constraint on the weights. With (nearly)
uncorrelated unit-variance test functions, the moment deviations behave like
i.i.d. Gaussian rows, so the constrained least-squares fit admits the same
small-sample t and F laws as an ordinary linear model, with L - K + 1
degrees of freedom (L test functions, K source datasets).

Both fit modes rest on one solve: the least squares of the design
reparametrized with dataset K as reference, by one SVD with
``np.linalg.lstsq``'s rank rule (:func:`_sum_to_one`). Its rank is the one
rule for a degenerate fit. ``sum_to_one`` raises
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

The solve and its inference arithmetic (RSS, uniform-weights RSS, standard
errors, F) take a stack of problems (:func:`_fit_stack`): ``fit_weights``
runs it on one, and the Monte Carlo harness on blocks of replicates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._tails import f_sf, ndtri, t_two_sided
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


class WeightFitOverflowError(ValueError):
    """The weight fit left the float range: a deviation, a weight or a
    residual sum of squares is not finite."""


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


def _build_deviations(phi_hat: np.ndarray) -> np.ndarray:
    """Phi: the (..., L, K) source-minus-target mean deviations of a
    (..., K+1, L) stack of mean matrices, row 0 the target's."""
    return (phi_hat[..., 1:, :] - phi_hat[..., :1, :]).swapaxes(-1, -2)


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


def _check_finite(moments: MomentMatrix, *values) -> None:
    """Raise WeightFitOverflowError unless every entry of ``values`` is
    finite, naming the test function with the largest |deviation| and the
    dataset whose mean of it is largest in magnitude."""
    if all(np.isfinite(v).all() for v in values):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        worst = int(np.abs(_build_deviations(moments.phi_hat)).max(axis=1).argmax())
    means = moments.phi_hat[:, worst]
    row = int(np.abs(means).argmax())
    dataset = ((moments.target_name,) + moments.source_names)[row]
    raise WeightFitOverflowError(
        f"test function {moments.names[worst]!r} takes the weight fit beyond the "
        f"float range: its mean on dataset {dataset!r} is {means[row]:.6g}")


def _sum_to_one(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize |Phi beta|^2 subject to sum(beta) = 1 for every (L, K) matrix
    of a (..., L, K) stack, the last column the reference.

    The free weights are the least squares of -Phi_K on the (L, K-1) design
    Phi_j - Phi_K, solved by one batched SVD U S V' of the designs. A
    singular value counts toward the rank when it exceeds
    eps * max(L, K-1) * s_max, the rule of ``np.linalg.lstsq(rcond=None)``;
    below rank K - 1 the minimizer is not unique and, as from lstsq, the free
    weights are those of least norm. Returns the weights (..., K), the ranks
    (...,), the designs (..., L, K-1) and V S^+ (..., K-1, K-1), whose
    product with its transpose is the inverse Gram matrix of a full-rank
    design. The designs must be finite.
    """
    design = phi[..., :-1] - phi[..., -1:]
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    kept = s > np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    root = vt.swapaxes(-1, -2) * np.divide(1.0, s, out=np.zeros_like(s), where=kept)[..., None, :]
    free = -(root @ (u.swapaxes(-1, -2) @ phi[..., -1:]))[..., 0]
    beta = np.concatenate([free, 1.0 - free.sum(axis=-1, keepdims=True)], axis=-1)
    return beta, kept.sum(axis=-1), design, root


def _residuals(phi_hat: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target-minus-fitted means of a (..., K+1, L) stack under weights
    ``beta`` (..., K), and their sums of squares."""
    residuals = phi_hat[..., 0, :] - (beta[..., None, :] @ phi_hat[..., 1:, :])[..., 0, :]
    return residuals, np.einsum("...l,...l->...", residuals, residuals)


@dataclass(frozen=True)
class _Fits:
    """Sum-to-one weight fits of a stack of problems, one entry per problem."""

    beta: np.ndarray  # (..., K)
    rank: np.ndarray  # (...,) of the (L, K-1) design
    design: np.ndarray  # (..., L, K-1)
    residuals: np.ndarray  # (..., L)
    rss: np.ndarray
    rss_uniform: np.ndarray
    se: np.ndarray  # (..., K), the reference dataset's last
    f_stat: np.ndarray


def _fit_stack(phi_hat: np.ndarray) -> _Fits:
    """The sum-to-one weight fit, with its inference, of every (K+1, L) mean
    matrix (row 0 the target's) of a (..., K+1, L) stack: the one weight-fit
    core, which ``fit_weights`` runs on one matrix and the Monte Carlo
    harness on blocks of replicates.

    With sigma^2 = RSS / (L - K + 1), the free weights' standard errors are
    sigma times the row norms of V S^+, and the reference weight's, the
    contrast 1 - (sum of the others), sigma times the norm of their sum. The
    F statistic tests the uniform weights. With K = 1 the one weight is
    fixed at 1, and both are NaN. Entries beyond the float range come out as
    inf or NaN, without a warning.
    """
    n_funcs, k = phi_hat.shape[-1], phi_hat.shape[-2] - 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta, rank, design, root = _sum_to_one(_build_deviations(phi_hat))
        residuals, rss = _residuals(phi_hat, beta)
        rss_uniform = _residuals(phi_hat, np.full(k, 1.0 / k))[1]
        sigma2 = rss / (n_funcs - k + 1)
        root = np.concatenate([root, root.sum(axis=-2, keepdims=True)], axis=-2)
        se = np.sqrt(sigma2)[..., None] * np.linalg.norm(root, axis=-1)
        # the numerator is a quadratic form, nonnegative up to rounding
        f_stat = np.maximum(rss_uniform - rss, 0.0) / ((k - 1) * sigma2)
    # with no residual, F is 0 where the uniform weights fit as well, inf elsewhere
    f_stat = np.where(sigma2 > 0.0, f_stat, np.where(rss_uniform > 0.0, np.inf, 0.0))
    if k == 1:
        se, f_stat = np.full(beta.shape, np.nan), np.full(rss.shape, np.nan)
    return _Fits(beta, rank, design, residuals, rss, rss_uniform, se, f_stat)


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
        cand[support], rank = _sum_to_one(phi[:, support])[:2]
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
    return beta, bool(non_unique)


def fit_weights(moments: MomentMatrix, mode: str = "sum_to_one") -> DlmFit:
    """Estimate dataset weights by test-function moment matching.

    ``sum_to_one`` solves the reparametrized least squares (weights sum to
    one, any sign) and carries full t/F inference; ``simplex`` additionally
    constrains the weights to be nonnegative and carries no inference. A fit
    that leaves the float range raises WeightFitOverflowError.
    """
    if mode not in ("sum_to_one", "simplex"):
        raise ValueError(f"unknown mode {mode!r}")
    k = moments.n_sources
    n_funcs = moments.n_functions
    if n_funcs < k:
        raise DegreesOfFreedomError(
            f"need at least as many test functions as datasets (L={n_funcs} < K={k})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _build_deviations(moments.phi_hat)  # (L, K)
        # bounds every design entry Phi_j - Phi_K, so the SVD sees finite numbers
        _check_finite(moments, np.abs(phi).sum(axis=1))
    fits = _fit_stack(moments.phi_hat)
    beta, residuals, rss = fits.beta, fits.residuals, fits.rss
    non_unique = False
    if mode == "simplex":
        with np.errstate(over="ignore", invalid="ignore"):
            beta, non_unique = _simplex_weights(phi)
            residuals, rss = _residuals(moments.phi_hat, beta)
    _check_finite(moments, beta, rss, fits.rss_uniform)
    if mode == "sum_to_one" and fits.rank < k - 1:
        raise _collinear(phi, moments.source_names)

    notes = []
    if n_funcs == k:
        warnings.warn(
            "L == K leaves a single degree of freedom; inference will have "
            "very low power",
            stacklevel=2,
        )
        notes.append("df = 1 (L == K): low-power fit")
    if non_unique:
        notes.append("simplex optimum non-unique; returned minimum-norm solution")
    rss = float(rss)
    rss_unif = float(fits.rss_uniform)
    df = n_funcs - k + 1
    sigma2 = rss / df

    se = t_stats = p_values = None
    f_stat = f_pvalue = None
    r2 = adj_r2 = np.nan
    if mode == "sum_to_one":
        if rss_unif > 0.0:
            r2 = 1.0 - rss / rss_unif
            adj_r2 = 1.0 - (1.0 - r2) * n_funcs / df
        else:
            notes.append("uniform-weight RSS is zero; R^2 undefined")
        se = fits.se
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stats = beta / se
        p_values = t_two_sided(t_stats, df)
        if k > 1:
            f_stat = float(fits.f_stat)
            f_pvalue = float(f_sf(f_stat, k - 1, df))

    # the sum rounds by up to about K * eps * sum|beta|: no fixed bound fits weights of 1e7
    if not abs(beta.sum() - 1.0) <= 4 * k * np.finfo(float).eps * np.abs(beta).sum():
        raise RuntimeError(f"fit_weights: weights sum to {float(beta.sum())}, not 1")
    return DlmFit(
        beta_hat=beta,
        mode=mode,
        residuals=residuals,
        rss=rss,
        rss_uniform=rss_unif,
        sigma2_hat=sigma2,
        df=df,
        design=fits.design,
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
    phi = _build_deviations(moments.phi_hat)
    gram = phi.T @ phi
    ones = np.ones(gram.shape[0])
    try:
        x = np.linalg.solve(gram, ones)
    except np.linalg.LinAlgError:
        raise _collinear(phi, moments.source_names)
    return x / (ones @ x)


def _interval(beta: np.ndarray, rss: np.ndarray, n_functions: int, source_means: np.ndarray,
              pooled_var: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Center and half-width of ``target_ci``'s interval, for one fit or a
    stack: beta . (source means) and z * sqrt(pooled_var) * sqrt(RSS / L)."""
    z = ndtri(0.5 + level / 2.0)
    return (np.einsum("...k,...k->...", beta, source_means),
            z * np.sqrt(pooled_var) * np.sqrt(rss / n_functions))


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
    estimate, half_width = _interval(fit.beta_hat, fit.rss, fit.n_functions, source_means,
                                     pooled_var, level)
    return TargetCI(estimate=float(estimate), half_width=float(half_width), level=level)


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
