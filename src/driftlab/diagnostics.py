"""Model-fit diagnostics: residual and QQ data, moment scatter, shift stats.

Everything here is a pure function of a fit and/or a moment matrix and emits
plain point data (no plotting): each figure is a list of (x, y) pairs plus a
few summary numbers, and the whole bundle flattens to a tidy table with
columns (plot_id, x, y, label) for any front-end to render.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .dlm import DlmFit
from .moments import MomentMatrix

__all__ = [
    "DiagnosticBundle",
    "ScatterBlock",
    "residual_qq",
    "pairwise_scatter",
    "standardized_shift_stats",
    "bundle_rows",
]


@dataclass(frozen=True)
class ScatterBlock:
    """Centered moment pairs for one ordered dataset pair.

    The regression slope of the second coordinate on the first estimates the
    ratio of distributional covariances sigma_w[k, k'] / sigma_w[k, k].
    """

    pair: tuple[str, str]
    points: np.ndarray  # (L, 2)
    slope: float
    r2: float


@dataclass(frozen=True)
class DiagnosticBundle:
    residual_points: np.ndarray | None = None  # (L, 2): fitted value, residual
    residual_mean: float | None = None
    qq_points: np.ndarray | None = None  # (L, 2): theoretical, ordered standardized
    qq_defined: bool = True
    scatter_blocks: tuple[ScatterBlock, ...] = ()
    shift_stats: dict = field(default_factory=dict)  # name -> stat, per dataset


def residual_qq(fit: DlmFit) -> DiagnosticBundle:
    """Residual-vs-fitted points and the normal QQ data of a weight fit.

    Residuals are standardized by the residual standard error; QQ positions
    are the normal quantiles at (i - 0.5) / L. The residual mean is reported
    rather than assumed zero because the fit is constrained. With a zero
    residual variance the QQ data is undefined and flagged.
    """
    # fitted value per function: weighted source mean = target mean - residual
    fitted_vals = fit.target_means - fit.residuals
    resid_pts = np.column_stack([fitted_vals, fit.residuals])
    if fit.sigma2_hat <= 0.0:
        return DiagnosticBundle(
            residual_points=resid_pts,
            residual_mean=float(fit.residuals.mean()),
            qq_points=None,
            qq_defined=False,
        )
    std = fit.residuals / np.sqrt(fit.sigma2_hat)
    n_funcs = std.size
    theo = ndtri((np.arange(1, n_funcs + 1) - 0.5) / n_funcs)
    qq = np.column_stack([theo, np.sort(std)])
    return DiagnosticBundle(
        residual_points=resid_pts,
        residual_mean=float(fit.residuals.mean()),
        qq_points=qq,
        qq_defined=True,
    )


def pairwise_scatter(moments: MomentMatrix) -> tuple[ScatterBlock, ...]:
    """Centered moment scatter for every ordered source pair.

    Point l for pair (k, k') is (mean_k - mean_target, mean_k' - mean_target)
    of function l; a simple regression per pair gives the slope and R^2.
    """
    if moments.n_sources < 2:
        raise ValueError("need at least two source datasets")
    if moments.n_functions < 10:
        raise ValueError("need at least 10 test functions for a meaningful scatter")
    dev = moments.phi_hat[1:] - moments.phi_hat[0][None, :]  # (K, L)
    blocks = []
    names = moments.source_names
    for i in range(moments.n_sources):
        for j in range(moments.n_sources):
            if i == j:
                continue
            x, y = dev[i], dev[j]
            xc = x - x.mean()
            yc = y - y.mean()
            sxx = float(xc @ xc)
            slope = float(xc @ yc / sxx) if sxx > 0 else float("nan")
            syy = float(yc @ yc)
            r2 = float((xc @ yc) ** 2 / (sxx * syy)) if sxx > 0 and syy > 0 else float("nan")
            blocks.append(
                ScatterBlock(
                    pair=(names[i], names[j]),
                    points=np.column_stack([x, y]),
                    slope=slope,
                    r2=r2,
                )
            )
    return tuple(blocks)


def standardized_shift_stats(mm: MomentMatrix, k: int) -> dict:
    """Two-sample standardized statistics between source k and the target.

    For each function: (1/n_k + 1/n_0)^{-1/2} times the source-minus-target
    mean gap over the pooled standard deviation. Functions with zero pooled
    standard deviation are skipped with a warning. Under the dense-shift
    model these follow a common-inflation normal across functions.
    """
    if not 0 <= k < mm.n_sources:
        raise IndexError(f"source index {k} out of range")
    n_0, n_k = mm.sizes[0], mm.sizes[1 + k]
    prefactor = (1.0 / n_k + 1.0 / n_0) ** -0.5
    out = {}
    skipped = []
    for idx, name in enumerate(mm.names):
        sd = np.sqrt(mm.pooled_var[idx, idx])
        if sd == 0.0:
            skipped.append(name)
            continue
        gap = mm.phi_hat[1 + k, idx] - mm.phi_hat[0, idx]
        out[name] = float(prefactor * gap / sd)
    if skipped:
        warnings.warn(
            f"skipped {len(skipped)} test function(s) with zero pooled "
            f"standard deviation: {skipped[:5]}",
            stacklevel=2,
        )
    return out


def bundle_rows(bundle: DiagnosticBundle) -> list[tuple]:
    """Flatten a bundle into tidy (plot_id, x, y, label) rows."""
    rows: list[tuple] = []
    if bundle.residual_points is not None:
        for x, y in bundle.residual_points:
            rows.append(("residual_vs_fitted", float(x), float(y), ""))
    if bundle.qq_points is not None:
        for x, y in bundle.qq_points:
            rows.append(("qq_normal", float(x), float(y), ""))
    for block in bundle.scatter_blocks:
        label = f"{block.pair[0]}|{block.pair[1]}"
        for x, y in block.points:
            rows.append(("moment_scatter", float(x), float(y), label))
        rows.append(("moment_scatter_slope", block.slope, block.r2, label))
    for name, stat in bundle.shift_stats.items():
        rows.append(("shift_stat", float(stat), 0.0, name))
    return rows

