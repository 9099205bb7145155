"""Model-fit diagnostics as tidy (plot_id, x, y, label) rows.

Each diagnostic is a pure function of a weight fit or a moment matrix that
returns plain point data (no plotting) for any front-end to render:

- ``residual_vs_fitted``: a test function's fitted value (the weighted
  source mean) and its residual;
- ``qq_normal``: the normal quantile at (i - 0.5) / L and the i-th smallest
  residual standardized by the residual standard error;
- ``moment_scatter``: for the ordered source pair labelled ``a|b``, the mean
  gaps of source a and of source b to the target, one point per function;
- ``moment_scatter_slope``: that scatter's regression slope of b on a, which
  estimates sigma_w[a, b] / sigma_w[a, a], and its R^2;
- ``shift_stat``: the standardized source-minus-target gap labelled
  ``source|function``, and 0.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from ._tails import ndtri
from .dlm import DlmFit
from .moments import MomentMatrix

__all__ = ["residual_rows", "scatter_rows", "shift_rows", "diagnostic_rows"]

Row = tuple[str, float, float, str]


def residual_rows(fit: DlmFit) -> list[Row]:
    """Residual-vs-fitted points, then the normal QQ points of the residuals.

    At a zero residual variance the standardized residuals are undefined and
    there are no QQ rows.
    """
    # fitted value per function: weighted source mean = target mean - residual
    fitted = fit.moments.phi_hat[0] - fit.residuals
    rows = [("residual_vs_fitted", float(x), float(y), "")
            for x, y in zip(fitted, fit.residuals)]
    if fit.sigma2_hat > 0.0:
        n_funcs = fit.residuals.size
        theo = ndtri((np.arange(1, n_funcs + 1) - 0.5) / n_funcs)
        std = np.sort(fit.residuals / np.sqrt(fit.sigma2_hat))
        rows += [("qq_normal", float(x), float(y), "") for x, y in zip(theo, std)]
    return rows


def scatter_rows(moments: MomentMatrix) -> list[Row]:
    """Centered moment scatter for every ordered source pair, each pair's
    points followed by its slope and R^2; none unless K >= 2 and L >= 10,
    below which a scatter shows too little.
    """
    if moments.n_sources < 2 or moments.n_functions < 10:
        return []
    dev = moments.phi_hat[1:] - moments.phi_hat[0]  # (K, L)
    names = moments.source_names
    rows: list[Row] = []
    for i, j in itertools.permutations(range(moments.n_sources), 2):
        x, y = dev[i], dev[j]
        xc = x - x.mean()
        yc = y - y.mean()
        sxx = float(xc @ xc)
        syy = float(yc @ yc)
        slope = float(xc @ yc / sxx) if sxx > 0 else float("nan")
        r2 = float((xc @ yc) ** 2 / (sxx * syy)) if sxx > 0 and syy > 0 else float("nan")
        label = f"{names[i]}|{names[j]}"
        rows += [("moment_scatter", float(a), float(b), label) for a, b in zip(x, y)]
        rows.append(("moment_scatter_slope", slope, r2, label))
    return rows


def shift_rows(moments: MomentMatrix) -> list[Row]:
    """Two-sample standardized statistics of each source against the target.

    For each function: (1/n_k + 1/n_0)^{-1/2} times the source-minus-target
    mean gap over the pooled standard deviation. Functions with zero pooled
    standard deviation are skipped with a warning. Under the dense-shift
    model these follow a common-inflation normal across functions.
    """
    sd = np.sqrt(np.diag(moments.pooled_var))
    keep = sd != 0.0
    skipped = [name for name, kept in zip(moments.names, keep) if not kept]
    if skipped:
        warnings.warn(
            f"skipped {len(skipped)} test function(s) with zero pooled "
            f"standard deviation: {skipped[:5]}",
            stacklevel=2,
        )
    names = [name for name, kept in zip(moments.names, keep) if kept]
    n_0 = moments.sizes[0]
    rows: list[Row] = []
    for source, n_k, phi in zip(moments.source_names, moments.sizes[1:], moments.phi_hat[1:]):
        prefactor = (1.0 / n_k + 1.0 / n_0) ** -0.5
        stats = prefactor * (phi[keep] - moments.phi_hat[0, keep]) / sd[keep]
        rows += [("shift_stat", float(s), 0.0, f"{source}|{name}")
                 for name, s in zip(names, stats)]
    return rows


def diagnostic_rows(fit: DlmFit) -> list[Row]:
    """Every diagnostic of ``fit`` and the moments it was fitted on, in order."""
    return residual_rows(fit) + scatter_rows(fit.moments) + shift_rows(fit.moments)
