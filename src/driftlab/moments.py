"""Empirical moments of test functions and the whitening transform.

All variances use the population convention (divide by n): the pooled
covariance over the K source datasets is exactly the empirical covariance
of the concatenated source rows.

Whitening is a moment-level transform: ``fit_whitening`` returns the L x L
matrix T = pooled_cov^(-1/2), and ``whiten_moments`` applies a T to a
``MomentMatrix`` without a second pass over the data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tables import DatasetCollection

if TYPE_CHECKING:
    from .testfuncs import TestFunctionSet

__all__ = [
    "MomentMatrix",
    "evaluate_moments",
    "fit_whitening",
    "whiten_moments",
    "pooled_moments",
    "inverse_sqrt",
]

logger = logging.getLogger("driftlab.moments")


@dataclass(frozen=True)
class MomentMatrix:
    """Per-dataset means of the test functions plus pooled covariance.

    ``phi_hat`` has shape (K+1, L) with row 0 the target dataset and rows
    1..K the sources. ``pooled_var`` is the L x L pooled covariance over the
    concatenated source rows; it is optional because some consumers (weight
    fitting) never need it.
    """

    phi_hat: np.ndarray
    names: tuple[str, ...]
    sizes: tuple[int, ...]  # (n_0, n_1, ..., n_K)
    source_names: tuple[str, ...]
    target_name: str
    pooled_var: np.ndarray | None = None
    whitened: bool = False

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi_hat)):
            raise ValueError("phi_hat entries must be finite")
        if self.phi_hat.ndim != 2 or self.phi_hat.shape[1] != len(self.names):
            raise ValueError("phi_hat width must match number of functions")
        if not 1 < len(self.phi_hat) == len(self.sizes) == len(self.source_names) + 1:
            raise ValueError("phi_hat must have one row per size: the target's, then "
                             "each source's, of at least one")
        if self.pooled_var is not None and self.pooled_var.shape != (len(self.names),) * 2:
            raise ValueError("pooled_var must be L x L")
        # a repeated name would make two rows of every per-name output alike
        for kind, names, note in (("test function", self.names, ""),
                                  ("source", self.source_names,
                                   "; sources are named by their file stem")):
            if len(set(names)) < len(names):
                repeat = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValueError(f"{kind} names must be distinct, but {repeat!r} repeats{note}")

    @property
    def n_sources(self) -> int:
        return self.phi_hat.shape[0] - 1

    @property
    def n_functions(self) -> int:
        return self.phi_hat.shape[1]

    def max_offdiag_correlation(self) -> float | None:
        """Whiteness diagnostic: largest |off-diagonal pooled correlation|."""
        if self.pooled_var is None or self.n_functions < 2:
            return None
        d = np.sqrt(np.diag(self.pooled_var))
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = self.pooled_var / np.outer(d, d)
        off = corr[~np.eye(self.n_functions, dtype=bool)]
        off = off[np.isfinite(off)]
        return float(np.max(np.abs(off))) if off.size else 0.0


def pooled_moments(arrays):
    """Mean and population covariance of the rows of several arrays pooled.

    Each array is (n_k,) or (n_k, L), all of one shape kind; the result is
    the mean and covariance of their concatenation, accumulated one array at
    a time without concatenating. (n_k,) arrays give a float mean and
    variance, (n_k, L) arrays an (L,) mean and an (L, L) covariance, made
    symmetric with its diagonal clamped at zero.

    The sums are taken about the first row, so a mean that is large against
    the spread does not cancel the variance away. Sums beyond the float range
    give inf or nan entries, without a warning; the caller names them.
    """
    total = total_outer = 0.0
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for values in arrays:
            values = np.asarray(values, dtype=float)
            scalar = values.ndim == 1
            block = values.reshape(values.shape[0], -1)
            if n == 0:
                shift = block[0].copy()
            block = block - shift
            total = total + block.sum(axis=0)
            total_outer = total_outer + block.T @ block
            n += block.shape[0]
        d = total / n
        mean = shift + d
        cov = total_outer / n - np.outer(d, d)
        cov = 0.5 * (cov + cov.T)
        np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
    if scalar:
        return float(mean[0]), float(cov[0, 0])
    return mean, cov


def evaluate_moments(data: DatasetCollection, tests: TestFunctionSet) -> MomentMatrix:
    """Exact sample means of every function on every dataset.

    Also computes the pooled covariance over the concatenated sources. A
    non-finite function value is an error naming the dataset, row, and
    function that produced it; so is a mean or pooled source variance
    beyond the float range, naming the function. Row order never matters.
    """
    means = []

    def evaluated(tbl):
        # one dataset's (n, L) values at a time: the target's, then each
        # source's as pooled_moments asks for it
        values = tests.evaluate(tbl)
        if not np.all(np.isfinite(values)):
            rows, cols = np.nonzero(~np.isfinite(values))
            fname = tests.names[cols[0]]
            raise ValueError(
                f"test function {fname!r} produced a non-finite value on "
                f"dataset {tbl.name!r} at row {rows[0]}"
            )
        with np.errstate(over="ignore"):
            means.append(values.mean(axis=0))
        return values

    evaluated(data.target)
    _, pooled = pooled_moments(map(evaluated, data.sources))
    phi_hat = np.vstack(means)
    for what, stat in (("pooled source variance", pooled), ("mean", phi_hat)):
        bad = ~np.isfinite(stat).all(axis=0)
        if bad.any():
            raise ValueError(f"test function {tests.names[bad.argmax()]!r} has a {what} "
                             "beyond the float range")
    return MomentMatrix(
        phi_hat=phi_hat,
        names=tests.names,
        sizes=(data.target.n_rows,) + data.sizes,
        source_names=data.source_names(),
        target_name=data.target.name,
        pooled_var=pooled,
    )


def inverse_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root via eigendecomposition.

    Eigenvalues below 1e-12 times the largest are clamped up to
    that floor, so near-null directions get a large but finite scaling.
    """
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    floor = 1e-12 * float(vals.max())
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.T


def fit_whitening(moments: MomentMatrix, ridge: float = 0.0) -> np.ndarray:
    """The empirical whitening transform T = pooled_cov^(-1/2), an L x L array.

    After ``whiten_moments(moments, T)`` the pooled covariance is the
    identity (up to the ridge, when one is used). A nearly singular pooled
    covariance is an error unless a positive ``ridge`` is supplied; the
    ridge amount is logged.
    """
    if moments.pooled_var is None:
        raise ValueError("moments carry no pooled covariance; recompute with pooling")
    sigma = moments.pooled_var
    n_funcs = sigma.shape[0]
    vals = np.linalg.eigvalsh(sigma)
    threshold = 1e-10 * np.trace(sigma) / n_funcs
    if vals.min() <= threshold and ridge <= 0.0:
        raise ValueError(
            "pooled covariance is near-singular "
            f"(min eigenvalue {vals.min():.3e} <= {threshold:.3e}); supply a "
            "ridge amount or drop redundant test functions"
        )
    if ridge > 0.0:
        logger.info("whitening with ridge %.3e added to the pooled covariance", ridge)
        sigma = sigma + ridge * np.eye(n_funcs)
    return inverse_sqrt(sigma)


def whiten_moments(moments: MomentMatrix, transform: np.ndarray) -> MomentMatrix:
    """Apply a linear test-function transform at the moment level.

    Means transform as rows times T^T and the pooled covariance as
    T S T^T; no second pass over the data is needed. T must be L x L.
    """
    t = np.asarray(transform, dtype=float)
    if t.shape != (moments.n_functions, moments.n_functions):
        raise ValueError("whitening transform must be L x L")
    pooled = None
    if moments.pooled_var is not None:
        pooled = t @ moments.pooled_var @ t.T
        pooled = 0.5 * (pooled + pooled.T)
    return MomentMatrix(
        phi_hat=moments.phi_hat @ t.T,
        names=moments.names,
        sizes=moments.sizes,
        source_names=moments.source_names,
        target_name=moments.target_name,
        pooled_var=pooled,
        whitened=True,
    )
