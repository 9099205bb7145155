"""Empirical moments of test functions and the whitening transform.

All variances use the population convention (divide by n): the pooled
covariance over the K source datasets is exactly the empirical covariance
of the concatenated source rows.

Whitening is a moment-level transform: ``whiten_moments`` drops the test
functions that are redundant on the pooled sources and applies
T = pooled_cov^(-1/2) of the rest to a ``MomentMatrix`` without a second pass
over the data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tables import DatasetCollection

if TYPE_CHECKING:
    from .testfuncs import TestFunctionSet

__all__ = [
    "MomentMatrix",
    "evaluate_moments",
    "whiten_moments",
    "pooled_moments",
]


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
        source_names=data.source_names,
        target_name=data.target.name,
        pooled_var=pooled,
    )


def whiten_moments(moments: MomentMatrix) -> MomentMatrix:
    """The moments of the whitened test functions, T phi with T = S^(-1/2).

    S is the pooled source covariance of the functions kept: walking them in
    declaration order, a function is dropped when 1 - R^2 <= 1e-10, R^2 being
    its squared multiple correlation with the functions before it, and a
    zero-variance function is dropped too. The rule has no units, so
    rescaling a function never changes which are kept, and of a dependent set
    (every level of ``auto_indicators:``) it drops the last. A drop is one
    warning naming the dropped functions; a kept S whose eigenvalues span over
    1e12 is an error naming its least and most variable ones. Means transform
    as rows times T^T and the pooled covariance as T S T^T, so no second pass
    over the data is needed.
    """
    sigma = moments.pooled_var
    if sigma is None:
        raise ValueError("moments carry no pooled covariance; recompute with pooling")
    d = np.sqrt(np.diag(sigma))
    d[d == 0.0] = 1.0  # a zero-variance function has a zero row, so 1 - R^2 = 0
    vals, vecs = np.linalg.eigh(sigma / np.outer(d, d))
    # C = A^T A with A = sqrt(vals) V^T, so A's QR gives C's Cholesky factor R,
    # whose squared diagonal is each function's 1 - R^2 on the ones before it
    r = np.linalg.qr(np.sqrt(np.maximum(vals, 0.0))[:, None] * vecs.T, mode="r")
    keep = np.diag(r) ** 2 > 1e-10
    if not keep.any():
        raise ValueError("every test function is constant on the pooled sources")
    names = tuple(n for n, k in zip(moments.names, keep) if k)
    if not keep.all():
        dropped = [n for n, k in zip(moments.names, keep) if not k]
        warnings.warn(f"whitening drops {len(dropped)} of {len(keep)} test functions, each "
                      "constant or linear in the ones before it on the pooled sources: "
                      f"{dropped[:5]}", stacklevel=2)
        sigma = sigma[np.ix_(keep, keep)]
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if vals.min() < 1e-12 * vals.max():  # S^(-1/2) would not whiten S in floating point
        var = np.diag(sigma)
        lo, hi = (f"{names[i]!r} (variance {var[i]:.3g})" for i in (var.argmin(), var.argmax()))
        raise ValueError("whitening cannot invert the kept test functions' pooled covariance, "
                         f"whose eigenvalues span over 1e12: rescale {lo} or {hi}")
    t = (vecs / np.sqrt(vals)) @ vecs.T
    pooled = t @ sigma @ t.T
    return MomentMatrix(
        phi_hat=moments.phi_hat[:, keep] @ t.T,
        names=names,
        sizes=moments.sizes,
        source_names=moments.source_names,
        target_name=moments.target_name,
        pooled_var=0.5 * (pooled + pooled.T),
        whitened=True,
    )
