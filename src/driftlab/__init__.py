"""driftlab: simulation, weighting, and inference under random dense
distributional shift.

Source datasets are modeled as draws from randomly reweighted versions of a
common target distribution. The package simulates such perturbed worlds,
estimates dataset combination weights by test-function moment matching with
exact small-sample t/F inference, performs weighted empirical risk
minimization with out-of-distribution risk accounting, and validates every
distributional limit law against brute-force Monte Carlo.
"""

__version__ = "0.1.0"

from .dlm import (
    ContrastSpec,
    DlmFit,
    TargetCI,
    closed_form_weights,
    fit_weights,
    infer,
    minimize_quadratic_on_simplex,
    r_squared,
    summarize,
    target_ci,
)
from .erm import (
    ErmFit,
    LossSpec,
    erm_ci,
    fit_erm,
    fit_erm_arrays,
    importance_weights,
    logistic_loss,
    ood_risk,
    squared_error_loss,
)
from .harness import HarnessConfig, HarnessReport, run_harness
from .moments import (
    MomentMatrix,
    ScalarMoments,
    evaluate_moments,
    fit_whitening,
    moments_from_arrays,
    scalar_moments,
    whiten_moments,
)
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    MixtureWeights,
    PerturbationScheme,
    RandomWalkWeights,
    TargetDistribution,
    categorical_target,
    exponential_target,
    gamma_law,
    gaussian_target,
    lognormal_law,
    multivariate_target,
    realize_world,
    sample_uniform,
    shift_target,
    uniform_law,
    uniform_target,
)
from .tables import DatasetCollection, Table, read_csv_table
from .testfuncs import TestFunctionSet, parse_test_functions

__all__ = [name for name in dir() if not name.startswith("_")]
