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

from types import ModuleType as _ModuleType

from .dlm import (
    DlmFit,
    TargetCI,
    closed_form_weights,
    fit_weights,
    summarize,
    target_ci,
)
from .erm import (
    ErmFit,
    LossSpec,
    erm_ci,
    fit_erm,
    importance_weights,
    logistic_loss,
    ood_risk,
    squared_error_loss,
)
from .harness import HarnessConfig, HarnessReport, run_harness
from .moments import (
    MomentMatrix,
    evaluate_moments,
    whiten_moments,
)
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    MixtureWeights,
    PerturbationScheme,
    RandomWalkWeights,
    categorical_target,
    exponential_target,
    gamma_law,
    gaussian_target,
    lognormal_law,
    realize_world,
    sample_uniform,
    uniform_law,
    uniform_target,
)
from .tables import DatasetCollection, Table, read_csv_table
from .testfuncs import TestFunctionSet, parse_test_functions

# importing a name from a submodule also binds the submodule itself here;
# those module objects are not part of the public surface
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
