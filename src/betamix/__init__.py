"""Exact mixing coefficients, exponential deviation bounds, and functional
kernel regression, with seeded simulators and an experiment CLI."""

__version__ = "0.1.0"

import os
import sys

if "numpy" not in sys.modules:  # read once, as numpy loads OpenBLAS: no server thread
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .concentration import (
    BoundParams,
    FSpec,
    LaplaceEstimate,
    LaplaceSection,
    MomentInputs,
    RateFit,
    TailEstimate,
    TruncationTriple,
    calibrate_corollary,
    calibrate_laplace_constant,
    corollary_bound,
    empirical_laplace,
    empirical_tail_grid,
    laplace_bound,
    laplace_section,
    make_fspec,
    rate_argument,
    rate_fit,
    truncate,
    unbounded_bound,
)
from .mixing import (
    CheckResult,
    FiniteChain,
    FiniteJointDistribution,
    MixingDecayFit,
    alpha_exact,
    beta_exact,
    davydov_check,
    fit_geometric_decay,
    ibragimov_check,
    markov_beta_lag,
)
from .processes import (
    ContractiveChainSpec,
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    estimate_chain_mixing,
    make_psi,
    make_regression_sample,
    simulate_contractive_chain,
    simulate_far1,
    trapezoid_weights,
    uniform_grid,
)
from .regression import (
    ForecastSummary,
    KernelSpec,
    NWEvaluation,
    RegressionFit,
    SmallBallModel,
    bandwidth_schedule,
    dynamic_forecast_experiment,
    estimate_small_ball,
    m_constant,
)

__all__ = [
    "BoundParams", "FSpec", "LaplaceEstimate", "LaplaceSection", "MomentInputs", "RateFit",
    "TailEstimate", "TruncationTriple", "calibrate_corollary", "calibrate_laplace_constant",
    "corollary_bound", "empirical_laplace", "empirical_tail_grid", "laplace_bound",
    "laplace_section", "make_fspec", "rate_argument", "rate_fit", "truncate",
    "unbounded_bound",
    "CheckResult", "FiniteChain", "FiniteJointDistribution", "MixingDecayFit", "alpha_exact",
    "beta_exact", "davydov_check", "fit_geometric_decay", "ibragimov_check", "markov_beta_lag",
    "ContractiveChainSpec", "Far1Spec", "FunctionalPath", "PsiSpec", "estimate_chain_mixing",
    "make_psi", "make_regression_sample", "simulate_contractive_chain", "simulate_far1",
    "trapezoid_weights", "uniform_grid",
    "ForecastSummary", "KernelSpec", "NWEvaluation", "RegressionFit", "SmallBallModel",
    "bandwidth_schedule", "dynamic_forecast_experiment", "estimate_small_ball", "m_constant",
]
