"""biaslab: group-level prediction errors under model mis-specification.

Closed-form coefficients and group mean errors for linear and probit
models with an omitted feature, a seeded simulator for four outcome
families, from-scratch estimators (OLS, probit/logit MLE, CART forest),
group audits with standard errors, and a config-driven experiment runner
that checks every closed form against Monte Carlo.
"""

from .analytic_linear import (
    GroupErrorPrediction,
    bias_vanishes_condition,
    omitted_coefficients,
    omitted_group_errors,
    worst_case_check,
)
from .analytic_probit import (
    gaussian_cdf_expectation,
    omitted_coefficients_probit,
    omitted_group_errors_probit,
    std_normal_cdf,
)
from .audit import ErrorReport, compare, error_report
from .dgp import Dataset, DgpSpec, derive_seed, generate
from .estimators import (
    FittedModel,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
)
from .exceptions import (
    AssumptionViolationError,
    BiaslabError,
    ConfigError,
    ConvergenceError,
    DegenerateVarianceError,
    EmptyGroupError,
    InvalidCovarianceError,
    RankDeficiencyError,
    SeparationError,
)
from .experiment import (
    ExperimentCell,
    ExperimentConfig,
    ResultRow,
    load_config,
    render,
    run,
    run_replication,
    table1_config,
)
from .moments import GroupGaussianSpec, MixtureSpec, MomentSummary, group_moments, pooled_moments

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError",
    "BiaslabError",
    "ConfigError",
    "ConvergenceError",
    "Dataset",
    "DegenerateVarianceError",
    "DgpSpec",
    "EmptyGroupError",
    "ErrorReport",
    "ExperimentCell",
    "ExperimentConfig",
    "FittedModel",
    "GroupErrorPrediction",
    "GroupGaussianSpec",
    "InvalidCovarianceError",
    "MixtureSpec",
    "MomentSummary",
    "RankDeficiencyError",
    "ResultRow",
    "SeparationError",
    "bias_vanishes_condition",
    "compare",
    "derive_seed",
    "error_report",
    "fit_forest",
    "fit_logit",
    "fit_ols",
    "fit_probit",
    "gaussian_cdf_expectation",
    "generate",
    "group_moments",
    "load_config",
    "omitted_coefficients",
    "omitted_coefficients_probit",
    "omitted_group_errors",
    "omitted_group_errors_probit",
    "pooled_moments",
    "predict",
    "render",
    "run",
    "run_replication",
    "std_normal_cdf",
    "table1_config",
    "worst_case_check",
]
