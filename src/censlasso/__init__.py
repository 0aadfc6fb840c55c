"""Censored adaptive-LASSO estimation on massive data.

Right-censored log-linear regression with IPCW-weighted losses (median,
quantile, composite quantile, expectile / least squares), adaptive-LASSO
variable selection tuned by BIC-type criteria, and an interleaved-group
aggregation scheme whose voted-support averaged estimator keeps the oracle
properties of the full-data fit at a fraction of its cost.
"""

__version__ = "0.1.0"

from .aggregation import (
    AggregatedResult,
    AggregationPlan,
    GroupAssignment,
    aggregate,
    fit_aggregated,
    interleaved_split,
    vote_support,
)
from .data import (
    GenerationSpec,
    SurvivalDataset,
    calibrate_censoring_bound,
    generate_dataset,
    generate_with_latents,
    load_csv,
    write_csv,
)
from .kaplan_meier import (
    CensoringSurvivalCurve,
    IpcwWeights,
    fit_censoring_km,
    ipcw_weights,
)
from .losses import (
    LossKind,
    check_loss,
    estimate_expectile_index,
    estimate_quantile_index,
    expectile_grad,
    expectile_loss,
)
from .simulation import (
    LambdaRule,
    MethodSpec,
    SimulationReport,
    SimulationSpec,
    metric_false_nonzeros,
    metric_false_zeros,
    normality_summary,
    run_study,
    timing_benchmark,
)
from .solvers import (
    AdaptiveLassoPath,
    EstimatorResult,
    FitConfig,
    adaptive_weights,
    fit_adaptive_lasso,
    fit_unpenalized,
    kkt_residual,
    objective_value,
)
from .tuning import (
    BicConfig,
    BicPath,
    bic_score,
    fixed_lambda,
    lambda_grid,
    select_lambda,
)

__all__ = [
    "AdaptiveLassoPath",
    "AggregatedResult",
    "AggregationPlan",
    "BicConfig",
    "BicPath",
    "CensoringSurvivalCurve",
    "EstimatorResult",
    "FitConfig",
    "GenerationSpec",
    "GroupAssignment",
    "IpcwWeights",
    "LambdaRule",
    "LossKind",
    "MethodSpec",
    "SimulationReport",
    "SimulationSpec",
    "SurvivalDataset",
    "adaptive_weights",
    "aggregate",
    "bic_score",
    "calibrate_censoring_bound",
    "check_loss",
    "estimate_expectile_index",
    "estimate_quantile_index",
    "expectile_grad",
    "expectile_loss",
    "fit_adaptive_lasso",
    "fit_aggregated",
    "fit_censoring_km",
    "fit_unpenalized",
    "fixed_lambda",
    "generate_dataset",
    "generate_with_latents",
    "interleaved_split",
    "ipcw_weights",
    "kkt_residual",
    "lambda_grid",
    "load_csv",
    "metric_false_nonzeros",
    "metric_false_zeros",
    "normality_summary",
    "objective_value",
    "run_study",
    "select_lambda",
    "timing_benchmark",
    "vote_support",
    "write_csv",
]
