"""Likelihood-free approximate Gibbs sampling.

Posterior sampling for simulator models whose likelihood is intractable but
cheap to sample from.  Full conditional distributions are estimated by
kernel-weighted regressions fitted to a reference table of (parameter,
summary) pairs, and the resulting approximate conditionals are plugged into
an otherwise standard Gibbs sweep.  Localized (per-iteration) and global
(fit-once) variants are provided, together with a kernel-weighted ABC
baseline, a single-parameter ABC-MCMC comparator, exact samplers for the
bundled example models, and a state-space subsystem for time series with
g-and-k observation densities.
"""

from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    kernel_weight,
    knn_bandwidth,
    scaled_distance,
)
from lfgibbs.gk import (
    GKParams,
    LMoments,
    estimate_gk,
    gk_quantile,
    gk_sample,
    sample_lmoments,
    theoretical_lmoments,
)
from lfgibbs.regression import (
    FlexibleFit,
    LinearFit,
    LogisticFit,
    fit_flexible_heteroscedastic,
    fit_weighted_linear,
    fit_weighted_logistic,
    full_interactions,
    sample_flexible,
    sample_linear_parametric,
    sample_linear_residual,
)
from lfgibbs.abc import (
    AbcOutput,
    ReferenceTable,
    SimulatorModel,
    abc_importance,
    regression_adjust,
    simulate_reference_table,
)
from lfgibbs.diagnostics import effective_sample_size, split_rhat
from lfgibbs.gibbs import (
    ChainConfig,
    ChainOutput,
    ConditionalSpec,
    GibbsConfig,
    PassParamSpec,
    run_abc_pass,
    run_global_gibbs,
    run_local_gibbs,
)
from lfgibbs.experiments import (
    ExperimentConfig,
    ResultsBundle,
    coverage,
    credible_interval,
    relative_mse,
    run_experiment,
    summarize_directory,
    timing_table,
)

__version__ = "0.1.0"

__all__ = [
    "AbcOutput",
    "ChainConfig",
    "ChainOutput",
    "ConditionalSpec",
    "DistanceScaling",
    "ExperimentConfig",
    "FlexibleFit",
    "GKParams",
    "GibbsConfig",
    "KernelSpec",
    "LMoments",
    "LinearFit",
    "LogisticFit",
    "PassParamSpec",
    "ReferenceTable",
    "ResultsBundle",
    "SimulatorModel",
    "abc_importance",
    "coverage",
    "credible_interval",
    "effective_sample_size",
    "estimate_gk",
    "fit_flexible_heteroscedastic",
    "fit_weighted_linear",
    "fit_weighted_logistic",
    "full_interactions",
    "gk_quantile",
    "gk_sample",
    "kernel_weight",
    "knn_bandwidth",
    "regression_adjust",
    "relative_mse",
    "run_abc_pass",
    "run_experiment",
    "run_global_gibbs",
    "run_local_gibbs",
    "sample_flexible",
    "sample_linear_parametric",
    "sample_linear_residual",
    "sample_lmoments",
    "scaled_distance",
    "simulate_reference_table",
    "split_rhat",
    "summarize_directory",
    "theoretical_lmoments",
    "timing_table",
]
