"""Seasonal dynamic linear model observed through distribution summaries."""

from .conditionals import (SweepOperator, initial_state_conditional,
                           innovation_precision_conditional,
                           terminal_state_conditional)
from .kalman import block_kalman_smoother, kalman_smoother_init
from .sampler import (ChainConfig, TrainingConfig, run_state_space_gibbs,
                      summarize_observations)
from .system import (BLOCK_DIM, N_SERIES, STATE_DIM, DlmSpec, SeasonCalendar,
                     block_transition, build_system_matrices,
                     observation_block, observation_matrix, transition_matrix,
                     trend_block, weekly_seasonal_block)
from .training import (PhiContext, PhiHypercube, TrainingSet,
                       generate_phi_training_set, linear_bayes_moments,
                       localized_covariance, sample_lambda_conditional)

__all__ = [
    "BLOCK_DIM",
    "N_SERIES",
    "STATE_DIM",
    "DlmSpec",
    "PhiContext",
    "PhiHypercube",
    "SeasonCalendar",
    "SweepOperator",
    "TrainingConfig",
    "TrainingSet",
    "ChainConfig",
    "block_kalman_smoother",
    "block_transition",
    "build_system_matrices",
    "generate_phi_training_set",
    "initial_state_conditional",
    "innovation_precision_conditional",
    "kalman_smoother_init",
    "linear_bayes_moments",
    "localized_covariance",
    "observation_block",
    "observation_matrix",
    "run_state_space_gibbs",
    "sample_lambda_conditional",
    "summarize_observations",
    "terminal_state_conditional",
    "transition_matrix",
    "trend_block",
    "weekly_seasonal_block",
]
