"""Seasonal dynamic linear model observed through distribution summaries.

One public path per step: ``system`` builds the 36-dim layout (the day-t
maps are ``observation_matrix(calendar.is_summer(t))`` and
``transition_matrix()``), ``SweepOperator`` makes every state draw of a
sweep (the pre-sample one by ``SweepOperator.draw_initial`` from the
prior terms ``conditionals.initial_prior_terms`` builds once per run),
``sample_lambda_conditional`` draws the predictor from the
localized phi-training set, ``kalman_smoother_init`` gives the starting
path and ``run_state_space_gibbs`` runs the sweeps.
"""

from .conditionals import SweepOperator, innovation_precision_conditional
from .kalman import block_kalman_smoother, kalman_smoother_init
from .sampler import (ChainConfig, TrainingConfig, run_state_space_gibbs,
                      summarize_observations)
from .system import (BLOCK_DIM, N_SERIES, STATE_DIM, DlmSpec, SeasonCalendar,
                     block_transition, observation_block, observation_matrix,
                     transition_matrix, trend_block, weekly_seasonal_block)
from .training import (PhiContext, PhiHypercube, TrainingSet,
                       generate_phi_training_set, sample_lambda_conditional)

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
    "generate_phi_training_set",
    "innovation_precision_conditional",
    "kalman_smoother_init",
    "observation_block",
    "observation_matrix",
    "run_state_space_gibbs",
    "sample_lambda_conditional",
    "summarize_observations",
    "transition_matrix",
    "trend_block",
    "weekly_seasonal_block",
]
