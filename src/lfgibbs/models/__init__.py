"""Worked models: every one ships its exact conditionals next to the
regression-estimated versions so the approximate samplers can be checked
against the real thing."""

from lfgibbs.models.hierarchical import (
    HierarchicalSpec,
    HierarchicalSummaries,
    hierarchical_engine_specs,
    hierarchical_exact_specs,
    hierarchical_initial_state,
    hierarchical_model,
    hierarchical_pass_specs,
    hierarchical_simulate,
    hierarchical_state_names,
    hierarchical_summaries,
)
from lfgibbs.models.mixture import (
    MixtureSpec,
    mixture_analytic_theta1_coefficients,
    mixture_conditional_b1,
    mixture_conditional_theta1,
    mixture_engine_specs,
    mixture_exact_specs,
    mixture_initial_state,
    mixture_joint_logpdf,
    mixture_model,
    mixture_simulate,
    truncated_normal_draw,
)

__all__ = [
    "HierarchicalSpec",
    "HierarchicalSummaries",
    "hierarchical_engine_specs",
    "hierarchical_exact_specs",
    "hierarchical_initial_state",
    "hierarchical_model",
    "hierarchical_pass_specs",
    "hierarchical_simulate",
    "hierarchical_state_names",
    "hierarchical_summaries",
    "MixtureSpec",
    "mixture_analytic_theta1_coefficients",
    "mixture_conditional_b1",
    "mixture_conditional_theta1",
    "mixture_engine_specs",
    "mixture_exact_specs",
    "mixture_initial_state",
    "mixture_joint_logpdf",
    "mixture_model",
    "mixture_simulate",
    "truncated_normal_draw",
]
