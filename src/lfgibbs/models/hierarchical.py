"""Gaussian hierarchical model: exact conditionals and summary machinery.

Observations X_{ul} ~ N(mu_u, 1/tau_x) in U groups of L, group means
mu_u ~ N(mu, 1/tau_mu), Gamma priors on both precisions and a standard
normal prior on mu.  Every full conditional is tractable, so the model
doubles as an oracle for the approximate samplers.

State layout everywhere: (mu, tau_mu, tau_x, mu_1, ..., mu_U).

Summary layout: per-group pairs (mean, precision) for groups 1..U in
order, followed by the four symmetric statistics (grand mean, precision
of the group means, mean of the group precisions, precision of the group
precisions) - a (2U + 4)-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from lfgibbs.abc import SimulatorModel
from lfgibbs.gibbs import ConditionalSpec, PassParamSpec
from lfgibbs.kernels import DistanceScaling, KernelSpec

__all__ = [
    "HierarchicalSpec",
    "HierarchicalSummaries",
    "hierarchical_simulate",
    "hierarchical_summaries",
    "parameter_summaries",
    "mu_conditional",
    "tau_mu_conditional",
    "tau_x_conditional",
    "mu_u_conditional",
    "hierarchical_initial_state",
    "hierarchical_exact_specs",
    "hierarchical_model",
    "hierarchical_engine_specs",
    "hierarchical_pass_specs",
    "hierarchical_state_names",
]


@dataclass(frozen=True)
class HierarchicalSpec:
    """Group structure and the Gamma/normal hyperparameters."""

    u_groups: int = 10
    l_obs: int = 10
    alpha_mu: float = 1.0
    nu_mu: float = 1.0
    alpha_x: float = 1.0
    nu_x: float = 1.0

    def __post_init__(self):
        if self.u_groups < 2:
            raise ValueError("need at least two groups for symmetric statistics")
        if self.l_obs < 1:
            raise ValueError("need at least one observation per group")
        for name in ("alpha_mu", "nu_mu", "alpha_x", "nu_x"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def dim_theta(self) -> int:
        return 3 + self.u_groups

    @property
    def dim_summary(self) -> int:
        return 2 * self.u_groups + 4


def hierarchical_state_names(spec: HierarchicalSpec) -> List[str]:
    return ["mu", "tau_mu", "tau_x"] + [f"mu_{u + 1}" for u in range(spec.u_groups)]


@dataclass(frozen=True)
class HierarchicalSummaries:
    """Per-group (mean, precision) pairs and the four symmetric statistics."""

    group_means: np.ndarray
    group_precisions: np.ndarray
    grand_mean: float
    mean_precision: float
    precision_mean: float
    precision_precision: float

    def as_array(self) -> np.ndarray:
        return _interleave(np.asarray(self.group_means, dtype=float),
                           np.asarray(self.group_precisions, dtype=float),
                           [self.grand_mean, self.mean_precision,
                            self.precision_mean, self.precision_precision])


def _interleave(means: np.ndarray, precisions: np.ndarray, symmetric) -> np.ndarray:
    """The summary layout; leading axes, if any, index stacked data sets."""
    u = means.shape[-1]
    out = np.empty(means.shape[:-1] + (2 * u + 4,))
    out[..., 0:2 * u:2] = means
    out[..., 1:2 * u:2] = precisions
    out[..., 2 * u:] = symmetric
    return out


def _group_stats(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and precision of each group, reduced along the last axis."""
    return data.mean(axis=-1), 1.0 / data.var(axis=-1, ddof=1)


def _summary_parts(data: np.ndarray, strict: bool):
    """Group means, group precisions and the four symmetric statistics.

    ``data`` is shaped (..., U, L), its leading axes indexing stacked data
    sets.  Every reduction runs along the last axis, so a data set gets the
    same bits alone as in a stack.  The symmetric statistics are the mean
    and precision of the group means, then of the group precisions.  A
    zero variance among either gives an infinite precision, or raises
    ZeroDivisionError when ``strict``.
    """
    means, precisions = _group_stats(data)
    if strict and any(np.any(v.var(axis=-1, ddof=1) == 0) for v in (means, precisions)):
        raise ZeroDivisionError("float division by zero")
    symmetric = np.stack([*_group_stats(means), *_group_stats(precisions)], axis=-1)
    return means, precisions, symmetric


def _sample_precision(values: np.ndarray) -> float:
    return 1.0 / float(np.var(values, ddof=1))


def parameter_summaries(mu_values: np.ndarray) -> Tuple[float, float]:
    """Mean and precision of the current group-mean values."""
    mu_values = np.asarray(mu_values, dtype=float)
    return float(mu_values.mean()), _sample_precision(mu_values)


def hierarchical_summaries(data: np.ndarray) -> HierarchicalSummaries:
    """All summary statistics of a U x L data matrix."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    u, l = data.shape
    if l < 2:
        raise ValueError("group precision needs at least two observations per group")
    if u < 2:
        raise ValueError("symmetric statistics need at least two groups")
    means, precisions, symmetric = _summary_parts(data, strict=True)
    return HierarchicalSummaries(means, precisions, *(float(v) for v in symmetric))


def _batch_summaries(data: np.ndarray) -> np.ndarray:
    """Summary rows of data sets stacked as (rows, U, L)."""
    # a zero variance reads as an infinite precision here; the table
    # builder summarizes such rows again through the raising scalar form
    with np.errstate(all="ignore"):
        return _interleave(*_summary_parts(data, strict=False))


def hierarchical_simulate(spec: HierarchicalSpec, params: np.ndarray,
                          rng: np.random.Generator
                          ) -> Tuple[np.ndarray, HierarchicalSummaries]:
    """Draw the U x L data matrix at the given state and summarize it."""
    data = _hierarchical_data(spec, params, rng)
    return data, hierarchical_summaries(data)


def _hierarchical_data(spec: HierarchicalSpec, params: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """The U x L data matrix at the given state, without its summaries."""
    params = np.asarray(params, dtype=float)
    tau_x = params[2]
    if not params[1] > 0 or not tau_x > 0:
        raise ValueError("precisions must be positive")
    mu_u = params[3:3 + spec.u_groups]
    # the draws and arithmetic of rng.normal(mu_u[:, None], sd, size=(U, L)),
    # without its per-element broadcast of loc and scale
    return mu_u[:, None] + 1.0 / math.sqrt(tau_x) * rng.standard_normal(
        (spec.u_groups, spec.l_obs))


# --- full conditionals (Table rows, in sweep order) ------------------------


def mu_conditional(tau_mu: float, mu_bar: float, u_groups: int) -> Tuple[float, float]:
    """Mean and variance of mu given the group means."""
    precision = 1.0 + u_groups * tau_mu
    return u_groups * tau_mu * mu_bar / precision, 1.0 / precision


def tau_mu_conditional(spec: HierarchicalSpec, mu_values: np.ndarray,
                       mu: float) -> Tuple[float, float]:
    """Shape and rate of tau_mu given mu and the group means."""
    rss = float(np.sum((np.asarray(mu_values) - mu) ** 2))
    return spec.alpha_mu + spec.u_groups / 2.0, spec.nu_mu + rss / 2.0


def tau_x_conditional(spec: HierarchicalSpec, data: np.ndarray,
                      mu_values: np.ndarray) -> Tuple[float, float]:
    """Shape and rate of tau_x given the data and the group means."""
    resid = np.asarray(data, dtype=float) - np.asarray(mu_values)[:, None]
    return (spec.alpha_x + data.size / 2.0,
            spec.nu_x + float(np.sum(resid ** 2)) / 2.0)


def mu_u_conditional(mu: float, tau_mu: float, tau_x: float, group_mean: float,
                     l_obs: int) -> Tuple[float, float]:
    """Mean and variance of one group mean given everything else."""
    precision = tau_mu + l_obs * tau_x
    return (mu * tau_mu + l_obs * tau_x * group_mean) / precision, 1.0 / precision


def hierarchical_initial_state(spec: HierarchicalSpec, data: np.ndarray) -> np.ndarray:
    """Start at the prior centre with group means set to the sample means."""
    means = np.atleast_2d(np.asarray(data, dtype=float)).mean(axis=1)
    return np.concatenate([[0.0, 1.0, 1.0], means])


def _hyper_draws(spec: HierarchicalSpec, fixed_tau_mu: Optional[float] = None):
    """Exact samplers of mu and tau_mu, the conditionals that touch no data."""
    u = spec.u_groups

    def draw_mu(state, member, rng):
        mean, var = mu_conditional(state[1], float(state[3:3 + u].mean()), u)
        return rng.normal(mean, math.sqrt(var))

    def draw_tau_mu(state, member, rng):
        if fixed_tau_mu is not None:
            return fixed_tau_mu
        shape, rate = tau_mu_conditional(spec, state[3:3 + u], state[0])
        return rng.gamma(shape, 1.0 / rate)

    return draw_mu, draw_tau_mu


def hierarchical_exact_specs(spec: HierarchicalSpec, data: np.ndarray,
                             fixed_tau_mu: Optional[float] = None,
                             fixed_tau_x: Optional[float] = None
                             ) -> List[ConditionalSpec]:
    """Exact Gibbs conditionals in sweep order (mu, tau_mu, tau_x, mu_u).

    Fixing a precision replaces its update with an identity draw that
    consumes no randomness, which exposes the conjugate Gaussian sub-model
    used as a moment oracle in the tests.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    group_means = data.mean(axis=1)
    u = spec.u_groups
    draw_mu, draw_tau_mu = _hyper_draws(spec, fixed_tau_mu)

    def draw_tau_x(state, member, rng):
        if fixed_tau_x is not None:
            return fixed_tau_x
        shape, rate = tau_x_conditional(spec, data, state[3:3 + u])
        return rng.gamma(shape, 1.0 / rate)

    def draw_mu_u(state, member, rng):
        mean, var = mu_u_conditional(state[0], state[1], state[2],
                                     group_means[member - 3], spec.l_obs)
        return rng.normal(mean, math.sqrt(var))

    return [
        ConditionalSpec(name="mu", members=(0,), exact=draw_mu),
        ConditionalSpec(name="tau_mu", members=(1,), exact=draw_tau_mu),
        ConditionalSpec(name="tau_x", members=(2,), exact=draw_tau_x),
        ConditionalSpec(name="mu_u", members=tuple(range(3, 3 + u)),
                        exact=draw_mu_u),
    ]


# --- simulator-model view for reference tables -----------------------------


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    if x <= 0:
        return -math.inf
    return (shape * math.log(rate) - math.lgamma(shape)
            + (shape - 1.0) * math.log(x) - rate * x)


def _normal_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def hierarchical_model(spec: HierarchicalSpec) -> SimulatorModel:
    """Prior-predictive view: the 'parameter' is the full state vector."""

    def prior_sample(rng: np.random.Generator) -> np.ndarray:
        state = np.empty(spec.dim_theta)
        state[0] = mu = rng.normal()
        state[1] = tau_mu = rng.gamma(spec.alpha_mu, 1.0 / spec.nu_mu)
        state[2] = rng.gamma(spec.alpha_x, 1.0 / spec.nu_x)
        state[3:] = rng.normal(mu, 1.0 / math.sqrt(tau_mu), size=spec.u_groups)
        return state

    def prior_logpdf(state: np.ndarray) -> float:
        mu, tau_mu, tau_x = state[0], state[1], state[2]
        if tau_mu <= 0 or tau_x <= 0:
            return -math.inf
        total = (_normal_logpdf(mu, 0.0, 1.0)
                 + _gamma_logpdf(tau_mu, spec.alpha_mu, spec.nu_mu)
                 + _gamma_logpdf(tau_x, spec.alpha_x, spec.nu_x))
        for value in state[3:3 + spec.u_groups]:
            total += _normal_logpdf(float(value), mu, 1.0 / tau_mu)
        return total

    return SimulatorModel(
        name="gaussian-hierarchy",
        dim_theta=spec.dim_theta,
        dim_summary=spec.dim_summary,
        prior_sample=prior_sample,
        prior_logpdf=prior_logpdf,
        simulate_data=lambda state, rng: _hierarchical_data(spec, state, rng),
        summary=lambda data: hierarchical_summaries(data).as_array(),
        batch_summary=_batch_summaries,
        theta_names=hierarchical_state_names(spec),
        spec=spec,
    )


# --- regression-estimated conditionals --------------------------------------


def hierarchical_engine_specs(spec: HierarchicalSpec,
                              family: str = "linear") -> List[ConditionalSpec]:
    """Estimated conditionals for tau_x and the pooled group means.

    mu and tau_mu keep their exact conditionals (they touch no data).  The
    tau_x regressors are the symmetric statistics plus the mean/precision
    of the current group means; each mu_u regresses on (mu, tau_mu, tau_x)
    and its own group pair, with one pooled fit shared by all groups.
    """
    u = spec.u_groups
    if family not in ("linear", "flexible"):
        raise ValueError("family must be 'linear' or 'flexible'")
    draw_mu, draw_tau_mu = _hyper_draws(spec)

    def tau_x_features(summ, states, member):
        summ = np.atleast_2d(np.asarray(summ, dtype=float))
        states = np.atleast_2d(np.asarray(states, dtype=float))
        mu_vals = states[:, 3:3 + u]
        mu_bar = mu_vals.mean(axis=1)
        mu_prec = 1.0 / mu_vals.var(axis=1, ddof=1)
        return np.column_stack([np.ones(len(summ)), mu_bar, mu_prec,
                                summ[:, 2 * u:2 * u + 4]])

    def mu_u_features(summ, states, member):
        summ = np.atleast_2d(np.asarray(summ, dtype=float))
        states = np.atleast_2d(np.asarray(states, dtype=float))
        g = member - 3
        return np.column_stack([np.ones(len(summ)), states[:, 0], states[:, 1],
                                states[:, 2], summ[:, 2 * g], summ[:, 2 * g + 1]])

    return [
        ConditionalSpec(name="mu", members=(0,), exact=draw_mu),
        ConditionalSpec(name="tau_mu", members=(1,), exact=draw_tau_mu),
        ConditionalSpec(name="tau_x", members=(2,), feature_map_batch=tau_x_features,
                        family=family, positive_response=(family == "flexible")),
        ConditionalSpec(name="mu_u", members=tuple(range(3, 3 + u)),
                        feature_map_batch=mu_u_features, family=family),
    ]


# --- single-parameter ABC-MCMC comparator -----------------------------------


def hierarchical_pass_specs(spec: HierarchicalSpec, data: np.ndarray,
                            h_mu_u: float = 0.5,
                            h_tau_x: float = 2.0) -> Tuple[List[PassParamSpec], int]:
    """Parameter classes for the single-parameter ABC-MCMC comparator.

    mu and tau_mu are exact Gibbs updates.  Each mu_u is Metropolis-Hastings
    against its own group pair (simulating one group, L observations);
    tau_x is Metropolis-Hastings against the symmetric statistics
    (simulating the full data set).  Proposals are the known full
    conditionals of the observed data, the strongest available choice.
    Kernels are uniform with the stated absolute bandwidths on unscaled
    Euclidean distances.  Returns the specs and the observations-per-dataset
    divisor for the generation accounting.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    group_means = data.mean(axis=1)
    u, l = spec.u_groups, spec.l_obs
    draw_mu, draw_tau_mu = _hyper_draws(spec)

    def simulate_group(state, member, rng):
        x = rng.normal(state[member], 1.0 / math.sqrt(state[2]), size=l)
        return np.array(_group_stats(x))

    def propose_mu_u(state, member, rng):
        mean, var = mu_u_conditional(state[0], state[1], state[2],
                                     group_means[member - 3], l)
        return rng.normal(mean, math.sqrt(var))

    def mu_u_logpdf(state, member, value):
        mean, var = mu_u_conditional(state[0], state[1], state[2],
                                     group_means[member - 3], l)
        return _normal_logpdf(value, mean, var)

    def simulate_symmetric(state, member, rng):
        synthetic = rng.normal(state[3:3 + u][:, None],
                               1.0 / math.sqrt(state[2]), size=(u, l))
        return hierarchical_summaries(synthetic).as_array()[2 * u:]

    def propose_tau_x(state, member, rng):
        shape, rate = tau_x_conditional(spec, data, state[3:3 + u])
        return rng.gamma(shape, 1.0 / rate)

    def tau_x_logpdf(state, member, value):
        shape, rate = tau_x_conditional(spec, data, state[3:3 + u])
        return _gamma_logpdf(value, shape, rate)

    specs = [
        PassParamSpec(name="mu", members=(0,), exact=draw_mu),
        PassParamSpec(name="tau_mu", members=(1,), exact=draw_tau_mu),
        PassParamSpec(
            name="tau_x", members=(2,),
            stat_indices=tuple(range(2 * u, 2 * u + 4)),
            simulate_stats=simulate_symmetric, obs_cost=u * l,
            proposal_sample=propose_tau_x, proposal_logpdf=tau_x_logpdf,
            kernel=KernelSpec("uniform", h_tau_x),
            scaling=DistanceScaling.identity(4)),
        PassParamSpec(
            name="mu_u", members=tuple(range(3, 3 + u)),
            stat_indices={3 + g: (2 * g, 2 * g + 1) for g in range(u)},
            simulate_stats=simulate_group, obs_cost=l,
            proposal_sample=propose_mu_u, proposal_logpdf=mu_u_logpdf,
            kernel=KernelSpec("uniform", h_mu_u),
            scaling=DistanceScaling.identity(2)),
    ]
    return specs, u * l
