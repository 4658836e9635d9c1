"""Approximate Gibbs sampler for the seasonal state-space model.

Each sweep draws the pre-sample state, then for every day first the
linear predictor given its neighbouring states and observed summary
(via the localized training table, or an injected sampler) and then the
state given that predictor, then the forward-predictive state one step
past the data, and finally the innovation precisions.  Only the
predictor step touches the intractable observation model; everything
else is exact linear-Gaussian and Gamma algebra.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..abc import _whole_number
from ..gibbs import ChainConfig, ChainOutput, TimingBreakdown, _run_sweeps
# summarize_observations looks estimate_gk up here, once per day, so
# that the benchmark trace (perfbench/tracing.py) can wrap this module's
# attribute and count the observation fits
from ..gk import estimate_gk, link_parameters
from ..kernels import KernelSpec
from .conditionals import (SweepOperator, initial_prior_terms,
                           innovation_precision_conditional)
from .kalman import _INIT_BLOCK_W, kalman_smoother_init
from .system import (N_SERIES, DlmSpec, SeasonCalendar, observation_matrix,
                     transition_matrix)
from .training import (_LIVE, DEFAULT_Q_HIGH, PhiContext, PhiHypercube,
                       TrainingSet, _log_variances, generate_phi_training_set,
                       sample_lambda_conditional)

LambdaSampler = Callable[[PhiContext, np.ndarray, np.random.Generator],
                         np.ndarray]


@dataclass(frozen=True)
class TrainingConfig:
    """How the predictor training table is built and localized."""

    n_pairs: int = 5000
    m_neighbours: int = 2000
    kernel: KernelSpec = KernelSpec("epanechnikov")
    q_high: float = DEFAULT_Q_HIGH
    hypercube: Optional[PhiHypercube] = None

    def __post_init__(self):
        for name in ("n_pairs", "m_neighbours"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        if not 1 <= self.m_neighbours <= self.n_pairs:
            raise ValueError("m_neighbours must be in [1, n_pairs]")


def summarize_observations(observations: Sequence[np.ndarray]) -> np.ndarray:
    """Per-day summary rows on the link scale from raw observations."""
    rows = []
    for t, day in enumerate(observations, start=1):
        try:
            rows.append(link_parameters(estimate_gk(np.asarray(day, float))))
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(
                f"summary estimation failed for day {t}: {exc}") from exc
    return np.asarray(rows, dtype=float)


def _state_names(n_days: int, p: int) -> List[str]:
    names = [f"theta_{t}_{k}" for t in range(n_days + 2) for k in range(p)]
    names.extend(f"tau_{i}" for i in range(p))
    return names


def run_state_space_gibbs(spec: DlmSpec, calendar: SeasonCalendar,
                          training_config: TrainingConfig,
                          config: ChainConfig, rng: np.random.Generator,
                          observations: Optional[Sequence[np.ndarray]] = None,
                          summaries: Optional[np.ndarray] = None,
                          n_obs: Optional[np.ndarray] = None,
                          lambda_sampler: Optional[LambdaSampler] = None,
                          fix_tau=None) -> ChainOutput:
    """Run the sampler and return the retained chain.

    Data enter either as raw per-day observation arrays or as
    already-computed link-scale summary rows plus per-day sample sizes.
    Each retained row is the flattened state path (days 0..T+1, p
    coordinates each) followed by the p innovation precisions.
    lambda_sampler overrides the training-table predictor draw (the
    exact-conditional special cases use this); fix_tau pins the
    precisions and skips their updates.  The path starts at
    :func:`kalman_smoother_init`, run with block variance 1e-4 and, as
    observation variance, the midpoint of the hypercube's range (the
    diagnostics ``init_block_w`` and ``init_obs_variance``).  A
    non-finite draw aborts with the offending day and sweep.  With the
    training table, the diagnostics report the fraction of sweep
    contexts outside its hypercube (``phi_outside_fraction``) and the
    timings book the table's localization in ``localize_seconds``;
    ``phi_outside_by_part`` gives that share in f, in q and in n alone.

    Each day's predictor update gets a :class:`PhiContext` whose parts
    are made where they change: log n_obs once per day and run, the
    prior variances q (the same for every day of a season) checked
    positive and finite and logged once per season and sweep, and the
    mean per day.  The day writes its 9 live embedding coordinates into
    a buffer fresh each sweep, and the context and the distance read
    them from there; they are bit for bit what the public constructor
    and ``PhiContext.embed`` give.  The summary rows are made float once,
    at entry, and each day's row is passed as it is.
    """
    if (observations is None) == (summaries is None):
        raise ValueError("supply either observations or summaries")
    if observations is not None:
        summaries = summarize_observations(observations)
        n_obs = np.array([len(day) for day in observations])
    else:
        summaries = np.atleast_2d(np.asarray(summaries, dtype=float))
        if n_obs is None:
            raise ValueError("summaries need matching n_obs")
        n_obs = np.asarray(n_obs)
    n_days = summaries.shape[0]
    if n_days != calendar.n_days:
        raise ValueError("data do not match the calendar length")
    if summaries.shape[1] != N_SERIES or not np.all(np.isfinite(summaries)):
        raise ValueError("summaries must be finite rows, one per day")
    # each size is converted to an int once per run, so it must be a whole number
    if (n_obs.shape != (n_days,) or not np.isfinite(n_obs).all() or np.any(n_obs < 1)
            or np.any(n_obs != np.floor(n_obs))):
        raise ValueError("n_obs must hold one positive whole size per day")

    p = spec.p
    cube = training_config.hypercube
    if cube is None:
        cube = PhiHypercube.from_observed(summaries, n_obs,
                                          q_high=training_config.q_high)

    timings = TimingBreakdown()
    training: Optional[TrainingSet] = None
    if lambda_sampler is None:
        training = generate_phi_training_set(training_config.n_pairs, cube, rng)
        timings.pre_sim_seconds = training.simulate_seconds
        timings.pre_sim_units = float(training_config.n_pairs
                                      + training.redraw_count)
        timings.pre_fit_count = training_config.n_pairs + training.redraw_count
        timings.pre_fit_seconds = training.estimate_seconds

    f_by_season = {flag: observation_matrix(flag) for flag in (False, True)}
    g_mat = transition_matrix()
    summer = [calendar.is_summer(t) for t in range(1, n_days + 1)]
    day_sizes = [int(n) for n in n_obs]
    prior = initial_prior_terms(spec.m0, spec.c0_diag)

    init_obs_variance = 0.5 * (cube.q_low + cube.q_high)
    theta = np.empty((n_days + 2, p))
    theta[:n_days + 1] = kalman_smoother_init(summaries, calendar, spec,
                                              obs_variance=init_obs_variance)
    theta[n_days + 1] = g_mat @ theta[n_days]

    if fix_tau is not None:
        tau = np.broadcast_to(np.asarray(fix_tau, dtype=float), (p,)).copy()
        if np.any(tau <= 0):
            raise ValueError("fix_tau must be positive")
    elif training is not None:
        # the localized table only covers predictor variances up to the
        # hypercube ceiling, and the one-step variance scales like 1/tau;
        # starting at the envelope midpoint keeps the first sweeps inside
        # the covered region instead of extrapolating past it
        tau = np.full(p, 2.0 / (cube.q_low + cube.q_high))
    else:
        # no envelope constraint: start at the initializer's working
        # precision (the smoothed path itself has near-zero innovations,
        # so conditioning tau on it would start absurdly tight)
        tau = np.full(p, 1.0 / _INIT_BLOCK_W)

    lam_running = np.zeros((n_days, N_SERIES))
    q_off_max = 0.0
    # each day's log sample size, the last live coordinate of its contexts
    log_sizes = [math.log(n) for n in day_sizes]
    # the sweep's contexts, to count those outside the training hypercube:
    # in any part, then in f, in q and in n alone
    q_days = np.empty((n_days, N_SERIES))
    outside = np.zeros(4, dtype=int)

    def sweep(m: int) -> None:
        nonlocal tau, q_off_max, outside
        op = SweepOperator(g_mat, 1.0 / tau, f_by_season)
        q_off_max = max(q_off_max, op.off_diagonal_max)
        theta[0] = op.draw_initial(theta[1], prior, rng)
        # each day's live phi coordinates, a fresh buffer per sweep since
        # the contexts keep their rows; q is the same for every day of a
        # season, so its check and logs are made on the season's first day
        lives = np.empty((n_days, _LIVE))
        log_q = {}
        for t in range(1, n_days + 1):
            flag = summer[t - 1]
            a = op.two_sided_mean(theta[t - 1], theta[t + 1])
            f_mean, q_diag = op.predictor_moments(a, flag)
            if flag not in log_q:
                log_q[flag] = _log_variances(q_diag)
            live = lives[t - 1]
            live[:N_SERIES] = f_mean
            live[N_SERIES:2 * N_SERIES] = log_q[flag]
            live[2 * N_SERIES] = log_sizes[t - 1]
            phi = PhiContext._checked(f_mean, q_diag, day_sizes[t - 1], live)
            if lambda_sampler is not None:
                lam = np.asarray(lambda_sampler(phi, summaries[t - 1], rng),
                                 dtype=float)
            else:
                q_days[t - 1] = q_diag
                lam = sample_lambda_conditional(
                    phi, summaries[t - 1], training, training_config.kernel,
                    training_config.m_neighbours, rng, timings)
            theta[t] = op.draw_state(a, f_mean, lam, flag, rng)
            # messages number the sweeps from 0
            if not np.isfinite(theta[t]).all():
                raise FloatingPointError(
                    f"non-finite state at day {t}, sweep {m - 1}")
            if m > config.burn_in:
                lam_running[t - 1] += lam
        if training is not None:
            in_f, in_q, in_n = cube.inside_by_part(lives[:, :N_SERIES], q_days, n_obs)
            outside += n_days - np.count_nonzero(
                (in_f & in_q & in_n, in_f, in_q, in_n), axis=1)
        theta[n_days + 1] = op.draw_terminal(theta[n_days], rng)
        if fix_tau is None:
            innov = theta[1:] - theta[:-1] @ g_mat.T
            shape, rates = innovation_precision_conditional(
                innov, spec.alpha, spec.nu)
            tau = rng.gamma(shape, 1.0 / rates)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(tau))):
            raise FloatingPointError(f"non-finite state at sweep {m - 1}")

    states = _run_sweeps(config, sweep, lambda: np.concatenate((theta.ravel(), tau)),
                         theta.size + p, timings)
    lam_hat = lam_running / (config.n_iterations - config.burn_in)
    diagnostics = {
        "q_off_diagonal_max": q_off_max,
        "init_block_w": _INIT_BLOCK_W,
        "init_obs_variance": init_obs_variance,
        "n_days": n_days,
        "training_redraws": 0 if training is None else training.redraw_count,
        "predictor_means": lam_hat,
        "predictor_residuals": summaries - lam_hat,
    }
    if training is not None:
        # share of the predictor updates whose context phi lay outside the
        # hypercube the training pairs were drawn from: the localized
        # table extrapolates there
        frac = outside / (config.n_iterations * n_days)
        diagnostics["phi_outside_fraction"] = float(frac[0])
        diagnostics["phi_outside_by_part"] = dict(zip("fqn", frac[1:].tolist()))
    return ChainOutput(states=states, names=_state_names(n_days, p),
                       timings=timings, diagnostics=diagnostics)
