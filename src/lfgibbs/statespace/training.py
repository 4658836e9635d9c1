"""Training-set machinery for the likelihood-free predictor update.

The sampler never evaluates the summary likelihood.  Instead it draws,
once up front, a table of (predictor, summary) pairs from contexts phi =
(prior mean, prior variance, sample size) covering the contexts the
sweep will visit, then localizes that table around the current context
with a kernel over a scaled phi embedding.  A kernel-weighted covariance
of the pairs, centered at their prior means, gives the gain of a linear
Bayes mean update; a resampled training residual is added to that mean,
so no Gaussian shape is assumed for the predictor.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

# estimate_gk is not called here any more; the benchmark trace
# (perfbench/tracing.py) wraps it by this module's attribute and keeps
# doing so until it wraps estimate_gk_batch instead
from ..gk import (estimate_gk, estimate_gk_batch, estimation_target,
                  gk_sample, unlink_parameters)
from ..gibbs import TimingBreakdown, _whole_number
from ..kernels import (DistanceScaling, KernelSpec, kernel_weight,
                       knn_bandwidth, scaled_distance)
from .system import N_SERIES

# ceiling of the training contexts' prior variances unless one is given
DEFAULT_Q_HIGH = 1e-5
# phi embedding: 4 prior means, 4 log prior variances, log sample size,
# and 4 spare coordinates that stay zero.  The spares touch only the
# training set's scaling (DistanceScaling.from_samples, w @ x), which
# rounds differently over fewer columns and would move every chain; the
# per-day distance runs over the first _LIVE coordinates alone.
PHI_DIM = 13
_LIVE = 2 * N_SERIES + 1
_RIDGE_EYE = 1e-10 * np.eye(N_SERIES)
_EIG_FLOOR = 1e-12
_MIN_POSITIVE = 8
_RATE_CHECK_MIN = 50
# a sustained share of failed summary estimations above this aborts
_MAX_FAILURE_RATE = 0.2
_ROUND_MAX = 256       # attempts fitted together


@dataclass(frozen=True)
class PhiContext:
    """One-step context of a predictor update: prior moments and size.

    variance holds the diagonal of the predictor's one-step covariance;
    n_obs is the day's sample size, a positive whole number.
    """

    mean: np.ndarray
    variance: np.ndarray
    n_obs: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if mean.shape != (N_SERIES,) or var.shape != (N_SERIES,):
            raise ValueError(f"mean and variance must be length {N_SERIES}")
        # one context per day and sweep: four scalar tests beat the
        # numpy reductions at this size, and NaN fails them as it fails
        # the positive-and-finite rule
        if not all(0.0 < v < math.inf for v in var.tolist()):
            raise ValueError("prior variances must be positive and finite")
        n_obs = _whole_number(self.n_obs, "n_obs")
        if n_obs < 1:
            raise ValueError("n_obs must be positive")
        for attr, val in (("mean", mean), ("variance", var), ("n_obs", n_obs)):
            object.__setattr__(self, attr, val)

    def embed(self) -> np.ndarray:
        """13-coordinate embedding used by the phi distance.

        Variances and sample size enter on log scale; the spare slots
        stay zero.
        """
        out = np.zeros(PHI_DIM)
        out[:N_SERIES] = self.mean
        out[N_SERIES:2 * N_SERIES] = np.log(self.variance)
        out[2 * N_SERIES] = math.log(self.n_obs)
        return out


@dataclass(frozen=True)
class PhiHypercube:
    """Axis-aligned box the training contexts are drawn from uniformly."""

    f_low: np.ndarray
    f_high: np.ndarray
    q_low: float = 0.0
    q_high: float = DEFAULT_Q_HIGH
    n_low: int = 2
    n_high: int = 1000

    def __post_init__(self):
        lo = np.asarray(self.f_low, dtype=float)
        hi = np.asarray(self.f_high, dtype=float)
        if lo.shape != (N_SERIES,) or hi.shape != (N_SERIES,):
            raise ValueError(f"f bounds must be length {N_SERIES}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("f bounds must be finite")
        if np.any(hi < lo):
            raise ValueError("f_high must not be below f_low")
        if not 0 <= self.q_low < self.q_high:
            raise ValueError("need 0 <= q_low < q_high")
        n_low = _whole_number(self.n_low, "n_low")
        n_high = _whole_number(self.n_high, "n_high")
        if not 2 <= n_low <= n_high:
            raise ValueError("need 2 <= n_low <= n_high")
        for attr, val in (("f_low", lo), ("f_high", hi),
                          ("n_low", n_low), ("n_high", n_high)):
            object.__setattr__(self, attr, val)

    def inside_by_part(self, means: np.ndarray, variances: np.ndarray,
                       n_obs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Which contexts lie inside the box in f, in q and in n, one per
        row of means and variances (and entry of n_obs)."""
        return (((means >= self.f_low) & (means <= self.f_high)).all(axis=-1),
                ((variances >= self.q_low) & (variances <= self.q_high)).all(axis=-1),
                (n_obs >= self.n_low) & (n_obs <= self.n_high))

    @classmethod
    def from_observed(cls, summaries: np.ndarray, n_obs: np.ndarray,
                      q_high: float = DEFAULT_Q_HIGH) -> "PhiHypercube":
        """Box spanning the observed summaries and sample sizes."""
        s = np.atleast_2d(np.asarray(summaries, dtype=float))
        n = np.asarray(n_obs)
        if s.shape[1] != N_SERIES or not np.all(np.isfinite(s)):
            raise ValueError("summaries must be finite rows of length 4")
        return cls(f_low=s.min(axis=0), f_high=s.max(axis=0),
                   q_high=q_high, n_low=int(n.min()), n_high=int(n.max()))


@dataclass(frozen=True)
class TrainingSet:
    """Column-oriented table of training pairs plus the phi metric.

    The embedded contexts, their per-coordinate standard-deviation
    scaling and the centered pairs (predictor - mean, summary - mean),
    the 8-vectors the localized covariance is taken over, are computed
    once at construction.  The spare coordinates touch only the scaling;
    the phi distance reads ``live_embedded`` and ``live_scaling``, the 9
    live columns and their scales, and is bit for bit the one over all
    13.  The build record: redraw_count failed attempts, and the seconds
    spent drawing (contexts and samples) and estimating summaries.
    """

    phi_means: np.ndarray
    phi_variances: np.ndarray
    phi_n: np.ndarray
    predictors: np.ndarray
    summaries: np.ndarray
    redraw_count: int = 0
    simulate_seconds: float = 0.0
    estimate_seconds: float = 0.0
    embedded: np.ndarray = field(init=False, repr=False)
    scaling: DistanceScaling = field(init=False, repr=False)
    live_embedded: np.ndarray = field(init=False, repr=False)
    live_scaling: DistanceScaling = field(init=False, repr=False)
    centered_pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.phi_means, dtype=float))
        q = np.atleast_2d(np.asarray(self.phi_variances, dtype=float))
        n = np.asarray(self.phi_n)
        lam = np.atleast_2d(np.asarray(self.predictors, dtype=float))
        s = np.atleast_2d(np.asarray(self.summaries, dtype=float))
        rows = f.shape[0]
        for arr, name in ((f, "phi_means"), (q, "phi_variances"),
                          (lam, "predictors"), (s, "summaries")):
            if arr.shape != (rows, N_SERIES):
                raise ValueError(f"{name} must have shape ({rows}, 4)")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (n.shape != (rows,) or not np.isfinite(n).all() or np.any(n < 1)
                or np.any(n != np.floor(n))):
            raise ValueError("phi_n must hold one positive whole size per row")
        if np.any(q <= 0):
            raise ValueError("phi_variances must be positive")
        emb = np.zeros((rows, PHI_DIM))
        emb[:, :N_SERIES] = f
        emb[:, N_SERIES:2 * N_SERIES] = np.log(q)
        emb[:, 2 * N_SERIES] = np.log(n.astype(float))
        scaling = DistanceScaling.from_samples(emb)
        for attr, val in (("phi_means", f), ("phi_variances", q),
                          ("phi_n", n), ("predictors", lam),
                          ("summaries", s), ("embedded", emb),
                          ("scaling", scaling),
                          ("live_embedded", np.ascontiguousarray(emb[:, :_LIVE])),
                          ("live_scaling", DistanceScaling(scaling.scales[:_LIVE])),
                          ("centered_pairs", np.hstack((lam - f, s - f)))):
            object.__setattr__(self, attr, val)

    @property
    def n_pairs(self) -> int:
        return self.phi_means.shape[0]


def generate_phi_training_set(n_pairs: int, cube: PhiHypercube,
                               rng: np.random.Generator) -> TrainingSet:
    """Draw contexts uniformly on the hypercube and pair each with a
    simulated summary.

    Pairs whose summary estimation fails (or comes back non-finite) are
    redrawn and counted.  A sustained failure rate above 0.2 aborts with
    advice, since it signals contexts the observation model cannot
    support.

    The summary simulates n observations at the predictor and
    re-estimates them on the link scale.  It runs in rounds of the
    missing count, at most 256 attempts: each attempt of a round draws
    its context and its g-and-k sample in the order of a one-at-a-time
    loop and keeps only the sample's L-moments; the round's targets are
    then fitted together by :func:`estimate_gk_batch`, whose rows are
    what :func:`estimate_gk` returns for each sample, and the failure
    accounting is replayed in attempt order.  ``f_low + span *
    rng.random(4)`` and ``f + sqrt(q) * rng.standard_normal(4)`` are how
    numpy computes ``rng.uniform(f_low, f_high)`` and ``rng.normal(f,
    sqrt(q))``, without their broadcasting set-up.  Estimation draws no
    random numbers, so the pairs, the redraw count, the abort message and
    the generator's final state are those of fitting every attempt as it
    is drawn.  A round also ends at the attempt where the failures already
    known before fitting (samples too small to fit) reach the abort
    rate, so an abort draws no further than the one-at-a-time loop
    would, and leaves the generator where it did unless an earlier fit
    failed.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    f_rows = np.empty((n_pairs, N_SERIES))
    q_rows = np.empty((n_pairs, N_SERIES))
    n_rows = np.empty(n_pairs, dtype=int)
    lam_rows = np.empty((n_pairs, N_SERIES))
    s_rows = np.empty((n_pairs, N_SERIES))
    span = cube.f_high - cube.f_low
    done = failures = attempts = 0
    sim_seconds = fit_seconds = 0.0
    while done < n_pairs:
        size = min(n_pairs - done, _ROUND_MAX)
        draws = []
        # per attempt: the L-moment target the batch fit replaces by its
        # estimate; NaN marks a failure
        rows = np.full((size, N_SERIES), np.nan)
        known = failures
        for i in range(size):
            t0 = time.perf_counter()
            f = cube.f_low + span * rng.random(N_SERIES)
            q = rng.uniform(cube.q_low, cube.q_high, size=N_SERIES)
            n = int(rng.integers(cube.n_low, cube.n_high + 1))
            lam = f + np.sqrt(q) * rng.standard_normal(N_SERIES)
            draws.append((f, q, n, lam))
            t1 = None
            try:
                data = gk_sample(n, unlink_parameters(lam), rng)
                t1 = time.perf_counter()
                rows[i] = estimation_target(data).as_array()
            except (ValueError, ArithmeticError):
                pass
            t2 = time.perf_counter()
            if t1 is None:              # the predictor did not unlink
                t1 = t2
            sim_seconds += t1 - t0
            fit_seconds += t2 - t1
            if not np.all(np.isfinite(rows[i])):
                known += 1
                tried = attempts + i + 1
                if tried >= _RATE_CHECK_MIN and known > _MAX_FAILURE_RATE * tried:
                    break               # the replay aborts here at the latest
        t0 = time.perf_counter()
        rows = estimate_gk_batch(rows[:len(draws)])
        fit_seconds += time.perf_counter() - t0
        for (f, q, n, lam), s in zip(draws, rows):
            attempts += 1
            if not np.all(np.isfinite(s)):
                failures += 1
                if (attempts >= _RATE_CHECK_MIN
                        and failures > _MAX_FAILURE_RATE * attempts):
                    raise ValueError(
                        f"summary estimation failed for {failures} of "
                        f"{attempts} context draws; widen the sample-size "
                        "range or narrow the hypercube")
                continue
            f_rows[done] = f
            q_rows[done] = q
            n_rows[done] = n
            lam_rows[done] = lam
            s_rows[done] = s
            done += 1
    return TrainingSet(phi_means=f_rows, phi_variances=q_rows, phi_n=n_rows,
                       predictors=lam_rows, summaries=s_rows,
                       redraw_count=failures, simulate_seconds=sim_seconds,
                       estimate_seconds=fit_seconds)


def _localize(training: TrainingSet, phi_star: PhiContext,
              kernel: KernelSpec, m: int
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted covariance around phi_star, the indices of the pairs
    with positive kernel weight, and those weights normalized to sum 1.

    The covariance is taken about zero: the pairs are already centered
    by their own prior means, which is the moment the linear Bayes step
    conditions on.
    """
    d = scaled_distance(training.live_embedded, phi_star.embed()[:_LIVE],
                        training.live_scaling)
    h = knn_bandwidth(d, m)
    weights = kernel_weight(d, kernel.with_bandwidth(h))
    pool = np.flatnonzero(weights > 0)
    if pool.size < _MIN_POSITIVE:
        raise ValueError(
            f"only {pool.size} training pairs have positive "
            "weight; increase m or enlarge the training set")
    z = training.centered_pairs[pool]
    w = weights[pool]
    total = w.sum()
    omega = (z * w[:, None]).T @ z / total
    return omega, pool, w / total


def _gain(omega: np.ndarray) -> np.ndarray:
    """Linear Bayes gain omega12 (omega22 + ridge)^-1 of an 8x8 joint
    covariance of (predictor, summary)."""
    return np.linalg.solve(omega[N_SERIES:, N_SERIES:] + _RIDGE_EYE,
                           omega[:N_SERIES, N_SERIES:].T).T


def _linear_bayes(omega: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gain and floored conditional covariance from a joint covariance.

    The covariance is the top-left block minus the explained part,
    symmetrized and eigenvalue-floored so a Cholesky factor always
    exists.  It is the Gaussian linear Bayes diagnostic: the sampler's
    draw uses the gain alone.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (2 * N_SERIES, 2 * N_SERIES):
        raise ValueError("omega must be 8x8")
    gain = _gain(omega)
    cov = (omega[:N_SERIES, :N_SERIES]
           - gain @ omega[N_SERIES:, :N_SERIES])
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, _EIG_FLOOR)) @ vecs.T
    return gain, 0.5 * (cov + cov.T)


def _choice_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with the given probabilities, as rng.choice draws it.

    These are the steps ``Generator.choice(a, p=probs)`` takes for one
    draw with replacement, so the index and the one double it consumes
    are the same; the checks on probs are left out.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_lambda_conditional(phi_star: PhiContext, s_obs: np.ndarray,
                              training: TrainingSet, kernel: KernelSpec,
                              m: int, rng: np.random.Generator,
                              timings: Optional[TimingBreakdown] = None
                              ) -> np.ndarray:
    """One draw of the predictor given its context and observed summary.

    Localizes the training set at phi_star and forms the linear Bayes
    mean with the localized gain, then adds a resampled residual as it
    is: a training pair k is drawn among the positive-weight ones in
    proportion to its kernel weight (one ``rng.random()`` double), and
    its predictor's residual about its own fitted value under the same
    gain, predictor_k - fitted_k, is added to the mean.  This is the
    homoscedastic residual resample of Beaumont, Zhang & Balding (2002):
    the residuals keep the training pairs' own scale and are not
    rescaled to the conditional covariance.  The localization time is
    added to ``timings.localize_seconds`` when timings are given.
    """
    s_obs = np.asarray(s_obs, dtype=float).reshape(N_SERIES)
    t_loc = time.perf_counter()
    omega, pool, probs = _localize(training, phi_star, kernel, m)
    if timings is not None:
        timings.localize_seconds += time.perf_counter() - t_loc
    gain = _gain(omega)
    mean = phi_star.mean + gain @ (s_obs - phi_star.mean)
    k = pool[_choice_index(probs, rng)]
    fitted = training.phi_means[k] + gain @ training.centered_pairs[k, N_SERIES:]
    return mean + (training.predictors[k] - fitted)
