"""Training-set machinery for the likelihood-free predictor update.

The sampler never evaluates the summary likelihood.  Instead it draws,
once up front, a table of (predictor, summary) pairs from contexts phi =
(prior mean, prior variance, sample size) covering the contexts the
sweep will visit, then localizes that table around the current context
with a kernel over a scaled phi embedding.  A kernel-weighted covariance
of the pairs, centered at their prior means, feeds a linear Bayes update
whose residuals are resampled to avoid a Gaussianity assumption.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import solve_triangular

# estimate_gk is not called here any more; the benchmark trace
# (perfbench/tracing.py) wraps it by this module's attribute and keeps
# doing so until it wraps estimate_gk_batch instead
from ..gk import (estimate_gk, estimate_gk_batch, estimation_target,
                  gk_sample, unlink_parameters)
from ..gibbs import TimingBreakdown
from ..kernels import (DistanceScaling, KernelSpec, kernel_weight,
                       knn_bandwidth, scaled_distance)

N_PREDICTOR = 4
# phi embedding: 4 prior means, 4 log prior variances, log sample size,
# and 4 spare coordinates that stay zero; they are kept because the
# distance sums all 13 squared terms, and dropping them would change the
# order of that sum and so the distances in their last bits.
PHI_DIM = 13
_RIDGE = 1e-10
_EIG_FLOOR = 1e-12
_MIN_POSITIVE = 8
_RATE_CHECK_MIN = 50
_ROUND_MAX = 256       # attempts fitted together by the default summary


@dataclass(frozen=True)
class PhiContext:
    """One-step context of a predictor update: prior moments and size.

    variance holds the diagonal of the predictor's one-step covariance;
    any off-diagonal mass is discarded at construction and only its
    largest magnitude is kept as a diagnostic.
    """

    mean: np.ndarray
    variance: np.ndarray
    n_obs: int
    off_diagonal_max: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if mean.shape != (N_PREDICTOR,) or var.shape != (N_PREDICTOR,):
            raise ValueError(f"mean and variance must be length {N_PREDICTOR}")
        if np.any(var <= 0) or not np.all(np.isfinite(var)):
            raise ValueError("prior variances must be positive and finite")
        if self.n_obs < 1:
            raise ValueError("n_obs must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)

    @classmethod
    def from_projection(cls, mean: np.ndarray, cov: np.ndarray,
                        n_obs: int) -> "PhiContext":
        cov = np.asarray(cov, dtype=float)
        diag = np.diag(cov).copy()
        off = cov - np.diag(diag)
        off_max = float(np.max(np.abs(off))) if off.size else 0.0
        return cls(mean=mean, variance=diag, n_obs=n_obs,
                   off_diagonal_max=off_max)

    def embed(self) -> np.ndarray:
        """13-coordinate embedding used by the phi distance.

        Variances and sample size enter on log scale; the spare slots
        stay zero.
        """
        out = np.zeros(PHI_DIM)
        out[:N_PREDICTOR] = self.mean
        out[N_PREDICTOR:2 * N_PREDICTOR] = np.log(self.variance)
        out[2 * N_PREDICTOR] = math.log(self.n_obs)
        return out


@dataclass(frozen=True)
class PhiHypercube:
    """Axis-aligned box the training contexts are drawn from uniformly."""

    f_low: np.ndarray
    f_high: np.ndarray
    q_low: float = 0.0
    q_high: float = 1e-5
    n_low: int = 2
    n_high: int = 1000

    def __post_init__(self):
        lo = np.asarray(self.f_low, dtype=float)
        hi = np.asarray(self.f_high, dtype=float)
        if lo.shape != (N_PREDICTOR,) or hi.shape != (N_PREDICTOR,):
            raise ValueError(f"f bounds must be length {N_PREDICTOR}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("f bounds must be finite")
        if np.any(hi < lo):
            raise ValueError("f_high must not be below f_low")
        if not 0 <= self.q_low < self.q_high:
            raise ValueError("need 0 <= q_low < q_high")
        if not 2 <= self.n_low <= self.n_high:
            raise ValueError("need 2 <= n_low <= n_high")
        object.__setattr__(self, "f_low", lo)
        object.__setattr__(self, "f_high", hi)

    def contains(self, means: np.ndarray, variances: np.ndarray,
                 n_obs: np.ndarray) -> np.ndarray:
        """Which contexts lie inside the box, one per row of means and
        variances (and entry of n_obs)."""
        return (((means >= self.f_low) & (means <= self.f_high)).all(axis=-1)
                & ((variances >= self.q_low) & (variances <= self.q_high)).all(axis=-1)
                & (n_obs >= self.n_low) & (n_obs <= self.n_high))

    @classmethod
    def from_observed(cls, summaries: np.ndarray, n_obs: np.ndarray,
                      q_high: float = 1e-5) -> "PhiHypercube":
        """Box spanning the observed summaries and sample sizes."""
        s = np.atleast_2d(np.asarray(summaries, dtype=float))
        n = np.asarray(n_obs)
        if s.shape[1] != N_PREDICTOR or not np.all(np.isfinite(s)):
            raise ValueError("summaries must be finite rows of length 4")
        return cls(f_low=s.min(axis=0), f_high=s.max(axis=0),
                   q_high=q_high, n_low=int(n.min()), n_high=int(n.max()))


@dataclass(frozen=True)
class TrainingPair:
    """A single (context, predictor, summary) training triple."""

    phi: PhiContext
    predictor: np.ndarray
    summary: np.ndarray


@dataclass(frozen=True)
class TrainingSet:
    """Column-oriented table of training pairs plus the phi metric.

    The embedded contexts and their per-coordinate standard-deviation
    scaling are computed once at construction; constant coordinates are
    floored inside DistanceScaling so the spare slots stay inert.  The
    build record: redraw_count failed attempts, and the seconds spent
    drawing (contexts and samples) and estimating summaries.
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

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.phi_means, dtype=float))
        q = np.atleast_2d(np.asarray(self.phi_variances, dtype=float))
        n = np.asarray(self.phi_n)
        lam = np.atleast_2d(np.asarray(self.predictors, dtype=float))
        s = np.atleast_2d(np.asarray(self.summaries, dtype=float))
        rows = f.shape[0]
        for arr, name in ((q, "phi_variances"), (lam, "predictors"),
                          (s, "summaries")):
            if arr.shape != (rows, N_PREDICTOR):
                raise ValueError(f"{name} must have shape ({rows}, 4)")
        if n.shape != (rows,) or np.any(n < 1):
            raise ValueError("phi_n must hold one positive size per row")
        if np.any(q <= 0):
            raise ValueError("phi_variances must be positive")
        if not np.all(np.isfinite(s)):
            raise ValueError("summaries must be finite")
        emb = np.zeros((rows, PHI_DIM))
        emb[:, :N_PREDICTOR] = f
        emb[:, N_PREDICTOR:2 * N_PREDICTOR] = np.log(q)
        emb[:, 2 * N_PREDICTOR] = np.log(n.astype(float))
        for attr, val in (("phi_means", f), ("phi_variances", q),
                          ("phi_n", n), ("predictors", lam),
                          ("summaries", s), ("embedded", emb),
                          ("scaling", DistanceScaling.from_samples(emb))):
            object.__setattr__(self, attr, val)

    @property
    def n_pairs(self) -> int:
        return self.phi_means.shape[0]

    def pair(self, i: int) -> TrainingPair:
        phi = PhiContext(mean=self.phi_means[i],
                         variance=self.phi_variances[i],
                         n_obs=int(self.phi_n[i]))
        return TrainingPair(phi=phi, predictor=self.predictors[i],
                            summary=self.summaries[i])

    def centered(self) -> np.ndarray:
        """(predictor - mean, summary - mean) rows, the 8-vectors the
        localized covariance is taken over."""
        return np.hstack((self.predictors - self.phi_means,
                          self.summaries - self.phi_means))


def generate_phi_training_set(
        n_pairs: int, cube: PhiHypercube, rng: np.random.Generator,
        summarize: Optional[Callable[[np.ndarray, int, np.random.Generator],
                                     np.ndarray]] = None,
        max_failure_rate: float = 0.2) -> TrainingSet:
    """Draw contexts uniformly on the hypercube and pair each with a
    simulated summary.

    Pairs whose summary estimation fails (or comes back non-finite) are
    redrawn and counted.  A sustained failure rate above
    max_failure_rate aborts with advice, since it signals contexts the
    observation model cannot support.

    The default summary simulates n observations at the predictor and
    re-estimates them on the link scale.  It runs in rounds of the
    missing count, at most 256 attempts: each attempt of a round draws
    its context and its g-and-k sample in the order of a one-at-a-time
    loop and keeps only the sample's L-moments; the round's targets are
    then fitted together by :func:`estimate_gk_batch`, whose rows are
    what :func:`estimate_gk` returns for each sample, and the failure
    accounting is replayed in attempt order.  Estimation draws no random
    numbers, so the pairs, the redraw count, the abort message and the
    generator's final state are those of fitting every attempt as it is
    drawn.  A round also ends at the attempt where the failures already
    known before fitting (samples too small to fit) reach the abort
    rate, so an abort draws no further than the one-at-a-time loop
    would, and leaves the generator where it did unless an earlier fit
    failed.  A custom summarize hook may draw from rng itself, so it
    runs one attempt per round.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    f_rows = np.empty((n_pairs, N_PREDICTOR))
    q_rows = np.empty((n_pairs, N_PREDICTOR))
    n_rows = np.empty(n_pairs, dtype=int)
    lam_rows = np.empty((n_pairs, N_PREDICTOR))
    s_rows = np.empty((n_pairs, N_PREDICTOR))
    done = failures = attempts = 0
    sim_seconds = fit_seconds = 0.0
    while done < n_pairs:
        size = min(n_pairs - done, _ROUND_MAX) if summarize is None else 1
        draws = []
        # per attempt: the hook's summary, or the L-moment target the
        # batch fit replaces by its estimate; NaN marks a failure
        rows = np.full((size, N_PREDICTOR), np.nan)
        known = failures
        for i in range(size):
            t0 = time.perf_counter()
            f = rng.uniform(cube.f_low, cube.f_high)
            q = rng.uniform(cube.q_low, cube.q_high, size=N_PREDICTOR)
            n = int(rng.integers(cube.n_low, cube.n_high + 1))
            lam = rng.normal(f, np.sqrt(q))
            draws.append((f, q, n, lam))
            t1 = None
            try:
                if summarize is None:
                    data = gk_sample(n, unlink_parameters(lam), rng)
                    t1 = time.perf_counter()
                    rows[i] = estimation_target(data).as_array()
                else:
                    t1 = time.perf_counter()
                    s = np.asarray(summarize(lam, n, rng), dtype=float)
                    if s.shape == (N_PREDICTOR,):
                        rows[i] = s
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
                if tried >= _RATE_CHECK_MIN and known > max_failure_rate * tried:
                    break               # the replay aborts here at the latest
        if summarize is None:
            t0 = time.perf_counter()
            rows = estimate_gk_batch(rows[:len(draws)])
            fit_seconds += time.perf_counter() - t0
        for (f, q, n, lam), s in zip(draws, rows):
            attempts += 1
            if not np.all(np.isfinite(s)):
                failures += 1
                if (attempts >= _RATE_CHECK_MIN
                        and failures > max_failure_rate * attempts):
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
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Kernel weights around phi_star and the weighted covariance.

    The covariance is taken about zero: the pairs are already centered
    by their own prior means, which is the moment the linear Bayes step
    conditions on.
    """
    d = scaled_distance(training.embedded, phi_star.embed(),
                        training.scaling)
    # an exact context match makes the m-th distance zero; any positive
    # bandwidth then keeps exactly the zero-distance pairs inside
    h = knn_bandwidth(d, m) or np.finfo(float).tiny
    local = kernel.with_bandwidth(h)
    weights = kernel_weight(d, local)
    positive = weights > 0
    if int(positive.sum()) < _MIN_POSITIVE:
        raise ValueError(
            f"only {int(positive.sum())} training pairs have positive "
            "weight; increase m or enlarge the training set")
    z = training.centered()[positive]
    w = weights[positive]
    omega = (z * w[:, None]).T @ z / w.sum()
    return omega, weights


def localized_covariance(training: TrainingSet, phi_star: PhiContext,
                         kernel: KernelSpec, m: int) -> np.ndarray:
    """8x8 kernel-weighted covariance of the centered training pairs."""
    return _localize(training, phi_star, kernel, m)[0]


def _linear_bayes(omega: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gain and floored conditional covariance from a joint covariance."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (2 * N_PREDICTOR, 2 * N_PREDICTOR):
        raise ValueError("omega must be 8x8")
    o11 = omega[:N_PREDICTOR, :N_PREDICTOR]
    o12 = omega[:N_PREDICTOR, N_PREDICTOR:]
    o21 = omega[N_PREDICTOR:, :N_PREDICTOR]
    o22 = omega[N_PREDICTOR:, N_PREDICTOR:] + _RIDGE * np.eye(N_PREDICTOR)
    gain = np.linalg.solve(o22, o12.T).T
    cov = o11 - gain @ o21
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, _EIG_FLOOR)) @ vecs.T
    return gain, 0.5 * (cov + cov.T)


def linear_bayes_moments(omega: np.ndarray, f: np.ndarray, s: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the predictor given a summary.

    mean = f + gain (s - f) and cov = top-left block minus the explained
    part, symmetrized and eigenvalue-floored so a Cholesky factor always
    exists.
    """
    f = np.asarray(f, dtype=float).reshape(N_PREDICTOR)
    s = np.asarray(s, dtype=float).reshape(N_PREDICTOR)
    gain, cov = _linear_bayes(omega)
    return f + gain @ (s - f), cov


def sample_lambda_conditional(phi_star: PhiContext, s_obs: np.ndarray,
                              training: TrainingSet, kernel: KernelSpec,
                              m: int, rng: np.random.Generator,
                              timings: Optional[TimingBreakdown] = None
                              ) -> np.ndarray:
    """One draw of the predictor given its context and observed summary.

    Localizes the training set at phi_star, forms the linear Bayes
    moments, then adds back a standardized residual: a training pair is
    resampled among the positive-weight ones in proportion to its kernel
    weight, its predictor is centered at its own fitted value under the
    shared gain, whitened by the conditional covariance root, and the
    same root maps it onto the posterior mean.  The localization time is
    added to ``timings.localize_seconds`` when timings are given.
    """
    s_obs = np.asarray(s_obs, dtype=float).reshape(N_PREDICTOR)
    t_loc = time.perf_counter()
    omega, weights = _localize(training, phi_star, kernel, m)
    if timings is not None:
        timings.localize_seconds += time.perf_counter() - t_loc
    gain, cov = _linear_bayes(omega)
    mean = phi_star.mean + gain @ (s_obs - phi_star.mean)
    root = np.linalg.cholesky(cov)
    pool = np.flatnonzero(weights > 0)
    probs = weights[pool] / weights[pool].sum()
    k = int(rng.choice(pool, p=probs))
    fitted = (training.phi_means[k]
              + gain @ (training.summaries[k] - training.phi_means[k]))
    residual = solve_triangular(root, training.predictors[k] - fitted,
                                lower=True)
    return mean + root @ residual
