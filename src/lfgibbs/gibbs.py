"""Approximate Gibbs engines driven by regression-estimated conditionals.

Every engine is one Gibbs sweep over its conditionals, run by the single
driver ``_run_sweeps`` on a ``ChainConfig`` schedule.  A conditional with
an exact sampler is drawn from it; the engines differ only in how they
update the others:

  - ``run_exact_gibbs``: every conditional is exact;
  - ``run_local_gibbs``: per sweep and per conditional, reweight the
    reference table around the current conditioning values (feature-space
    nearest neighbours), fit the regression family, draw;
  - ``run_global_gibbs``: weight the table once against the observed
    summary, fit each conditional a single time before the chain, then
    draw from the fitted models;
  - ``run_abc_pass``: the single-parameter ABC-MCMC comparator; each
    parameter is updated by Metropolis-Hastings on its own statistic
    subset, simulating only the data that statistic needs.

The approximate engines reduce to exact Gibbs (same rng stream,
bit-identical trajectories) when all their conditionals are overridden,
which is the main correctness reduction used in the tests.  A parameter
vector is a 1-d float array, and every random draw flows through the
single generator passed in, in sweep order, so trajectories are
reproducible bit for bit under a fixed seed.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from lfgibbs.abc import (ReferenceTable, SimulatorModel, _default_names, _observed_summary,
                         _whole_number)
from lfgibbs.diagnostics import effective_sample_size, split_rhat
from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    _pairwise_sum,
    kernel_weight,
    knn_bandwidth,  # unused; the benchmark trace wraps gibbs.knn_bandwidth
    localize,
    scaled_distance,
    squared_scaled_distance,
)
from lfgibbs.regression import (
    fit_flexible_heteroscedastic,
    fit_weighted_linear,
    fit_weighted_logistic,
    sample_flexible,
    sample_linear_parametric,
)
# sample_linear_residual is not called here any more; the benchmark trace
# (perfbench/tracing.py) wraps it by this module's attribute
from lfgibbs.regression import sample_linear_residual  # noqa: F401

__all__ = [
    "ConditionalSpec",
    "ChainConfig",
    "GibbsConfig",
    "TimingBreakdown",
    "ChainOutput",
    "PassParamSpec",
    "run_exact_gibbs",
    "run_local_gibbs",
    "run_global_gibbs",
    "run_abc_pass",
    "save_chain",
]

_FAMILIES = ("linear", "logistic", "flexible")
_FIT_HEALTH = ("fits_dropping_columns", "most_columns_dropped", "fits_rescaled",
               "logistic_not_converged")


@dataclass
class ConditionalSpec:
    """How one parameter block is updated inside a Gibbs sweep.

    members: coordinates of the parameter vector updated by this spec.  A
    block with several members is a pooled group: one regression is fitted
    per sweep on the stacked per-member rows, which assumes the members are
    conditionally independent given the rest (their feature maps must not
    read each other).
    feature_map_batch(summaries, thetas, member): regressors for a stack of
    table rows or query points, returning an (N, p) matrix; a query is a
    stack of one.  The member's own coordinate must not appear.
    exact(theta, member, rng): exact conditional sampler; when set, the
    regression machinery is bypassed entirely for this spec.
    """

    name: str
    members: Tuple[int, ...]
    feature_map_batch: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    family: str = "linear"
    exact: Optional[Callable[[np.ndarray, int, np.random.Generator], float]] = None
    positive_response: bool = False

    def __post_init__(self):
        if isinstance(self.members, int):
            self.members = (self.members,)
        self.members = tuple(int(m) for m in self.members)
        if not self.members:
            raise ValueError("a conditional must update at least one coordinate")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.exact is None and self.feature_map_batch is None:
            raise ValueError(f"conditional {self.name!r} needs a feature map "
                             "or an exact sampler")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


@dataclass
class ChainConfig:
    """Sweep count and retention, the schedule of every engine.

    Sweeps are numbered m = 1..n_iterations; sweep m is retained when
    m > burn_in and (m - burn_in) % thinning == 0.
    """

    n_iterations: int
    burn_in: int = 0
    thinning: int = 1

    def __post_init__(self):
        for name in ("n_iterations", "burn_in", "thinning"):
            setattr(self, name, _whole_number(getattr(self, name), name))
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        if self.burn_in < 0 or self.burn_in >= self.n_iterations:
            raise ValueError("burn_in must lie in [0, n_iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")

    @property
    def n_retained(self) -> int:
        return (self.n_iterations - self.burn_in) // self.thinning


@dataclass
class GibbsConfig(ChainConfig):
    """The schedule plus the starting point and localization settings."""

    initial: np.ndarray = field(kw_only=True)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    m_neighbours: int = 500
    global_m: Optional[int] = None
    global_weight_indices: Optional[Tuple[int, ...]] = None
    # overrides the weighted-std scaling of the global distance; must match
    # the dimension of global_weight_indices when that subset is used
    global_scaling: Optional[DistanceScaling] = None

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float).copy()
        super().__post_init__()
        # the table length bounds both counts only when an engine runs
        self.m_neighbours = _whole_number(self.m_neighbours, "m_neighbours")
        if self.m_neighbours < 1:
            raise ValueError("m_neighbours must be at least 1")
        if self.global_m is not None:
            self.global_m = _whole_number(self.global_m, "global_m")
            if self.global_m < 1:
                raise ValueError("global_m must be None or at least 1")


@dataclass
class TimingBreakdown:
    """Where the computation went: simulation, fitting, or the sweep itself.

    Simulation work is counted in "units" whose meaning the caller fixes
    (reference-table rows for table-based engines, synthetic dataset
    equivalents for the ABC-MCMC comparator).  Pre-sampler work happens
    before the first iteration; in-sampler work inside the iterations.
    ``localize_seconds`` is the time local Gibbs spends reweighting the
    table around each query, or the state-space sampler the training
    pairs around each context phi; it is a part of ``sampler_seconds``,
    not carved out of it.
    """

    pre_sim_units: float = 0.0
    pre_sim_seconds: float = 0.0
    pre_fit_count: int = 0
    pre_fit_seconds: float = 0.0
    in_sim_units: float = 0.0
    in_sim_seconds: float = 0.0
    in_fit_count: int = 0
    in_fit_seconds: float = 0.0
    sampler_seconds: float = 0.0
    localize_seconds: float = 0.0
    setup_sim_units: float = 0.0
    extra_sim_units: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


@dataclass
class ChainOutput:
    """Retained states plus per-parameter ESS and accounting."""

    states: np.ndarray
    names: List[str]
    timings: TimingBreakdown
    ess: np.ndarray = field(default=None)
    acceptance_rates: Dict[str, float] = field(default_factory=dict)
    fits: Dict[str, object] = field(default_factory=dict)
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.ess is None:
            self.ess = _chain_ess(self.states)

    def mean(self) -> np.ndarray:
        return self.states.mean(axis=0)


def _chain_ess(states: np.ndarray) -> np.ndarray:
    if states.shape[0] < 100:
        return np.full(states.shape[1], np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return effective_sample_size(states)


def save_chain(output: ChainOutput, path: str, json_path: str) -> None:
    """Retained states as a ``.npy`` array plus a JSON diagnostics sidecar.

    The states are written with ``np.save`` to a file opened at exactly
    ``path``, whatever its suffix, so they load back bit for bit.  The
    column names live in the sidecar, beside the ESS and split R-hat of
    each column (aligned with ``names``; null where undefined), the
    timings, the acceptance rates and the engine's diagnostics.  Arrays
    in the diagnostics are written as nested lists, and a NaN or
    infinite number as null.
    """
    with open(path, "wb") as fh:
        np.save(fh, output.states, allow_pickle=False)
    payload = {
        "ess": output.ess,
        "split_rhat": split_rhat(output.states),
        "names": output.names,
        "timings": output.timings.as_dict(),
        "acceptance_rates": output.acceptance_rates,
        "diagnostics": output.diagnostics,
    }
    with open(json_path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)


def _jsonable(value):
    """``value`` with numpy scalars and arrays made plain JSON values; a
    NaN or infinite float becomes None."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if not math.isfinite(value) else value
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _validate_members(specs: Sequence, dim: int) -> None:
    seen: set = set()
    for spec in specs:
        for m in spec.members:
            if not 0 <= m < dim:
                raise ValueError(f"conditional {spec.name!r} member {m} out of range")
            if m in seen:
                raise ValueError(f"coordinate {m} updated by more than one conditional")
            seen.add(m)
    missing = sorted(set(range(dim)) - seen)
    if missing:
        raise ValueError(f"no conditional updates coordinates {missing}")


def _run_sweeps(config: ChainConfig, sweep: Callable[[int], None],
                row: Callable[[], np.ndarray], width: int,
                timings: TimingBreakdown) -> np.ndarray:
    """Run sweeps m = 1..n_iterations and stack the retained rows.

    ``sweep(m)`` advances the chain by one sweep; ``row()`` is the state
    to keep after it.  The loop is the timed region: ``sampler_seconds``
    is its time less the in-sampler fit and simulation seconds the sweeps
    booked into ``timings``.
    """
    kept = np.empty((config.n_retained, width))
    k = 0
    tic = time.perf_counter()
    for m in range(1, config.n_iterations + 1):
        sweep(m)
        if m > config.burn_in and (m - config.burn_in) % config.thinning == 0:
            kept[k] = row()
            k += 1
    timings.sampler_seconds = max(0.0, time.perf_counter() - tic
                                  - timings.in_fit_seconds - timings.in_sim_seconds)
    return kept


def _gibbs_chain(specs: Sequence, config: GibbsConfig, theta: np.ndarray,
                 rng: np.random.Generator, timings: TimingBreakdown,
                 names: Optional[List[str]],
                 update: Optional[Callable[[object, int], None]] = None,
                 **extra) -> ChainOutput:
    """Gibbs sweeps over ``specs`` in order, run by the driver.

    Exact conditionals are drawn here; ``update(spec, m)`` sets the
    members of every other spec in ``theta`` at sweep m.  A conditional
    that draws a non-finite value raises ArithmeticError naming itself and
    the sweep.
    """
    blocks = [(spec, np.asarray(spec.members)) for spec in specs]

    def sweep(m: int) -> None:
        for spec, members in blocks:
            if spec.is_exact:
                for member in spec.members:
                    theta[member] = spec.exact(theta, member, rng)
            else:
                update(spec, m)
            if not np.isfinite(theta[members]).all():
                raise ArithmeticError(
                    f"conditional {spec.name!r} drew a non-finite value at sweep {m}")

    kept = _run_sweeps(config, sweep, lambda: theta, theta.size, timings)
    return ChainOutput(states=kept, names=names or _default_names(theta.size),
                       timings=timings, **extra)


def run_exact_gibbs(specs: Sequence[ConditionalSpec], config: GibbsConfig,
                    rng: np.random.Generator,
                    names: Optional[List[str]] = None) -> ChainOutput:
    """Plain Gibbs sweep; every conditional must carry an exact sampler."""
    theta = config.initial.copy()
    _validate_members(specs, theta.size)
    for spec in specs:
        if not spec.is_exact:
            raise ValueError(f"conditional {spec.name!r} has no exact sampler")
    return _gibbs_chain(specs, config, theta, rng, TimingBreakdown(), names)


# --- shared regression machinery -----------------------------------------


class _SpecWorkspace:
    """Each distinct design column of a conditional, stored once.

    Member j's design is ``columns[k]`` for k in ``index[j]``, each column
    a contiguous table-length array scaled by ``scales[k]``.  Column c of
    member j is stored as column c of member 0 when the two columns and
    their ``DistanceScaling`` scales are bitwise equal (the pooled group
    means share their intercept and hyperparameter columns); designs are
    built and scaled one member at a time, so a full set of per-member
    designs is never held at once.  Member j's response ``responses[j]``
    is a view of its column of the table's theta, not a copy.

    ``squared_distances`` keeps each column's squared scaled term
    ((x - q) / s)^2 together with the query value q it was computed for,
    and recomputes a term only when its query coordinate changes.  When
    every member of a pooled group of fewer than 8 columns reads the same
    stored columns in its first ``n_shared`` (at least 2) positions, the
    sum of those terms is kept in ``prefix`` and reused until one of them
    is recomputed; other workspaces hold no prefix.
    """

    def __init__(self, spec: ConditionalSpec, table: ReferenceTable):
        self.spec = spec
        self.columns: List[np.ndarray] = []
        scales: List[float] = []
        self.index: List[np.ndarray] = []
        self.responses: List[np.ndarray] = []
        for member in spec.members:
            x = _member_design(spec, table, member)
            if self.index and x.shape[1] != self.index[0].size:
                raise ValueError(
                    f"feature map for {spec.name!r} returned {x.shape[1]} columns "
                    f"for member {member}, {self.index[0].size} for member "
                    f"{spec.members[0]}")
            # scaled on the design as built: the products inside round
            # differently on a column-major copy
            s = DistanceScaling.from_samples(x, table.weights).scales
            index = []
            for c in range(x.shape[1]):
                k = self.index[0][c] if self.index else None
                if k is None or not (_same_bits(s[c], scales[k])
                                     and _same_bits(x[:, c], self.columns[k])):
                    k = len(self.columns)
                    self.columns.append(np.ascontiguousarray(x[:, c]))
                    scales.append(s[c])
                index.append(k)
            self.index.append(np.asarray(index))
            self.responses.append(table.theta[:, member])
        self.scales = np.asarray(scales)
        self.terms: List[Optional[np.ndarray]] = [None] * len(self.columns)
        self.term_query = np.full(len(self.columns), np.nan)
        self.computed = self.reused = 0
        # every member adds at least one term of its own to the prefix
        p = self.index[0].size
        shared = 0
        while shared < p - 1 and all(ix[shared] == self.index[0][shared]
                                     for ix in self.index[1:]):
            shared += 1
        self.n_shared = shared if len(self.index) > 1 and shared >= 2 and p < 8 else 0
        self.prefix = np.empty(len(table)) if self.n_shared else None
        self.prefix_fresh = False

    def query(self, s_obs: np.ndarray, theta: np.ndarray, j: int) -> np.ndarray:
        spec = self.spec
        return np.asarray(
            spec.feature_map_batch(s_obs[None, :], theta[None, :],
                                   spec.members[j]), dtype=float)[0]

    def squared_distances(self, j: int, query: np.ndarray) -> np.ndarray:
        """Squared scaled distances of every table row to ``query`` in member j's design.

        Bit-identical to the sum that ``scaled_distance(design_j, query,
        scaling_j)`` takes the root of: the same elementwise terms, summed
        in the order numpy sums a C-ordered row.  A term is reused while its
        query coordinate compares equal (0.0 and -0.0 square alike).  Below
        8 terms numpy sums left to right, so the shared prefix, itself
        summed left to right, starts every member's sum; 8 terms or more
        go through ``_pairwise_sum``.
        """
        index = self.index[j]
        if query.shape != index.shape:
            raise ValueError(f"query has shape {query.shape}, expected {index.shape}")
        stale = np.flatnonzero(query != self.term_query[index])
        for c in stale:
            k = index[c]
            if self.terms[k] is None:
                self.terms[k] = np.empty_like(self.columns[k])
            z = np.subtract(self.columns[k], query[c], out=self.terms[k])
            z /= self.scales[k]
            z *= z
            self.term_query[k] = query[c]
        self.computed += stale.size
        self.reused += index.size - stale.size
        s = self.n_shared
        if not s:
            return _pairwise_sum(lambda c: self.terms[index[c]], 0, index.size)
        if stale.size and stale[0] < s:
            self.prefix_fresh = False
        if not self.prefix_fresh:
            np.add(self.terms[index[0]], self.terms[index[1]], out=self.prefix)
            for c in range(2, s):
                self.prefix += self.terms[index[c]]
            self.prefix_fresh = True
        acc = self.prefix + self.terms[index[s]]
        for c in range(s + 1, index.size):
            acc += self.terms[index[c]]
        return acc

    def pooled(self, kept: Sequence[Tuple[np.ndarray, np.ndarray]]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pooled fit's design, response and weights.

        ``kept[j]`` is member j's (rows, weights).  The members' rows are
        stacked in member order, as concatenating their design rows,
        responses and weights would stack them, into one C-ordered buffer:
        the (n, p) design, then the n responses, then the n weights.
        """
        n = sum(rows.size for rows, _ in kept)
        p = self.index[0].size
        buf = np.empty(n * (p + 2))
        x = buf[:n * p].reshape(n, p)
        y = buf[n * p:n * (p + 1)]
        w = buf[n * (p + 1):]
        lo = 0
        for j, (rows, wj) in enumerate(kept):
            hi = lo + rows.size
            for c, k in enumerate(self.index[j]):
                x[lo:hi, c] = self.columns[k][rows]
            y[lo:hi] = self.responses[j][rows]
            w[lo:hi] = wj
            lo = hi
        return x, y, w


def _same_bits(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a).view(np.uint64),
                               np.asarray(b).view(np.uint64)))


def _member_design(spec: ConditionalSpec, table: ReferenceTable,
                   member: int) -> np.ndarray:
    x = np.asarray(spec.feature_map_batch(table.summaries, table.theta, member),
                   dtype=float)
    if x.shape[0] != len(table):
        raise ValueError(f"batch feature map for {spec.name!r} returned "
                         f"{x.shape[0]} rows for {len(table)} samples")
    return x


def _fit_family(spec: ConditionalSpec, x: np.ndarray, y: np.ndarray,
                w: np.ndarray, rng: np.random.Generator):
    # one conditional-model fit regardless of internal stages, so recorded
    # fit counts follow the sweeps-times-conditionals accounting exactly
    if spec.family == "linear":
        return fit_weighted_linear(x, y, w)
    if spec.family == "logistic":
        return fit_weighted_logistic(x, y, w)
    return fit_flexible_heteroscedastic(x, y, w,
                                        positive_response=spec.positive_response,
                                        rng=rng)


def _draw_family(spec: ConditionalSpec, fit, query: np.ndarray,
                 rng: np.random.Generator, m: int) -> float:
    if spec.family == "linear":
        try:
            return float(sample_linear_parametric(fit, query, rng))
        except ArithmeticError as exc:
            raise ArithmeticError(f"conditional {spec.name!r} at sweep {m}: {exc}") from exc
    if spec.family == "logistic":
        return 1.0 if rng.random() < fit.predict_prob(query) else 0.0
    return float(sample_flexible(fit, query, rng))


def _min_rows(spec: ConditionalSpec, n_features: int) -> int:
    if spec.family == "linear":
        return n_features + 1
    if spec.family == "logistic":
        return 2
    return 50


def run_local_gibbs(model: Optional[SimulatorModel], specs: Sequence[ConditionalSpec],
                    table: ReferenceTable, s_obs: np.ndarray, config: GibbsConfig,
                    rng: np.random.Generator,
                    names: Optional[List[str]] = None) -> ChainOutput:
    """Localized approximate Gibbs: refit every conditional every sweep.

    Per iteration and per non-exact conditional, the prior-drawn table is
    reweighted by the kernel distance between each row's features and the
    features of the observed summary at the current conditioning values;
    the regression family is refitted on the rows with positive weight and
    the parameter is drawn from it.  ``model`` is unused; it keeps the
    calling convention of the table engines.

    Each member is localized by ``kernels.localize`` at the kNN bandwidth
    of ``m_neighbours`` rows (all rows of a shorter table) on the squared
    distances of ``_SpecWorkspace.squared_distances``, which recomputes a
    squared column term only when its query coordinate changed since the
    sweep before.  On a table of at least 16 m rows the m-th distance is
    selected among the rows under a bound sampled from every 8th distance
    (the exact bracket of ``kernels``), so the selection costs about the
    kept rows rather than the table; roots are taken only on the kept rows
    of an Epanechnikov kernel, and the uniform kernel's are weighted 1
    without any.  A pooled group's kept rows are written straight into
    one buffer by ``_SpecWorkspace.pooled``.  Per estimated conditional,
    ``diagnostics["distance_terms"]`` counts the terms computed and reused
    over the chain, and ``diagnostics["localization"]`` gives the min,
    median and max over all sweeps and members of the bandwidth and of
    the Kish effective sample size (sum w)^2 / sum w^2 of the kept kernel
    weights.  ``diagnostics["fit_health"]`` counts linear fits that dropped
    columns, the most one dropped, linear fits solved on the equilibrated
    Gram (``fits_rescaled``) and logistic fits not converged; for a
    linear conditional its ``"sigma2"`` gives the min, median and max over
    all sweeps of the fitted residual variance.
    """
    s_obs = _observed_summary(s_obs, table)
    theta = config.initial.copy()
    _validate_members(specs, theta.size)

    workspaces = {id(spec): _SpecWorkspace(spec, table)
                  for spec in specs if not spec.is_exact}
    # per workspace, the bandwidth and Kish ESS of member j at sweep m in
    # column (m - 1) * members + j
    health = {key: np.empty((2, config.n_iterations * len(ws.spec.members)))
              for key, ws in workspaces.items()}
    fit_health = {key: dict.fromkeys(_FIT_HEALTH, 0) for key in workspaces}
    # per linear workspace, the residual variance of its fit at sweep m in
    # slot m - 1
    sigma2 = {key: np.empty(config.n_iterations) for key, ws in workspaces.items()
              if ws.spec.family == "linear"}
    timings = TimingBreakdown()
    neighbours = min(config.m_neighbours, len(table))

    def update(spec: ConditionalSpec, m: int) -> None:
        ws = workspaces[id(spec)]
        members = len(spec.members)
        kept, queries = [], []
        for j in range(members):
            q = ws.query(s_obs, theta, j)
            t_loc = time.perf_counter()
            rows, w, h = localize(ws.squared_distances(j, q), config.kernel, neighbours)
            timings.localize_seconds += time.perf_counter() - t_loc
            total = w.sum()
            health[id(spec)][:, (m - 1) * members + j] = h, total * total / (w @ w)
            kept.append((rows, w))
            queries.append(q)
        x, y, w = ws.pooled(kept)
        if y.size < _min_rows(spec, x.shape[1]):
            raise ArithmeticError(
                f"conditional {spec.name!r} at iteration {m}: only "
                f"{y.size} positive-weight rows among {neighbours} neighbours")
        t_fit = time.perf_counter()
        try:
            fit = _fit_family(spec, x, y, w, rng)
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(
                f"conditional {spec.name!r} failed at iteration {m}: {exc}") from exc
        timings.in_fit_seconds += time.perf_counter() - t_fit
        timings.in_fit_count += 1
        counts = fit_health[id(spec)]
        dropped = len(fit.dropped) if spec.family == "linear" else 0
        counts["fits_dropping_columns"] += dropped > 0
        counts["most_columns_dropped"] = max(counts["most_columns_dropped"], dropped)
        counts["fits_rescaled"] += spec.family == "linear" and fit.rescaled
        counts["logistic_not_converged"] += spec.family == "logistic" and not fit.converged
        if spec.family == "linear":
            sigma2[id(spec)][m - 1] = fit.sigma2
        for j, member in enumerate(spec.members):
            theta[member] = _draw_family(spec, fit, queries[j], rng, m)

    out = _gibbs_chain(specs, config, theta, rng, timings, names, update)
    out.diagnostics["distance_terms"] = {
        ws.spec.name: {"computed": ws.computed, "reused": ws.reused}
        for ws in workspaces.values()}
    out.diagnostics["localization"] = {
        workspaces[key].spec.name: {"bandwidth": _spread(bandwidths),
                                    "kish_ess": _spread(kish)}
        for key, (bandwidths, kish) in health.items()}
    for key, values in sigma2.items():
        fit_health[key]["sigma2"] = _spread(values)
    out.diagnostics["fit_health"] = {workspaces[key].spec.name: counts
                                     for key, counts in fit_health.items()}
    return out


def _spread(values: np.ndarray) -> Dict[str, float]:
    return {"min": float(np.min(values)), "median": float(np.median(values)),
            "max": float(np.max(values))}


def _global_weights(table: ReferenceTable, s_obs: np.ndarray,
                    config: GibbsConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The table rows the global kernel keeps and their weights."""
    idx = config.global_weight_indices
    cols = np.asarray(idx, dtype=int) if idx is not None else None
    summ = table.summaries if cols is None else table.summaries[:, cols]
    target = s_obs if cols is None else s_obs[cols]
    scaling = config.global_scaling or DistanceScaling.from_samples(summ, table.weights)
    rows, w, _ = localize(squared_scaled_distance(summ, target, scaling),
                          config.kernel, config.global_m)
    if not rows.size:
        raise ArithmeticError("all global weights are zero; widen the kernel")
    return rows, w


def run_global_gibbs(model: Optional[SimulatorModel], specs: Sequence[ConditionalSpec],
                     table: ReferenceTable, s_obs: np.ndarray, config: GibbsConfig,
                     rng: np.random.Generator,
                     names: Optional[List[str]] = None) -> ChainOutput:
    """Global approximate Gibbs: weight once, fit once, then only draw.

    Weights compare each table row's summary against the observed summary
    (optionally on a subset of coordinates, see
    ``GibbsConfig.global_weight_indices``) at the kNN bandwidth of
    ``global_m`` rows, or the kernel's own; each non-exact conditional is
    fitted a single time before the chain starts, on every member's rows
    that ``kernels.localize`` keeps, and the sweep evaluates the fitted
    conditionals at the current state.  ``model`` is unused; it keeps the
    calling convention of the table engines.
    """
    s_obs = _observed_summary(s_obs, table)
    theta = config.initial.copy()
    _validate_members(specs, theta.size)

    fits: Dict[str, object] = {}
    workspaces: Dict[int, _SpecWorkspace] = {}
    timings = TimingBreakdown()

    non_exact = [spec for spec in specs if not spec.is_exact]
    if non_exact:
        kept = _global_weights(table, s_obs, config)
        for spec in non_exact:
            ws = _SpecWorkspace(spec, table)
            workspaces[id(spec)] = ws
            x, y, w = ws.pooled([kept] * len(spec.members))
            if y.size < _min_rows(spec, x.shape[1]):
                raise ArithmeticError(
                    f"conditional {spec.name!r}: only {y.size} positive-weight rows")
            t_fit = time.perf_counter()
            try:
                fit = _fit_family(spec, x, y, w, rng)
            except (ValueError, ArithmeticError) as exc:
                raise ArithmeticError(
                    f"conditional {spec.name!r} failed to fit: {exc}") from exc
            timings.pre_fit_seconds += time.perf_counter() - t_fit
            timings.pre_fit_count += 1
            fits[spec.name] = fit

    def update(spec: ConditionalSpec, m: int) -> None:
        ws = workspaces[id(spec)]
        fit = fits[spec.name]
        for j, member in enumerate(spec.members):
            theta[member] = _draw_family(spec, fit, ws.query(s_obs, theta, j), rng, m)

    return _gibbs_chain(specs, config, theta, rng, timings, names, update, fits=fits)


# --- single-parameter ABC-MCMC comparator ---------------------------------


@dataclass
class PassParamSpec:
    """One parameter class of the single-parameter ABC-MCMC comparator.

    Either ``exact`` is set (the parameter has a tractable conditional and
    is Gibbs-updated), or the Metropolis-Hastings fields are set:
    ``stat_indices`` select this parameter's statistics from the observed
    summary vector (a flat tuple shared by all members, or a dict keyed by
    member when each member owns its own statistic coordinates),
    ``simulate_stats(theta, member, rng)`` generates the synthetic version
    at a parameter value (simulating only the data the statistic needs,
    ``obs_cost`` observations per call), and proposals come from
    ``proposal_sample`` / ``proposal_logpdf``.
    """

    name: str
    members: Tuple[int, ...]
    exact: Optional[Callable[[np.ndarray, int, np.random.Generator], float]] = None
    stat_indices: Optional[Union[Tuple[int, ...], Dict[int, Tuple[int, ...]]]] = None
    simulate_stats: Optional[Callable[[np.ndarray, int, np.random.Generator], np.ndarray]] = None
    obs_cost: int = 0
    proposal_sample: Optional[Callable[[np.ndarray, int, np.random.Generator], float]] = None
    proposal_logpdf: Optional[Callable[[np.ndarray, int, float], float]] = None
    kernel: Optional[KernelSpec] = None
    scaling: Optional[DistanceScaling] = None

    def __post_init__(self):
        if isinstance(self.members, int):
            self.members = (self.members,)
        self.members = tuple(int(m) for m in self.members)
        if self.exact is None:
            needed = (self.stat_indices, self.simulate_stats,
                      self.proposal_sample, self.proposal_logpdf, self.kernel)
            if any(v is None for v in needed):
                raise ValueError(f"parameter class {self.name!r} needs either an "
                                 "exact sampler or the full MH specification")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def indices_for(self, member: int) -> np.ndarray:
        if isinstance(self.stat_indices, dict):
            return np.asarray(self.stat_indices[member], dtype=int)
        return np.asarray(self.stat_indices, dtype=int)


def run_abc_pass(model: SimulatorModel, specs: Sequence[PassParamSpec],
                 s_obs: np.ndarray, config: GibbsConfig, rng: np.random.Generator,
                 dataset_obs: int = 1,
                 names: Optional[List[str]] = None) -> ChainOutput:
    """Single-parameter ABC-MCMC with parameter-specific statistics.

    Each sweep updates every parameter class in turn.  Exact classes are
    Gibbs updates.  MH classes propose a new value, simulate the synthetic
    statistic subset at the proposed parameter, and accept with probability

        min(1, [K(||s'_d - s_obs,d||) pi(theta') q(theta_d | .)] /
               [K(||s_d  - s_obs,d||) pi(theta)  q(theta'_d | .)]).

    The current-state statistic is the one stored at the last acceptance
    (initialized before the first iteration, counted as setup, not
    in-sampler work).  A zero kernel value in the denominator triggers one
    regeneration of the current statistic (counted separately); if it is
    still zero the move is rejected.  A ratio of one or more accepts without
    consuming randomness, so degenerate accept-all configurations replay an
    exact Gibbs trajectory on the same rng stream.

    ``dataset_obs`` converts observation counts into synthetic dataset
    equivalents for the timing breakdown.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    if not np.isfinite(s_obs).all():
        raise ValueError("s_obs must be finite")
    theta = config.initial.copy()
    _validate_members(specs, theta.size)

    timings = TimingBreakdown()
    setup_obs = in_obs = extra_obs = 0
    proposals: Dict[str, int] = {s.name: 0 for s in specs if not s.is_exact}
    accepts: Dict[str, int] = {s.name: 0 for s in specs if not s.is_exact}

    # members are unique across classes, so they key the stored statistics
    current_stats: Dict[int, np.ndarray] = {}
    mh_specs = [s for s in specs if not s.is_exact]
    for spec in mh_specs:
        for member in spec.members:
            if spec.indices_for(member).max(initial=-1) >= s_obs.size:
                raise ValueError(f"parameter class {spec.name!r}: stat_indices reach past s_obs")
            current_stats[member] = np.asarray(
                spec.simulate_stats(theta, member, rng), dtype=float)
            setup_obs += spec.obs_cost

    def _log_kernel(spec: PassParamSpec, stats: np.ndarray, member: int) -> float:
        target = s_obs[spec.indices_for(member)]
        scaling = spec.scaling or DistanceScaling.identity(target.size)
        k = kernel_weight(scaled_distance(stats, target, scaling), spec.kernel)
        return -math.inf if k <= 0 else math.log(k)

    def _simulate(spec: PassParamSpec, state: np.ndarray, member: int) -> np.ndarray:
        t0 = time.perf_counter()
        stats = np.asarray(spec.simulate_stats(state, member, rng), dtype=float)
        timings.in_sim_seconds += time.perf_counter() - t0
        return stats

    def update(spec: PassParamSpec, m: int) -> None:
        nonlocal in_obs, extra_obs
        for member in spec.members:
            proposals[spec.name] += 1
            old = float(theta[member])
            new = float(spec.proposal_sample(theta, member, rng))
            theta_prop = theta.copy()
            theta_prop[member] = new
            stats_prop = _simulate(spec, theta_prop, member)
            in_obs += spec.obs_cost

            log_num = _log_kernel(spec, stats_prop, member)
            if log_num == -math.inf:
                continue
            log_den = _log_kernel(spec, current_stats[member], member)
            if log_den == -math.inf:
                current_stats[member] = _simulate(spec, theta, member)
                extra_obs += spec.obs_cost
                log_den = _log_kernel(spec, current_stats[member], member)
                if log_den == -math.inf:
                    continue
            log_ratio = (log_num - log_den
                         + model.prior_logpdf(theta_prop)
                         - model.prior_logpdf(theta)
                         + spec.proposal_logpdf(theta, member, old)
                         - spec.proposal_logpdf(theta, member, new))
            if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
                theta[member] = new
                current_stats[member] = stats_prop
                accepts[spec.name] += 1

    kernel_info = {}
    for spec in mh_specs:
        scaling = spec.scaling or DistanceScaling.identity(
            spec.indices_for(spec.members[0]).size)
        kernel_info[spec.name] = {"kernel": spec.kernel.kind,
                                  "bandwidth": spec.kernel.bandwidth,
                                  "scales": scaling.scales.tolist()}
    out = _gibbs_chain(specs, config, theta, rng, timings, names, update,
                       diagnostics={"kernels": kernel_info})
    timings.setup_sim_units = setup_obs / dataset_obs
    timings.in_sim_units = in_obs / dataset_obs
    timings.extra_sim_units = extra_obs / dataset_obs
    out.acceptance_rates = {
        name: (accepts[name] / proposals[name] if proposals[name] else math.nan)
        for name in proposals}
    return out
