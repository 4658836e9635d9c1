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

from lfgibbs.abc import ReferenceTable, SimulatorModel, table_importance_ratios
from lfgibbs.diagnostics import effective_sample_size
from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    kernel_weight,
    knn_bandwidth,
    scaled_distance,
)
from lfgibbs.regression import (
    fit_flexible_heteroscedastic,
    fit_weighted_linear,
    fit_weighted_logistic,
    sample_flexible,
    sample_linear_parametric,
    sample_linear_residual,
)

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
_SAMPLING = ("parametric", "residual")


@dataclass
class ConditionalSpec:
    """How one parameter block is updated inside a Gibbs sweep.

    members: coordinates of the parameter vector updated by this spec.  A
    block with several members is a pooled group: one regression is fitted
    per sweep on the stacked per-member rows, which assumes the members are
    conditionally independent given the rest (their feature maps must not
    read each other).
    feature_map(summary, theta, member): regressors for one table row or
    query point.  The member's own coordinate must not appear.
    feature_map_batch(summaries, thetas, member): optional vectorized
    version over table rows, returning an (N, p) matrix.
    exact(theta, member, rng): exact conditional sampler; when set, the
    regression machinery is bypassed entirely for this spec.
    """

    name: str
    members: Tuple[int, ...]
    feature_map: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    feature_map_batch: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    family: str = "linear"
    sampling: str = "parametric"
    exact: Optional[Callable[[np.ndarray, int, np.random.Generator], float]] = None
    positive_response: bool = False
    kernel: Optional[KernelSpec] = None
    m_neighbours: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.members, int):
            self.members = (self.members,)
        self.members = tuple(int(m) for m in self.members)
        if not self.members:
            raise ValueError("a conditional must update at least one coordinate")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sampling not in _SAMPLING:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.exact is None and self.feature_map is None and self.feature_map_batch is None:
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
    """The schedule plus the starting point and localization defaults."""

    initial: np.ndarray = field(kw_only=True)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    m_neighbours: int = 500
    global_kernel: Optional[KernelSpec] = None
    global_m: Optional[int] = None
    global_weight_indices: Optional[Tuple[int, ...]] = None
    # overrides the weighted-std scaling of the global distance; must match
    # the dimension of global_weight_indices when that subset is used
    global_scaling: Optional[DistanceScaling] = None

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float).copy()
        super().__post_init__()


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
    out = np.full(states.shape[1], np.nan)
    if states.shape[0] >= 100:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for j in range(states.shape[1]):
                out[j] = effective_sample_size(states[:, j])
    return out


def save_chain(output: ChainOutput, csv_path: str, json_path: Optional[str] = None) -> None:
    """CSV of retained states plus a JSON diagnostics sidecar."""
    header = ",".join(output.names)
    np.savetxt(csv_path, output.states, delimiter=",", header=header, comments="")
    if json_path is not None:
        payload = {
            "ess": [None if not np.isfinite(e) else float(e) for e in output.ess],
            "names": output.names,
            "timings": output.timings.as_dict(),
            "acceptance_rates": output.acceptance_rates,
            "diagnostics": {k: v for k, v in output.diagnostics.items()
                            if isinstance(v, (int, float, str, list, dict))},
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)


def _default_names(dim: int) -> List[str]:
    return [f"theta_{d + 1}" for d in range(dim)]


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
    """Precomputed per-member design matrices and distance scalings.

    Designs are stored column-major, so the per-sweep distance scan reads
    each coordinate in one contiguous pass.
    """

    def __init__(self, spec: ConditionalSpec, table: ReferenceTable):
        self.spec = spec
        self.designs: List[np.ndarray] = []
        self.scalings: List[DistanceScaling] = []
        self.responses: List[np.ndarray] = []
        for member in spec.members:
            x = _member_design(spec, table, member)
            # scaled on the design as built: the products inside round
            # differently on a column-major copy
            self.scalings.append(DistanceScaling.from_samples(x, table.weights))
            self.designs.append(np.asfortranarray(x))
            self.responses.append(table.theta[:, member].copy())

    def query(self, s_obs: np.ndarray, theta: np.ndarray, j: int) -> np.ndarray:
        spec = self.spec
        if spec.feature_map is not None:
            return np.asarray(spec.feature_map(s_obs, theta, spec.members[j]),
                              dtype=float)
        return np.asarray(
            self.spec.feature_map_batch(s_obs[None, :], theta[None, :],
                                        spec.members[j]), dtype=float)[0]


def _member_design(spec: ConditionalSpec, table: ReferenceTable,
                   member: int) -> np.ndarray:
    if spec.feature_map_batch is not None:
        x = np.asarray(spec.feature_map_batch(table.summaries, table.theta, member),
                       dtype=float)
        if x.shape[0] != len(table):
            raise ValueError(f"batch feature map for {spec.name!r} returned "
                             f"{x.shape[0]} rows for {len(table)} samples")
        return x
    rows = [spec.feature_map(table.summaries[i], table.theta[i], member)
            for i in range(len(table))]
    return np.asarray(rows, dtype=float)


def _localize(design: np.ndarray, scaling: DistanceScaling, ratios: np.ndarray,
              query: np.ndarray, kernel: KernelSpec, m: int
              ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Positive-weight rows around the query, their weights and the bandwidth.

    Only rows closer than the kNN bandwidth can have positive kernel
    weight, so the kernel and the importance ratios are evaluated on those
    rows alone.  Rows come in table order, with the weights the full-table
    product ``kernel_weight(dist) * ratios`` gives them.
    """
    dist = scaled_distance(design, query, scaling)
    h = knn_bandwidth(dist, min(m, dist.size))
    rows = np.flatnonzero(dist < h)
    w = kernel_weight(dist[rows], kernel.with_bandwidth(h)) * ratios[rows]
    # a row inside the bandwidth still weighs zero when its importance
    # ratio is zero
    pos = w > 0
    return rows[pos], w[pos], h


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
                 rng: np.random.Generator) -> float:
    if spec.family == "linear":
        if spec.sampling == "parametric":
            return float(sample_linear_parametric(fit, query, rng))
        return float(sample_linear_residual(fit, query, rng))
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

    Per iteration and per non-exact conditional, the table is reweighted by
    the kernel distance between each row's features and the features of the
    observed summary at the current conditioning values, times the
    prior/proposal ratio; the regression family is refitted on the rows
    with positive weight and the parameter is drawn from it.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    theta = config.initial.copy()
    _validate_members(specs, theta.size)

    ratios = table_importance_ratios(model, table)
    workspaces = {id(spec): _SpecWorkspace(spec, table)
                  for spec in specs if not spec.is_exact}
    timings = TimingBreakdown()

    def update(spec: ConditionalSpec, m: int) -> None:
        ws = workspaces[id(spec)]
        kernel = spec.kernel or config.kernel
        m_nn = spec.m_neighbours or config.m_neighbours
        xs, ys, wws, queries = [], [], [], []
        for j, member in enumerate(spec.members):
            q = ws.query(s_obs, theta, j)
            t_loc = time.perf_counter()
            rows, w, _ = _localize(ws.designs[j], ws.scalings[j], ratios, q, kernel, m_nn)
            timings.localize_seconds += time.perf_counter() - t_loc
            # integer indexing gathers C-ordered rows from the column-major
            # design
            xs.append(ws.designs[j][rows])
            ys.append(ws.responses[j][rows])
            wws.append(w)
            queries.append(q)
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys)
        w = np.concatenate(wws)
        if x.shape[0] < _min_rows(spec, x.shape[1]):
            raise ArithmeticError(
                f"conditional {spec.name!r} at iteration {m}: only "
                f"{x.shape[0]} positive-weight rows among {m_nn} neighbours")
        t_fit = time.perf_counter()
        try:
            fit = _fit_family(spec, x, y, w, rng)
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(
                f"conditional {spec.name!r} failed at iteration {m}: {exc}") from exc
        timings.in_fit_seconds += time.perf_counter() - t_fit
        timings.in_fit_count += 1
        for j, member in enumerate(spec.members):
            theta[member] = _draw_family(spec, fit, queries[j], rng)

    return _gibbs_chain(specs, config, theta, rng, timings, names, update)


def _global_weights(model: Optional[SimulatorModel], table: ReferenceTable,
                    s_obs: np.ndarray, config: GibbsConfig) -> np.ndarray:
    idx = config.global_weight_indices
    cols = np.asarray(idx, dtype=int) if idx is not None else None
    summ = table.summaries if cols is None else table.summaries[:, cols]
    target = s_obs if cols is None else s_obs[cols]
    scaling = config.global_scaling
    if scaling is None:
        scaling = DistanceScaling.from_samples(summ, table.weights)
    dist = scaled_distance(summ, target, scaling)
    kernel = config.global_kernel or config.kernel
    if config.global_m is not None:
        kernel = kernel.with_bandwidth(knn_bandwidth(dist, config.global_m))
    w = kernel_weight(dist, kernel) * table_importance_ratios(model, table)
    if not np.any(w > 0):
        raise ArithmeticError("all global weights are zero; widen the kernel")
    return w


def run_global_gibbs(model: Optional[SimulatorModel], specs: Sequence[ConditionalSpec],
                     table: ReferenceTable, s_obs: np.ndarray, config: GibbsConfig,
                     rng: np.random.Generator,
                     names: Optional[List[str]] = None) -> ChainOutput:
    """Global approximate Gibbs: weight once, fit once, then only draw.

    Weights compare each table row's summary against the observed summary
    (optionally on a subset of coordinates, see
    ``GibbsConfig.global_weight_indices``); each non-exact conditional is
    fitted a single time before the chain starts, and the sweep evaluates
    the fitted conditionals at the current state.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    theta = config.initial.copy()
    _validate_members(specs, theta.size)

    fits: Dict[str, object] = {}
    workspaces: Dict[int, _SpecWorkspace] = {}
    timings = TimingBreakdown()

    non_exact = [spec for spec in specs if not spec.is_exact]
    if non_exact:
        weights = _global_weights(model, table, s_obs, config)
        for spec in non_exact:
            ws = _SpecWorkspace(spec, table)
            workspaces[id(spec)] = ws
            x = np.concatenate(ws.designs, axis=0)
            y = np.concatenate(ws.responses)
            w = np.tile(weights, len(spec.members))
            pos = w > 0
            if int(pos.sum()) < _min_rows(spec, x.shape[1]):
                raise ArithmeticError(
                    f"conditional {spec.name!r}: only {int(pos.sum())} "
                    "positive-weight rows")
            t_fit = time.perf_counter()
            try:
                fit = _fit_family(spec, x[pos], y[pos], w[pos], rng)
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
            theta[member] = _draw_family(spec, fit, ws.query(s_obs, theta, j), rng)

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
