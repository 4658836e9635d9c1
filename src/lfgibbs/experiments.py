"""Config-driven experiment grid: methods x seeded replicates on disk.

A JSON config names a model, the methods to compare, and the replicate
seeds.  Each (method, replicate) cell simulates its data, runs its
sampler, and writes its chain as one ``.npy`` array (exact binary
floats, as ``numpy.save`` writes them) plus a JSON sidecar holding the
column names and diagnostics into the output directory; a failed cell
is recorded and never aborts the rest of the grid.  The summary is
recomputed from the stored files alone, so a results directory is
self-describing and the summary is reproducible byte for byte from
disk.

Seeding: everything a cell does is derived from (seed, stream) seed
sequences, so duplicate seeds give bit-identical chains and cells can
run in any order or process.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from lfgibbs.abc import (_whole_number, abc_importance, regression_adjust,
                         simulate_reference_table)
from lfgibbs.gibbs import (ChainConfig, GibbsConfig, TimingBreakdown, _jsonable,
                           run_abc_pass, run_exact_gibbs, run_global_gibbs,
                           run_local_gibbs, save_chain)
from lfgibbs.kernels import DistanceScaling, KernelSpec
from lfgibbs.models.hierarchical import (HierarchicalSpec,
                                         hierarchical_engine_specs,
                                         hierarchical_exact_specs,
                                         hierarchical_initial_state,
                                         hierarchical_model,
                                         hierarchical_pass_specs,
                                         hierarchical_simulate,
                                         hierarchical_state_names)
from lfgibbs.models.mixture import (MixtureSpec, mixture_engine_specs,
                                    mixture_exact_specs, mixture_initial_state,
                                    mixture_model, MIXTURE_STATE_NAMES)
from lfgibbs.statespace import (N_SERIES, STATE_DIM, DlmSpec, SeasonCalendar,
                                TrainingConfig, observation_matrix,
                                run_state_space_gibbs, transition_matrix)
from lfgibbs.statespace.training import DEFAULT_Q_HIGH
from lfgibbs.gk import gk_sample, unlink_parameters

__all__ = [
    "SCHEMA_VERSION",
    "MODELS",
    "METHODS",
    "ExperimentConfig",
    "ResultsBundle",
    "run_experiment",
    "summarize_directory",
    "relative_mse",
    "coverage",
    "credible_interval",
    "timing_table",
]

SCHEMA_VERSION = 1
MODELS = ("mixture", "hierarchical", "statespace")
METHODS = ("exact-gibbs", "abc-importance", "abc-adjusted", "local-gibbs",
           "global-gibbs", "global-gibbs-flexible", "abc-pass")
# the full state-space model has no tractable joint conditional set, so
# an exact sweep is not on its menu; only the trained localized sampler is
_VALID_METHODS = {
    "mixture": ("exact-gibbs", "abc-importance", "abc-adjusted",
                "local-gibbs", "global-gibbs"),
    "hierarchical": METHODS,
    "statespace": ("local-gibbs",),
}
_TRACK_DEFAULT = {
    "mixture": ["theta_1", "theta_2"],
    "hierarchical": ["mu", "tau_mu", "tau_x"],
    "statespace": [],
}
_OPTION_KEYS = {
    "mixture": {"omega", "rho", "lower", "upper", "s_obs"},
    "hierarchical": {"u_groups", "l_obs", "prelocalize", "global_m",
                     "pass_h_mu_u", "pass_h_tau_x"},
    "statespace": {"n_days", "summer_start", "summer_end", "n_low",
                   "n_high", "base_state", "summer_step", "state_noise_sd",
                   "q_high"},
}
# options read as counts or day numbers; the two that default to None may
# also be given as None
_WHOLE_OPTIONS = {"u_groups", "l_obs", "global_m", "prelocalize", "n_days",
                  "summer_start", "summer_end", "n_low", "n_high"}
_NONE_OPTIONS = {"global_m", "prelocalize"}
_CONFIG_KEYS = {"schema", "model", "methods", "seeds", "n_table",
                "n_iterations", "burn_in", "thinning", "m_neighbours",
                "kernel", "nominal", "track", "workers", "out_dir",
                "options"}
_MIN_COVERAGE_REPLICATES = 20


@dataclass
class ExperimentConfig:
    """One experiment grid: model, methods, replicate seeds, sizes."""

    model: str
    methods: Sequence[str]
    seeds: Sequence[int]
    n_table: int = 1000
    n_iterations: int = 500
    burn_in: int = 0
    thinning: int = 1
    m_neighbours: int = 500
    kernel: KernelSpec = field(default_factory=KernelSpec)
    nominal: float = 0.9
    track: Optional[List[str]] = None
    workers: int = 1
    out_dir: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        self.methods = list(self.methods)
        if not self.methods:
            raise ValueError("methods must not be empty")
        valid = _VALID_METHODS[self.model]
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
            if method not in valid:
                raise ValueError(
                    f"method {method!r} is not available for model "
                    f"{self.model!r}")
        self.seeds = [_whole_number(s, "seeds") for s in self.seeds]
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        for name in ("n_table", "m_neighbours", "workers"):
            setattr(self, name, _whole_number(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        # raises on an invalid schedule
        ChainConfig(self.n_iterations, self.burn_in, self.thinning)
        if not 0.0 < self.nominal < 1.0:
            raise ValueError("nominal must lie in (0, 1)")
        unknown = set(self.options) - _OPTION_KEYS[self.model]
        if unknown:
            raise ValueError(
                f"unknown options for {self.model!r}: {sorted(unknown)}")
        self.options = dict(self.options)
        for key in _WHOLE_OPTIONS & set(self.options):
            if not (self.options[key] is None and key in _NONE_OPTIONS):
                self.options[key] = _whole_number(self.options[key], key)
        prelocalize = self.options.get("prelocalize")
        if prelocalize is not None and prelocalize < 1:  # -3 would drop the 3 farthest rows
            raise ValueError(f"prelocalize must be a whole number of at least 1, got {prelocalize}")
        if self.track is None:
            self.track = list(_TRACK_DEFAULT[self.model])

    def option(self, key: str, default):
        return self.options.get(key, default)

    def to_dict(self) -> Dict[str, object]:
        bw = self.kernel.bandwidth
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "n_table": self.n_table,
            "n_iterations": self.n_iterations,
            "burn_in": self.burn_in,
            "thinning": self.thinning,
            "m_neighbours": self.m_neighbours,
            "kernel": {"kind": self.kernel.kind,
                       "bandwidth": None if math.isinf(bw) else bw},
            "nominal": self.nominal,
            "track": list(self.track),
            "workers": self.workers,
            "out_dir": self.out_dir,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentConfig":
        payload = dict(payload)
        schema = payload.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {schema!r}")
        unknown = set(payload) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kernel = payload.pop("kernel", None)
        if kernel is not None:
            bw = kernel.get("bandwidth")
            payload["kernel"] = KernelSpec(
                kernel.get("kind", "uniform"),
                math.inf if bw is None else float(bw))
        missing = [k for k in ("model", "methods", "seeds") if k not in payload]
        if missing:
            raise ValueError(f"config is missing {missing}")
        return cls(**payload)

    def save(self, path) -> None:
        Path(path).write_text(_dump_json(self.to_dict()))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        return cls.from_dict(payload)


@dataclass
class ResultsBundle:
    """Everything run_experiment leaves behind, plus the loaded summary."""

    config: ExperimentConfig
    out_dir: str
    rows: List[Dict[str, object]]
    failures: List[Dict[str, object]]
    truth: Dict[str, object]
    aggregates: Dict[str, object]


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# --- metrics ----------------------------------------------------------------


def credible_interval(samples: np.ndarray, nominal: float,
                      weights: Optional[np.ndarray] = None
                      ) -> Tuple[float, float]:
    """Central interval at the nominal level, optionally weighted."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise ValueError("need at least two samples for an interval")
    if not 0.0 < nominal < 1.0:
        raise ValueError("nominal must lie in (0, 1)")
    tail = 0.5 * (1.0 - nominal)
    if weights is None:
        lo, hi = np.quantile(samples, [tail, 1.0 - tail])
        return float(lo), float(hi)
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != samples.shape or np.any(weights < 0):
        raise ValueError("weights must be nonnegative and match the samples")
    keep = weights > 0  # zero-weight samples must not shift any quantile
    samples, weights = samples[keep], weights[keep]
    if samples.size == 0:
        raise ValueError("weights must not all be zero")
    order = np.argsort(samples, kind="stable")
    x, w = samples[order], weights[order]
    total = w.sum()
    grid = (np.cumsum(w) - 0.5 * w) / total
    return (float(np.interp(tail, grid, x)),
            float(np.interp(1.0 - tail, grid, x)))


def relative_mse(estimates: np.ndarray, reference: np.ndarray,
                 truth) -> float:
    """MSE of one estimator about the truth over the reference's MSE."""
    est = np.asarray(estimates, dtype=float).ravel()
    ref = np.asarray(reference, dtype=float).ravel()
    if est.size != ref.size or est.size == 0:
        raise ValueError("estimates and reference need matched replicates")
    truth = np.broadcast_to(np.asarray(truth, dtype=float), est.shape)
    mse_ref = float(np.mean((ref - truth) ** 2))
    if mse_ref == 0.0:
        raise ValueError("reference estimator has zero MSE; the ratio is "
                         "undefined")
    return float(np.mean((est - truth) ** 2)) / mse_ref


def coverage(intervals: np.ndarray, truth, nominal: float = 0.9) -> float:
    """Fraction of closed intervals containing the truth."""
    if not 0.0 < nominal < 1.0:
        raise ValueError("nominal must lie in (0, 1)")
    intervals = np.atleast_2d(np.asarray(intervals, dtype=float))
    if intervals.shape[1] != 2:
        raise ValueError("intervals must be (lo, hi) rows")
    if intervals.shape[0] < _MIN_COVERAGE_REPLICATES:
        raise ValueError(
            f"coverage needs at least {_MIN_COVERAGE_REPLICATES} replicates")
    truth = np.broadcast_to(np.asarray(truth, dtype=float),
                            (intervals.shape[0],))
    hit = (intervals[:, 0] <= truth) & (truth <= intervals[:, 1])
    return float(hit.mean())


# --- datasets and truth -----------------------------------------------------


def _data_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0)))


def _chain_rng(seed: int, method: str) -> np.random.Generator:
    idx = METHODS.index(method)
    return np.random.default_rng(np.random.SeedSequence((seed, 1 + idx)))


def _table_seed(seed: int, method: str) -> int:
    idx = METHODS.index(method)
    return int(np.random.SeedSequence((seed, 100 + idx)).generate_state(1)[0])


def _hier_spec(config: ExperimentConfig) -> HierarchicalSpec:
    return HierarchicalSpec(u_groups=config.option("u_groups", 10),
                            l_obs=config.option("l_obs", 10))


def _mixture_spec(config: ExperimentConfig) -> MixtureSpec:
    s_obs = config.option("s_obs", (2.5, 2.5))
    return MixtureSpec(omega=float(config.option("omega", 0.3)),
                       rho=float(config.option("rho", 0.7)),
                       lower=float(config.option("lower", -20.0)),
                       upper=float(config.option("upper", 40.0)),
                       s_obs=tuple(float(v) for v in s_obs))


def _statespace_setup(config: ExperimentConfig, seed: int):
    """Synthetic daily datasets from a drifting link-scale truth path."""
    opts = config.options
    calendar = SeasonCalendar(
        n_days=opts.get("n_days", 14),
        summer_start=opts.get("summer_start", 1),
        summer_end=opts.get("summer_end", 0))
    base = np.asarray(opts.get("base_state",
                               [1.0, math.log(0.25), 0.2, math.log(0.62)]),
                      dtype=float)
    step = float(opts.get("summer_step", 0.0))
    noise = float(opts.get("state_noise_sd", 1e-3))
    n_low = opts.get("n_low", 200)
    n_high = opts.get("n_high", 1000)
    rng = _data_rng(seed)
    g = transition_matrix()
    theta = np.zeros((calendar.n_days + 1, STATE_DIM))
    theta[0, :N_SERIES] = base
    # the summer coordinates come last in the component-major state
    theta[0, -N_SERIES:] = step
    for t in range(1, calendar.n_days + 1):
        theta[t] = g @ theta[t - 1] + noise * rng.normal(size=STATE_DIM)
    observations = []
    for t in range(1, calendar.n_days + 1):
        lam = observation_matrix(calendar.is_summer(t)).T @ theta[t]
        n_t = int(rng.integers(n_low, n_high + 1))
        observations.append(gk_sample(n_t, unlink_parameters(lam), rng))
    truth = {"theta_path": theta, "summer_step": step}
    return calendar, observations, truth


def _make_dataset(config: ExperimentConfig, seed: int):
    """Per-replicate dataset, observed summary, and truth metadata."""
    if config.model == "hierarchical":
        spec = _hier_spec(config)
        rng = _data_rng(seed)
        truth_state = hierarchical_model(spec).prior_sample(rng)
        data, summaries = hierarchical_simulate(spec, truth_state, rng)
        s_obs = summaries.as_array()
        names = hierarchical_state_names(spec)
        truth = dict(zip(names, truth_state))
        return {"data": data, "s_obs": s_obs, "truth": truth}
    if config.model == "mixture":
        spec = _mixture_spec(config)
        return {"data": None, "s_obs": np.asarray(spec.s_obs, dtype=float),
                "truth": None}
    calendar, observations, truth = _statespace_setup(config, seed)
    return {"calendar": calendar, "observations": observations,
            "truth": truth}


# --- per-cell execution -----------------------------------------------------


def _cell_paths(out_dir: Path, method: str, replicate: int, seed: int):
    stem = f"{method}__r{replicate}_seed{seed}"
    return (out_dir / "chains" / f"{stem}.npy",
            out_dir / "chains" / f"{stem}.json")


def _gibbs_config(config: ExperimentConfig, initial: np.ndarray,
                  **overrides) -> GibbsConfig:
    base = dict(n_iterations=config.n_iterations, initial=initial,
                burn_in=config.burn_in, thinning=config.thinning,
                kernel=config.kernel, m_neighbours=config.m_neighbours)
    base.update(overrides)
    return GibbsConfig(**base)


def _save_weighted(table, names: List[str], timings: TimingBreakdown,
                   diagnostics: Dict[str, object], chain_path, json_path):
    """Weighted-sample analogue of save_chain: theta columns plus weight."""
    with open(chain_path, "wb") as fh:
        np.save(fh, np.column_stack([table.theta, table.weights]),
                allow_pickle=False)
    payload = {"names": names, "weighted": True,
               "timings": timings.as_dict(),
               "diagnostics": _jsonable(diagnostics)}
    Path(json_path).write_text(_dump_json(payload))


def _run_abc_cell(config: ExperimentConfig, method: str, model, table, s_obs,
                  names: List[str], chain_path, json_path) -> None:
    """Importance-sampling ABC on the table, regression-adjusted if asked."""
    out = abc_importance(model, table, s_obs, config.kernel)
    diagnostics = {"ess": out.ess, "entropy": out.entropy}
    if method == "abc-adjusted":
        out = regression_adjust(out, s_obs)
        diagnostics["zero_slope_summaries"] = out.dropped
    timings = TimingBreakdown(pre_sim_units=float(config.n_table + table.retries),
                              pre_fit_count=int(method == "abc-adjusted"))
    _save_weighted(out.samples, names, timings, diagnostics, chain_path, json_path)


def _run_hierarchical_cell(config: ExperimentConfig, method: str, seed: int,
                           dataset, rng: np.random.Generator,
                           chain_path, json_path) -> None:
    spec = _hier_spec(config)
    data, s_obs = dataset["data"], dataset["s_obs"]
    names = hierarchical_state_names(spec)
    initial = hierarchical_initial_state(spec, data)
    model = hierarchical_model(spec)
    u = spec.u_groups
    sym = tuple(range(2 * u, 2 * u + 4))

    if method == "exact-gibbs":
        out = run_exact_gibbs(hierarchical_exact_specs(spec, data),
                              _gibbs_config(config, initial), rng, names=names)
        save_chain(out, chain_path, json_path)
        return
    if method == "abc-pass":
        specs, dataset_obs = hierarchical_pass_specs(
            spec, data,
            h_mu_u=float(config.option("pass_h_mu_u", 0.5)),
            h_tau_x=float(config.option("pass_h_tau_x", 2.0)))
        out = run_abc_pass(model, specs, s_obs,
                           _gibbs_config(config, initial), rng,
                           dataset_obs=dataset_obs, names=names)
        save_chain(out, chain_path, json_path)
        return

    table = simulate_reference_table(model, config.n_table,
                                     seed=_table_seed(seed, method))
    if method in ("abc-importance", "abc-adjusted"):
        _run_abc_cell(config, method, model, table, s_obs, names, chain_path, json_path)
        return
    if method == "local-gibbs":
        prelocalize = config.option("prelocalize", None)
        if prelocalize is not None:
            d = np.linalg.norm(table.summaries[:, sym] - s_obs[list(sym)],
                               axis=1)
            table = table.subset(np.argsort(d, kind="stable")[:prelocalize])
        out = run_local_gibbs(model, hierarchical_engine_specs(spec), table,
                              s_obs, _gibbs_config(config, initial), rng,
                              names=names)
    elif method in ("global-gibbs", "global-gibbs-flexible"):
        family = "flexible" if method.endswith("flexible") else "linear"
        out = run_global_gibbs(
            model, hierarchical_engine_specs(spec, family), table, s_obs,
            _gibbs_config(config, initial,
                          global_m=config.option("global_m", None),
                          global_weight_indices=sym,
                          global_scaling=DistanceScaling.identity(4)),
            rng, names=names)
    else:
        raise ValueError(f"unsupported method {method!r}")
    out.timings.pre_sim_units += float(config.n_table + table.retries)
    save_chain(out, chain_path, json_path)


def _run_mixture_cell(config: ExperimentConfig, method: str, seed: int,
                      dataset, rng: np.random.Generator,
                      chain_path, json_path) -> None:
    spec = _mixture_spec(config)
    s_obs = dataset["s_obs"]
    names = list(MIXTURE_STATE_NAMES)
    initial = mixture_initial_state()
    model = mixture_model(spec)

    if method == "exact-gibbs":
        out = run_exact_gibbs(mixture_exact_specs(spec),
                              _gibbs_config(config, initial), rng, names=names)
        save_chain(out, chain_path, json_path)
        return
    table = simulate_reference_table(model, config.n_table,
                                     seed=_table_seed(seed, method))
    if method in ("abc-importance", "abc-adjusted"):
        _run_abc_cell(config, method, model, table, s_obs, names, chain_path, json_path)
        return
    engine = run_local_gibbs if method == "local-gibbs" else run_global_gibbs
    out = engine(model, mixture_engine_specs(spec), table, s_obs,
                 _gibbs_config(config, initial), rng, names=names)
    out.timings.pre_sim_units += float(config.n_table + table.retries)
    save_chain(out, chain_path, json_path)


def _run_statespace_cell(config: ExperimentConfig, method: str, seed: int,
                         dataset, rng: np.random.Generator,
                         chain_path, json_path) -> None:
    if method != "local-gibbs":
        raise ValueError(f"unsupported method {method!r}")
    training = TrainingConfig(n_pairs=config.n_table,
                              m_neighbours=config.m_neighbours,
                              kernel=config.kernel,
                              q_high=float(config.option("q_high", DEFAULT_Q_HIGH)))
    chain = ChainConfig(n_iterations=config.n_iterations,
                        burn_in=config.burn_in, thinning=config.thinning)
    out = run_state_space_gibbs(DlmSpec(), dataset["calendar"], training,
                                chain, rng,
                                observations=dataset["observations"])
    save_chain(out, chain_path, json_path)


_CELL_RUNNERS = {
    "hierarchical": _run_hierarchical_cell,
    "mixture": _run_mixture_cell,
    "statespace": _run_statespace_cell,
}


def _run_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """One grid cell, safe to run in a worker process."""
    config = ExperimentConfig.from_dict(payload["config"])
    method, seed = payload["method"], int(payload["seed"])
    replicate = int(payload["replicate"])
    out_dir = Path(payload["out_dir"])
    chain_path, json_path = _cell_paths(out_dir, method, replicate, seed)
    cell = {"method": method, "seed": seed, "replicate": replicate,
            "chain": str(chain_path.relative_to(out_dir)),
            "meta": str(json_path.relative_to(out_dir))}
    try:
        dataset = _make_dataset(config, seed)
        _CELL_RUNNERS[config.model](config, method, seed, dataset,
                                    _chain_rng(seed, method),
                                    chain_path, json_path)
    except Exception as exc:
        return {**cell, "status": "failed",
                "error": f"{type(exc).__name__}: {exc}"}
    return {**cell, "status": "ok", "error": None}


# --- grid driver ------------------------------------------------------------


def run_experiment(config: ExperimentConfig,
                   out_dir: Optional[str] = None,
                   workers: Optional[int] = None) -> ResultsBundle:
    """Run every (method, seed) cell and summarize the directory.

    Cells are isolated: one failure is recorded in the manifest and the
    summary, and the remaining cells still run.  With workers > 1 the
    cells are distributed over processes; outputs are per-cell files, so
    there is no shared mutable state.
    """
    target = out_dir if out_dir is not None else config.out_dir
    if target is None:
        raise ValueError("an output directory is required")
    out = Path(target)
    (out / "chains").mkdir(parents=True, exist_ok=True)
    config.save(out / "config.json")

    truth: Dict[str, object] = {}
    for seed in config.seeds:
        dataset = _make_dataset(config, seed)
        truth[str(seed)] = _jsonable(dataset.get("truth"))
    (out / "truth.json").write_text(_dump_json(truth))

    jobs = [{"config": config.to_dict(), "method": method, "seed": seed,
             "replicate": r, "out_dir": str(out)}
            for method in config.methods
            for r, seed in enumerate(config.seeds)]
    n_workers = workers if workers is not None else config.workers
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    else:
        cells = [_run_cell(job) for job in jobs]
    (out / "cells.json").write_text(_dump_json(cells))

    summary = summarize_directory(out)
    return ResultsBundle(config=config, out_dir=str(out),
                         rows=summary["rows"], failures=summary["failures"],
                         truth=summary["truth"],
                         aggregates=summary["aggregates"])


def _load_cell_stats(out_dir: Path, cell: Dict[str, object],
                     track: List[str], nominal: float) -> Dict[str, object]:
    meta = json.loads((out_dir / cell["meta"]).read_text())
    names = meta["names"]
    weighted = bool(meta.get("weighted", False))
    body = _load_chain(out_dir / cell["chain"], len(names) + weighted)
    weights = body[:, -1] if weighted else None
    states = body[:, :-1] if weighted else body
    means, intervals, ess, rhat = {}, {}, {}, {}
    for name in track:
        j = names.index(name)
        col = states[:, j]
        if weighted:
            total = weights.sum()
            means[name] = float((col * weights).sum() / total)
            ess[name] = meta.get("diagnostics", {}).get("ess")
            rhat[name] = None
        else:
            means[name] = float(col.mean())
            stored = meta.get("ess") or []
            ess[name] = stored[j] if j < len(stored) else None
            stored = meta.get("split_rhat") or []
            rhat[name] = stored[j] if j < len(stored) else None
        intervals[name] = list(credible_interval(col, nominal, weights))
    return {
        "method": cell["method"], "seed": cell["seed"],
        "replicate": cell["replicate"], "chain": cell["chain"],
        "n_rows": int(states.shape[0]), "weighted": weighted,
        "means": means, "intervals": intervals, "ess": ess, "split_rhat": rhat,
        "timings": meta.get("timings", {}),
        "acceptance_rates": meta.get("acceptance_rates", {}),
    }


def _load_chain(path: Path, width: int) -> np.ndarray:
    """The 2-D float array of ``width`` columns stored at ``path``; a
    ValueError naming the file for anything else, such as a text chain."""
    try:
        with open(path, "rb") as fh:
            body = np.load(fh, allow_pickle=False)
    except ValueError:
        body = None
    if not (isinstance(body, np.ndarray) and body.ndim == 2
            and body.dtype.kind == "f" and body.shape[1] == width):
        raise ValueError(f"{path} is not a 2-D float array of {width} "
                         "columns; chains are .npy files written by "
                         "numpy.save")
    return body


def _aggregates(config: ExperimentConfig, rows: List[Dict[str, object]],
                truth: Dict[str, object]) -> Dict[str, object]:
    """Truth-based cross-replicate metrics, where they are defined."""
    track = config.track
    if not track or all(truth.get(str(s)) is None for s in config.seeds):
        return {}
    by_method: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    out: Dict[str, object] = {"mse": {}, "coverage": {}}
    for method, cells in by_method.items():
        cells = sorted(cells, key=lambda c: c["replicate"])
        mse_block, cov_block = {}, {}
        for name in track:
            pairs = [(c["means"][name], truth[str(c["seed"])][name],
                      c["intervals"][name])
                     for c in cells if truth.get(str(c["seed"])) is not None]
            if not pairs:
                continue
            est = np.array([p[0] for p in pairs])
            tru = np.array([p[1] for p in pairs])
            mse_block[name] = float(np.mean((est - tru) ** 2))
            if len(pairs) >= _MIN_COVERAGE_REPLICATES:
                ivals = np.array([p[2] for p in pairs])
                cov_block[name] = coverage(ivals, tru, config.nominal)
        out["mse"][method] = mse_block
        if cov_block:
            out["coverage"][method] = cov_block
    reference = "exact-gibbs"
    if reference in out["mse"]:
        rel: Dict[str, object] = {}
        for method, block in out["mse"].items():
            rel[method] = {}
            for name, value in block.items():
                ref = out["mse"][reference].get(name)
                if ref:
                    rel[method][name] = value / ref
        out["relative_mse"] = rel
    if not out["coverage"]:
        del out["coverage"]
    return out


def summarize_directory(out_dir) -> Dict[str, object]:
    """Rebuild summary.json purely from the files in a results directory.

    Each ok cell's chain is read from its ``.npy`` file and its names and
    diagnostics from its JSON sidecar, which gives each row the ESS and
    split R-hat of every tracked column (split R-hat is null for a
    weighted cell).  A chain that is not a 2-D float array of the
    sidecar's width (one column more for a weighted cell), such as a text
    chain from an older results directory, raises a ValueError naming the
    file.
    """
    out = Path(out_dir)
    config = ExperimentConfig.load(out / "config.json")
    cells = json.loads((out / "cells.json").read_text())
    truth = json.loads((out / "truth.json").read_text())
    rows = [_load_cell_stats(out, cell, config.track, config.nominal)
            for cell in cells if cell["status"] == "ok"]
    failures = [{k: cell[k] for k in ("method", "seed", "replicate", "error")}
                for cell in cells if cell["status"] != "ok"]
    summary = {
        "schema": SCHEMA_VERSION,
        "model": config.model,
        "rows": rows,
        "failures": failures,
        "truth": truth,
        "aggregates": _aggregates(config, rows, truth),
    }
    (out / "summary.json").write_text(_dump_json(_jsonable(summary)))
    return summary


_COUNT_FIELDS = ("pre_sim_units", "pre_fit_count", "in_sim_units",
                 "in_fit_count", "setup_sim_units")
_SECOND_FIELDS = ("pre_sim_seconds", "pre_fit_seconds", "in_sim_seconds",
                  "in_fit_seconds", "sampler_seconds")


def timing_table(bundle: ResultsBundle) -> List[Dict[str, object]]:
    """Per-method accounting rows: counts are exact and replicate-invariant.

    Simulation and fit counts are determined by the method and the
    configuration, so differing counts across replicates of one method
    indicate a bookkeeping bug and raise.  Seconds are averaged; the
    regeneration units of the ABC-MCMC comparator are data-dependent and
    averaged as well.
    """
    by_method: Dict[str, List[Dict[str, object]]] = {}
    for row in bundle.rows:
        by_method.setdefault(row["method"], []).append(row)
    table = []
    for method in bundle.config.methods:
        rows = by_method.get(method)
        if not rows:
            continue
        entry: Dict[str, object] = {"method": method,
                                    "replicates": len(rows)}
        for fld in _COUNT_FIELDS:
            values = {float(r["timings"].get(fld, 0.0)) for r in rows}
            if len(values) != 1:
                raise ValueError(
                    f"count field {fld!r} varies across replicates of "
                    f"{method!r}")
            entry[fld] = values.pop()
        for fld in _SECOND_FIELDS:
            entry[fld] = float(np.mean([r["timings"].get(fld, 0.0)
                                        for r in rows]))
        entry["extra_sim_units"] = float(
            np.mean([r["timings"].get("extra_sim_units", 0.0) for r in rows]))
        table.append(entry)
    return table
