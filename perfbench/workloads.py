"""The benchmark's fixed-seed workloads.

A workload turns a seed into inputs, outside any timed region, and then
runs one repetition through the public engine entry points.  Engine
functions are looked up through their modules at call time (``abc.``,
``gibbs.``, ``sampler.``) so the per-layer trace can wrap them there.

Timing boundaries of one repetition:
  - ``total_s``: generated inputs to a retained chain with ESS, saved to
    disk by ``save_chain``;
  - ``sample_s``: the engine's sweep loop, read from the engine's own
    ``TimingBreakdown`` (its loop timer starts at the first sweep);
  - ``setup_s``: from the start to the engine's return, minus the sweep
    loop.  This is the reference table or phi-training set, the
    observation summaries, the Kalman init and the fit-once regressions;
    it also holds the engine's closing ESS pass, which the trace reports
    under ``post.s``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lfgibbs import abc, gibbs  # noqa: E402
from lfgibbs.gk import gk_sample, unlink_parameters  # noqa: E402
from lfgibbs.models import hierarchical as hier  # noqa: E402
from lfgibbs.statespace import sampler  # noqa: E402
from lfgibbs.statespace.system import (DlmSpec, SeasonCalendar,  # noqa: E402
                                       block_transition, observation_block)

# Sizes follow the baseline in ROADMAP.md, shortened where a whole
# repetition must fit several times into one benchmark run.
HIER_SPEC = hier.HierarchicalSpec(u_groups=10, l_obs=10)
N_TABLE = 20_000
LOCAL = dict(n_iterations=120, burn_in=20, m_neighbours=500)
EXACT = dict(n_iterations=10_000, burn_in=1_000)
# the hierarchy's columns whose means are compared with exact Gibbs
EXACT_COLUMNS = ("mu", "tau_mu", "tau_x")

SS_DAYS = 14
SS_TRAINING = sampler.TrainingConfig(n_pairs=300, m_neighbours=150)
SS_CHAIN = sampler.ChainConfig(n_iterations=300, burn_in=20)
SS_SIZES = (200, 1000)
SS_BASE = (1.0, math.log(0.25), 0.2, math.log(0.62))
SS_NOISE = 1e-3

# Reference chains, one per workload and seed in REFERENCE_SEEDS, recorded
# by make_reference.py; every run of such a seed is compared with them.
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEEDS = range(100)
# a moved mean beyond this many Monte Carlo standard errors is a changed chain
MC_TOLERANCE = 5.0
# Accuracy errors no run may exceed, whatever its seed.  Set well above
# the worst of the reference seeds (see README.md), so that they catch a
# broken engine rather than the approximation's own error.
HIER_CEILING = {"mu": 1.0, "tau_mu": 2.0, "tau_x": 5.0}
SS_CEILING = {"lambda_rmse": 0.6, "predictor_residual_rms": 0.6}
# How much worse than its reference a state-space chain drawn from other
# random numbers may be: three times the largest change seen over three
# chain streams on each of seeds 0-3 (see README.md).
SS_MARGIN = {"lambda_rmse": 0.25, "predictor_residual_rms": 0.35}
# the same for the RMS change of the posterior-mean predictor path
SS_PATH_TOLERANCE = 0.32


def _stream(seed: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, purpose))


@dataclass
class Rep:
    """One repetition: its timings and the engine's output.

    ``marks`` are the perf_counter readings at the start, at the start of
    the sweep loop (the engine's return minus its loop time), at the
    engine's return and at the end.
    """

    total_s: float
    setup_s: float
    sample_s: float
    output: gibbs.ChainOutput
    marks: tuple


def digest(states: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(states, dtype=float).tobytes()).hexdigest()[:16]


def moments(output: gibbs.ChainOutput, columns) -> Dict[str, list]:
    idx = [output.names.index(c) for c in columns]
    s = output.states[:, idx]
    return {"mean": s.mean(axis=0).tolist(), "sd": s.std(axis=0).tolist(),
            "ess": output.ess[idx].tolist()}


def _timed(start: float, out: gibbs.ChainOutput, save_dir: Path) -> Rep:
    """Close a repetition: split the engine call, save the chain."""
    t = out.timings
    returned = time.perf_counter()
    sample_s = t.sampler_seconds + t.in_fit_seconds + t.in_sim_seconds
    gibbs.save_chain(out, str(save_dir / "chain.csv"), str(save_dir / "chain.json"))
    end = time.perf_counter()
    return Rep(total_s=end - start, setup_s=returned - start - sample_s,
               sample_s=sample_s, output=out,
               marks=(start, returned - sample_s, returned, end))


# --- Gaussian hierarchy ------------------------------------------------------


def hier_inputs(seed: int) -> dict:
    rng = np.random.default_rng(_stream(seed, 0))
    truth = hier.hierarchical_model(HIER_SPEC).prior_sample(rng)
    data, _ = hier.hierarchical_simulate(HIER_SPEC, truth, rng)
    return {"data": data,
            "s_obs": hier.hierarchical_summaries(data).as_array(),
            "table_seed": int(_stream(seed, 1).generate_state(1)[0]),
            "chain_seq": _stream(seed, 2), "exact_seq": _stream(seed, 3)}


def hier_oracle(inputs: dict) -> dict:
    """Exact Gibbs on the same data: the moments the engines approximate."""
    config = gibbs.GibbsConfig(initial=hier.hierarchical_initial_state(HIER_SPEC, inputs["data"]),
                               **EXACT)
    out = gibbs.run_exact_gibbs(hier.hierarchical_exact_specs(HIER_SPEC, inputs["data"]),
                                config, np.random.default_rng(inputs["exact_seq"]),
                                names=hier.hierarchical_state_names(HIER_SPEC))
    return moments(out, EXACT_COLUMNS)


def hier_accuracy(inputs: dict, oracle: dict, out: gibbs.ChainOutput) -> dict:
    """|mean - exact mean| / exact sd for each of EXACT_COLUMNS."""
    got = moments(out, EXACT_COLUMNS)
    return {name: abs(m - em) / esd for name, m, em, esd
            in zip(EXACT_COLUMNS, got["mean"], oracle["mean"], oracle["sd"])}


def hier_margin(reference: dict, oracle: dict) -> dict:
    """MC_TOLERANCE Monte Carlo standard errors of the reference mean, in exact sds."""
    out = {}
    for name, esd in zip(EXACT_COLUMNS, oracle["sd"]):
        i = hier.hierarchical_state_names(HIER_SPEC).index(name)
        se = reference["sd"][i] / math.sqrt(max(reference["ess"][i], 1.0))
        out[name] = MC_TOLERANCE * se / esd
    return out


def hier_local_run(inputs: dict, save_dir: Path) -> Rep:
    start = time.perf_counter()
    model = hier.hierarchical_model(HIER_SPEC)
    table = abc.simulate_reference_table(model, N_TABLE, inputs["table_seed"])
    config = gibbs.GibbsConfig(
        initial=hier.hierarchical_initial_state(HIER_SPEC, inputs["data"]), **LOCAL)
    out = gibbs.run_local_gibbs(model, hier.hierarchical_engine_specs(HIER_SPEC, "linear"),
                                table, inputs["s_obs"], config,
                                np.random.default_rng(inputs["chain_seq"]),
                                names=hier.hierarchical_state_names(HIER_SPEC))
    return _timed(start, out, save_dir)


# --- seasonal state-space model with g-and-k observations ------------------


def statespace_inputs(seed: int) -> dict:
    """Daily g-and-k samples along a slowly drifting link-scale truth path."""
    rng = np.random.default_rng(_stream(seed, 0))
    calendar = SeasonCalendar(n_days=SS_DAYS)
    g = np.kron(block_transition(), np.eye(4))
    theta = np.zeros((SS_DAYS + 1, g.shape[0]))
    theta[0, :4] = SS_BASE
    observations, lam_true = [], []
    for t in range(1, SS_DAYS + 1):
        theta[t] = g @ theta[t - 1] + SS_NOISE * rng.normal(size=g.shape[0])
        lam = np.kron(observation_block(calendar.is_summer(t))[:, None], np.eye(4)).T @ theta[t]
        lam_true.append(lam)
        n_t = int(rng.integers(SS_SIZES[0], SS_SIZES[1] + 1))
        observations.append(gk_sample(n_t, unlink_parameters(lam), rng))
    return {"calendar": calendar, "observations": observations,
            "lam_true": np.asarray(lam_true), "chain_seq": _stream(seed, 2)}


def statespace_oracle(inputs: dict) -> Optional[dict]:
    return None


def statespace_accuracy(inputs: dict, oracle, out: gibbs.ChainOutput) -> dict:
    lam_hat = out.diagnostics["predictor_means"]
    rmse = float(np.sqrt(np.mean((lam_hat - inputs["lam_true"]) ** 2)))
    resid = float(np.sqrt(np.mean(out.diagnostics["predictor_residuals"] ** 2)))
    return {"lambda_rmse": rmse, "predictor_residual_rms": resid}


def statespace_margin(reference: dict, oracle) -> dict:
    return SS_MARGIN


def statespace_run(inputs: dict, save_dir: Path) -> Rep:
    start = time.perf_counter()
    out = sampler.run_state_space_gibbs(
        DlmSpec(), inputs["calendar"], SS_TRAINING, SS_CHAIN,
        np.random.default_rng(inputs["chain_seq"]), observations=inputs["observations"])
    return _timed(start, out, save_dir)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    oracle: Callable[[dict], Optional[dict]]
    run: Callable[[dict, Path], Rep]
    # error scores of a chain, lower is better, each gated by ``ceiling``
    accuracy: Callable[[dict, Optional[dict], gibbs.ChainOutput], Dict[str, float]]
    # how much worse than its reference each error score may be
    margin: Callable[[dict, Optional[dict]], Dict[str, float]]
    ceiling: Dict[str, float]
    # chain columns whose moments are compared with the recorded reference
    tracked: tuple


WORKLOADS = {w.name: w for w in (
    Workload("statespace-gk", statespace_inputs, statespace_oracle, statespace_run,
             statespace_accuracy, statespace_margin, SS_CEILING,
             tuple(f"tau_{i}" for i in range(DlmSpec().p))),
    Workload("hier-local", hier_inputs, hier_oracle, hier_local_run, hier_accuracy,
             hier_margin, HIER_CEILING, tuple(hier.hierarchical_state_names(HIER_SPEC))),
)}


def reference_record(workload: Workload, inputs: dict, oracle, out: gibbs.ChainOutput) -> dict:
    """What reference.json holds for one seed, and what a run compares with it."""
    record = dict(digest=digest(out.states), accuracy=workload.accuracy(inputs, oracle, out),
                  **moments(out, workload.tracked))
    if "predictor_means" in out.diagnostics:
        record["predictor_means"] = np.asarray(out.diagnostics["predictor_means"]).tolist()
    return record


def check(workload: Workload, inputs: dict, oracle, reference: Optional[dict],
          out: gibbs.ChainOutput, first_digest: Optional[str]) -> dict:
    """Correctness of one repetition's chain; ``ok`` is the verdict.

    Gated for every seed: a finite chain, the same chain in every
    repetition, and no accuracy error above the workload's ceiling.  For a
    seed with a ``reference`` the chain must also be the one the recording
    commit produced: the same digest, or else no tracked mean moved by
    more than MC_TOLERANCE Monte Carlo standard errors, the state-space
    predictor path within SS_PATH_TOLERANCE, and no accuracy error worse
    than recorded by more than the workload's margin.
    """
    got = reference_record(workload, inputs, oracle, out)
    acc = got["accuracy"]
    result = {"digest": got["digest"], "finite": bool(np.all(np.isfinite(out.states))),
              "same_as_first_rep": first_digest in (None, got["digest"]), "accuracy": acc,
              "over_ceiling": [k for k, v in acc.items() if not v <= workload.ceiling[k]]}
    ok = result["finite"] and result["same_as_first_rep"] and not result["over_ceiling"]
    if reference is not None:
        moved = [c for c, m, rm, rsd, ress in zip(workload.tracked, got["mean"], reference["mean"],
                                                  reference["sd"], reference["ess"])
                 if not abs(m - rm) <= MC_TOLERANCE * rsd / math.sqrt(max(ress, 1.0)) + 1e-12]
        if "predictor_means" in reference:
            shift = np.subtract(got["predictor_means"], reference["predictor_means"])
            if not np.sqrt(np.mean(shift ** 2)) <= SS_PATH_TOLERANCE:
                moved.append("predictor_means")
        margin = workload.margin(reference, oracle)
        worse = [k for k, v in acc.items() if not v <= reference["accuracy"][k] + margin[k]]
        digest_match = got["digest"] == reference["digest"]
        result["reference"] = {"digest_match": digest_match, "moved": moved, "worse": worse}
        ok = ok and (digest_match or not (moved or worse))
    result["ok"] = bool(ok)
    return result
