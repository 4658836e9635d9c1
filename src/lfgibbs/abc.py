"""Reference tables and importance-sampling ABC.

A simulator model bundles the prior, an optional importance proposal, the
data generator and the summary map.  ``simulate_reference_table`` draws the
(parameter, summary) pairs reused by every downstream regression;
``abc_importance`` turns a table into a kernel-weighted posterior sample and
``regression_adjust`` applies the standard linear post-adjustment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    importance_ratio,
    kernel_weight,
    scaled_distance,
)
from lfgibbs.regression import fit_weighted_linear

__all__ = [
    "SimulatorModel",
    "ReferenceTable",
    "AbcOutput",
    "simulate_reference_table",
    "abc_importance",
    "regression_adjust",
]

_MAX_RETRIES = 10


@dataclass
class SimulatorModel:
    """Prior, proposal, simulator and summary map for one inference problem.

    The proposal defaults to the prior (importance ratios are then all one).
    ``simulate_data`` may raise to signal a failed simulation; table
    generation retries such draws with fresh sub-seeds.  ``spec`` is the
    model configuration (for example a frozen spec dataclass); its repr
    enters the fingerprint, so tables built under different settings of
    the same model are told apart.
    """

    name: str
    dim_theta: int
    dim_summary: int
    prior_sample: Callable[[np.random.Generator], np.ndarray]
    prior_logpdf: Callable[[np.ndarray], float]
    simulate_data: Callable[[np.ndarray, np.random.Generator], object]
    summary: Callable[[object], np.ndarray]
    proposal_sample: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    proposal_logpdf: Optional[Callable[[np.ndarray], float]] = None
    theta_names: Optional[List[str]] = None
    spec: object = None

    def __post_init__(self):
        if (self.proposal_sample is None) != (self.proposal_logpdf is None):
            raise ValueError("proposal sampler and density must come together")
        if self.theta_names is None:
            self.theta_names = [f"theta_{d + 1}" for d in range(self.dim_theta)]

    def draw_parameter(self, rng: np.random.Generator) -> np.ndarray:
        if self.proposal_sample is not None:
            return np.asarray(self.proposal_sample(rng), dtype=float)
        return np.asarray(self.prior_sample(rng), dtype=float)

    def log_importance_ratio(self, theta: np.ndarray) -> float:
        """log prior minus log proposal; zero when sampling from the prior."""
        if self.proposal_logpdf is None:
            return 0.0
        lp = self.prior_logpdf(theta)
        lq = self.proposal_logpdf(theta)
        # delegate the zero-density conventions
        r = importance_ratio(lp, lq)
        return -np.inf if r == 0.0 else float(np.log(r))

    def fingerprint(self) -> str:
        return hashlib.sha256(
            f"{self.name}|{self.dim_theta}|{self.dim_summary}|{self.spec!r}".encode()
        ).hexdigest()[:16]


@dataclass
class ReferenceTable:
    """Column-major storage of weighted (parameter, summary) samples."""

    theta: np.ndarray      # (N, D)
    summaries: np.ndarray  # (N, q)
    weights: np.ndarray    # (N,)
    seed: Optional[int] = None
    fingerprint: Optional[str] = None
    retries: int = 0
    theta_names: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        self.summaries = np.atleast_2d(np.asarray(self.summaries, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.theta.shape[0]
        if self.summaries.shape[0] != n or self.weights.shape != (n,):
            raise ValueError("inconsistent table row counts")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if not self.theta_names:
            self.theta_names = [f"theta_{d + 1}" for d in range(self.theta.shape[1])]

    def __len__(self) -> int:
        return self.theta.shape[0]

    def normalized_weights(self) -> np.ndarray:
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("all weights are zero")
        return self.weights / total

    def subset(self, idx: np.ndarray) -> "ReferenceTable":
        return ReferenceTable(self.theta[idx], self.summaries[idx],
                              self.weights[idx], seed=self.seed,
                              fingerprint=self.fingerprint, retries=self.retries,
                              theta_names=list(self.theta_names))

    # --- serialization ---------------------------------------------------

    def to_csv(self, path: str) -> None:
        """CSV with header theta_1..theta_D, s_1..s_q, weight."""
        d, q = self.theta.shape[1], self.summaries.shape[1]
        header = ",".join([f"theta_{j + 1}" for j in range(d)]
                          + [f"s_{j + 1}" for j in range(q)] + ["weight"])
        body = np.column_stack([self.theta, self.summaries, self.weights])
        np.savetxt(path, body, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path: str) -> "ReferenceTable":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        d = sum(1 for h in header if h.startswith("theta_"))
        q = sum(1 for h in header if h.startswith("s_"))
        if header[-1] != "weight" or d + q + 1 != len(header):
            raise ValueError("unrecognized reference table header")
        return cls(body[:, :d], body[:, d:d + q], body[:, -1])

    def to_npz(self, path: str) -> None:
        """Binary cache embedding the generation seed and model fingerprint."""
        np.savez_compressed(
            path, theta=self.theta, summaries=self.summaries, weights=self.weights,
            meta=json.dumps({"seed": self.seed, "fingerprint": self.fingerprint,
                             "retries": self.retries,
                             "theta_names": self.theta_names}))

    @classmethod
    def from_npz(cls, path: str, expected_fingerprint: Optional[str] = None) -> "ReferenceTable":
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            table = cls(z["theta"], z["summaries"], z["weights"],
                        seed=meta.get("seed"), fingerprint=meta.get("fingerprint"),
                        retries=meta.get("retries", 0),
                        theta_names=meta.get("theta_names") or [])
        if expected_fingerprint is not None and table.fingerprint != expected_fingerprint:
            raise ValueError("cached table was generated by a different model")
        return table


def simulate_reference_table(model: SimulatorModel, n: int,
                             seed: int) -> ReferenceTable:
    """Draw n (theta, summary) pairs from the proposal and simulator.

    Each row uses its own child seed spawned from the master seed, so the
    table is reproducible row by row regardless of execution order.  Failed
    simulations are retried with fresh sub-seeds, up to 10 times per row.
    """
    if n < 1:
        raise ValueError("table size must be positive")
    root = np.random.SeedSequence(seed)
    children = root.spawn(n)
    theta = np.empty((n, model.dim_theta))
    summ = np.empty((n, model.dim_summary))
    retries = 0
    for i in range(n):
        seq = children[i]
        for attempt in range(_MAX_RETRIES + 1):
            rng = np.random.default_rng(seq)
            try:
                th = model.draw_parameter(rng)
                s = np.asarray(model.summary(model.simulate_data(th, rng)), dtype=float)
                break
            except ArithmeticError:
                retries += 1
                seq = seq.spawn(1)[0]
        else:
            raise ArithmeticError(
                f"simulation failed {_MAX_RETRIES + 1} times for table row {i}")
        if s.shape != (model.dim_summary,):
            raise ValueError(f"summary has shape {s.shape}, "
                             f"expected ({model.dim_summary},)")
        theta[i] = th
        summ[i] = s
    return ReferenceTable(theta, summ, np.ones(n), seed=seed,
                          fingerprint=model.fingerprint(), retries=retries,
                          theta_names=list(model.theta_names))


@dataclass
class AbcOutput:
    """Weighted posterior sample with basic weight diagnostics."""

    samples: ReferenceTable
    ess: float
    entropy: float

    @property
    def weights(self) -> np.ndarray:
        return self.samples.weights


def _weight_diagnostics(w: np.ndarray) -> tuple:
    ess = float((w.sum() ** 2) / np.sum(w * w))
    p = w / w.sum()
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log(nz)))
    return ess, entropy


def abc_importance(model: SimulatorModel, table: ReferenceTable,
                   s_obs: np.ndarray, kernel: KernelSpec,
                   scaling: Optional[DistanceScaling] = None) -> AbcOutput:
    """Kernel-weighted importance sample targeting the ABC posterior.

    Weights are K_h(||s_i - s_obs||) times the prior/proposal ratio,
    normalized to sum to one.  All-zero weights indicate a bandwidth too
    small for the observed summary and raise an error.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    if scaling is None:
        scaling = DistanceScaling.from_samples(table.summaries)
    dist = scaled_distance(table.summaries, s_obs, scaling)
    kw = kernel_weight(dist, kernel)
    log_ratio = np.array([model.log_importance_ratio(t) for t in table.theta])
    w = kw * np.exp(np.where(np.isneginf(log_ratio), -np.inf, log_ratio))
    w = np.where(np.isneginf(log_ratio), 0.0, w)
    if not np.any(w > 0):
        raise ArithmeticError(
            "all ABC weights are zero; increase the kernel bandwidth")
    w = w / w.sum()
    ess, entropy = _weight_diagnostics(w)
    out = ReferenceTable(table.theta, table.summaries, w, seed=table.seed,
                         fingerprint=table.fingerprint, retries=table.retries,
                         theta_names=list(table.theta_names))
    return AbcOutput(samples=out, ess=ess, entropy=entropy)


def regression_adjust(output: AbcOutput, s_obs: np.ndarray) -> AbcOutput:
    """Linear regression adjustment toward the observed summary.

    Each parameter coordinate is shifted by beta' (s_obs - s_i) where beta
    solves the weighted least squares of that coordinate on the summaries
    (with intercept).  Weights are unchanged.
    """
    s_obs = np.asarray(s_obs, dtype=float)
    table = output.samples
    if np.all(table.summaries == s_obs):
        # nothing to correct, and the summary design would be collinear
        return output
    n = len(table)
    design = np.column_stack([np.ones(n), table.summaries])
    adjusted = table.theta.copy()
    for d in range(table.theta.shape[1]):
        fit = fit_weighted_linear(design, table.theta[:, d], table.weights)
        slope = fit.beta[1:]
        adjusted[:, d] += (s_obs - table.summaries) @ slope
    out = ReferenceTable(adjusted, table.summaries, table.weights,
                         seed=table.seed, fingerprint=table.fingerprint,
                         retries=table.retries, theta_names=list(table.theta_names))
    return AbcOutput(samples=out, ess=output.ess, entropy=output.entropy)
