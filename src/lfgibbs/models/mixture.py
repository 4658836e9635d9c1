"""Bivariate Gaussian mixture with sign-flip components.

The observation is a single bivariate draw s ~ N(mu(b, theta), Sigma) where
each sign b_i in {0, 1} flips the i-th mean coordinate: mu_i = (1 - 2 b_i)
theta_i.  Sigma has unit diagonal and equicorrelation rho.  The signs are
latent: P(b_i = 0) = omega.  theta has independent uniform priors on
(-20, 40).

All four full conditionals are tractable, which makes the model a sharp
test case: theta_d given the rest is a truncated normal whose mean is
linear in the products of (s, theta_-d, b), and b_d given the rest is a
Bernoulli whose logit is linear in the same products.  The engine
specifications below therefore use full-interaction designs, and the
fitted coefficients can be compared to the analytic ones directly.

State layout everywhere: (theta_1, theta_2, b_1, b_2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from lfgibbs.abc import BlockDraw, SimulatorModel
from lfgibbs.gibbs import ConditionalSpec
from lfgibbs.regression import interaction_names

__all__ = [
    "MixtureSpec",
    "MIXTURE_STATE_NAMES",
    "mixture_simulate",
    "simulate_given_signs",
    "mixture_joint_logpdf",
    "mixture_conditional_theta1",
    "mixture_conditional_theta2",
    "mixture_conditional_b1",
    "mixture_conditional_b2",
    "truncated_normal_draw",
    "mixture_model",
    "mixture_exact_specs",
    "mixture_engine_specs",
    "mixture_feature_names",
    "mixture_analytic_theta1_coefficients",
    "mixture_initial_state",
]

MIXTURE_STATE_NAMES = ["theta_1", "theta_2", "b_1", "b_2"]


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture weight, equicorrelation, prior box and observed point of
    the model, which is bivariate like its closed-form conditionals."""

    omega: float = 0.3
    rho: float = 0.7
    lower: float = -20.0
    upper: float = 40.0
    s_obs: Tuple[float, float] = (2.5, 2.5)

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must lie in [0, 1]")
        # the 2x2 unit-diagonal correlation matrix is positive definite
        # iff rho in (-1, 1)
        if not -1.0 < self.rho < 1.0:
            raise ValueError("equicorrelation outside the positive definite range")
        if self.lower >= self.upper:
            raise ValueError("empty prior box")

    @property
    def sigma(self) -> np.ndarray:
        s = np.full((2, 2), self.rho)
        np.fill_diagonal(s, 1.0)
        return s


def _signs(b: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(b, dtype=float)


def mixture_simulate(theta: np.ndarray, spec: MixtureSpec,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw the signs, then one correlated Gaussian observation."""
    theta = np.asarray(theta, dtype=float)
    b = (rng.random(2) >= spec.omega).astype(float)  # P(b=0) = omega
    return simulate_given_signs(theta, b, spec, rng)


def simulate_given_signs(theta: np.ndarray, b: np.ndarray, spec: MixtureSpec,
                         rng: np.random.Generator) -> np.ndarray:
    mean = _signs(b) * np.asarray(theta, dtype=float)
    chol = np.linalg.cholesky(spec.sigma)
    return mean + chol @ rng.standard_normal(2)


def mixture_joint_logpdf(s: np.ndarray, theta: np.ndarray, b: np.ndarray,
                         spec: MixtureSpec) -> float:
    """log of the sign-prior times the Gaussian density at (s; theta, b)."""
    if not 0.0 < spec.omega < 1.0:
        raise ValueError("joint density with degenerate omega")
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    mean = _signs(b) * np.asarray(theta, dtype=float)
    sigma = spec.sigma
    diff = s - mean
    quad = diff @ np.linalg.solve(sigma, diff)
    _, logdet = np.linalg.slogdet(sigma)
    log_gauss = -0.5 * (quad + logdet + 2 * np.log(2.0 * np.pi))
    log_prior = float(np.sum((1.0 - b) * np.log(spec.omega)
                             + b * np.log(1.0 - spec.omega)))
    return float(log_gauss + log_prior)


# --- full conditionals (two-dimensional case) ------------------------------


def mixture_conditional_theta1(theta2: float, b: Tuple[float, float],
                               s: Tuple[float, float],
                               spec: MixtureSpec) -> Tuple[float, float, float, float]:
    """Mean, scale and bounds of the truncated-normal conditional of theta_1."""
    rho = spec.rho
    b1, b2 = float(b[0]), float(b[1])
    s1, s2 = float(s[0]), float(s[1])
    mean = (s1 - rho * s2 + rho * theta2
            - 2.0 * s1 * b1 + 2.0 * rho * s2 * b1 - 2.0 * rho * b1 * theta2
            - 2.0 * rho * theta2 * b2 + 4.0 * rho * b1 * b2 * theta2)
    return mean, float(np.sqrt(1.0 - rho ** 2)), spec.lower, spec.upper


def mixture_conditional_theta2(theta1: float, b: Tuple[float, float],
                               s: Tuple[float, float],
                               spec: MixtureSpec) -> Tuple[float, float, float, float]:
    """The theta_2 conditional by the 1 <-> 2 symmetry of the model."""
    return mixture_conditional_theta1(theta1, (b[1], b[0]), (s[1], s[0]), spec)


def _switch_logit(theta_d: float, theta_other: float, b_other: float,
                  s_d: float, s_other: float, spec: MixtureSpec) -> float:
    if not 0.0 < spec.omega < 1.0:
        raise ValueError("sign conditional undefined for omega in {0, 1}")
    rho = spec.rho
    c = 1.0 - rho ** 2
    return (np.log((1.0 - spec.omega) / spec.omega)
            - 2.0 / c * s_d * theta_d
            + 2.0 * rho / c * s_other * theta_d
            - 2.0 * rho / c * theta_d * theta_other
            + 4.0 * rho / c * b_other * theta_d * theta_other)


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def mixture_conditional_b1(theta: Tuple[float, float], b2: float,
                           s: Tuple[float, float], spec: MixtureSpec) -> float:
    """P(b_1 = 1 | theta, b_2, s); equals 1 - omega when theta_1 = 0."""
    return _logistic(_switch_logit(theta[0], theta[1], b2, s[0], s[1], spec))


def mixture_conditional_b2(theta: Tuple[float, float], b1: float,
                           s: Tuple[float, float], spec: MixtureSpec) -> float:
    return _logistic(_switch_logit(theta[1], theta[0], b1, s[1], s[0], spec))


def truncated_normal_draw(mean: float, scale: float, lower: float, upper: float,
                          rng: np.random.Generator) -> float:
    """Inverse-CDF draw from N(mean, scale^2) restricted to (lower, upper)."""
    lo = ndtr((lower - mean) / scale)
    hi = ndtr((upper - mean) / scale)
    u = lo + (hi - lo) * rng.random()
    return float(mean + scale * ndtri(u))


# --- engine wiring ---------------------------------------------------------


def mixture_initial_state() -> np.ndarray:
    """Far-from-mode start used across the mixture experiments."""
    return np.array([0.0, -10.0, 1.0, 0.0])


def _block_draw(spec: MixtureSpec) -> BlockDraw:
    """The mixture's table rows filled one by one and assembled by block.

    A row holds the four uniforms behind theta and the signs, then the two
    standard normals of the observation.  The assembly applies the same
    elementwise operations as ``mixture_model``'s prior and
    ``simulate_given_signs``, one Cholesky product per row; no row fails.
    """
    width = spec.upper - spec.lower
    chol = np.linalg.cholesky(spec.sigma)

    def fill(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out[:4])
        rng.standard_normal(out=out[4:])

    def assemble(raw: np.ndarray):
        theta = np.empty((len(raw), 4))
        theta[:, :2] = spec.lower + width * raw[:, :2]
        theta[:, 2:] = raw[:, 2:4] >= spec.omega  # P(b=0) = omega
        # a stack of the matrix-vector products simulate_given_signs takes
        noise = (chol @ raw[:, 4:, None])[:, :, 0]
        return theta, _signs(theta[:, 2:]) * theta[:, :2] + noise, np.zeros(len(raw), bool)

    return BlockDraw(width=6, fill=fill, assemble=assemble)


def mixture_model(spec: MixtureSpec) -> SimulatorModel:
    """Reference-table view: parameter vector (theta_1, theta_2, b_1, b_2).

    The model sets a batch summary and a block draw, so its tables are
    drawn and summarized by block.
    """
    width = spec.upper - spec.lower

    def prior_sample(rng: np.random.Generator) -> np.ndarray:
        theta = spec.lower + width * rng.random(2)
        b = (rng.random(2) >= spec.omega).astype(float)
        return np.concatenate([theta, b])

    def prior_logpdf(state: np.ndarray) -> float:
        theta, b = state[:2], state[2:]
        if np.any(theta < spec.lower) or np.any(theta > spec.upper):
            return -np.inf
        if not 0.0 < spec.omega < 1.0:
            return -np.inf if np.any(b != (1.0 if spec.omega == 0.0 else 0.0)) else 0.0
        log_b = float(np.sum((1.0 - b) * np.log(spec.omega)
                             + b * np.log(1.0 - spec.omega)))
        return -2.0 * np.log(width) + log_b

    def identity(data: np.ndarray) -> np.ndarray:
        """The summary is the observation itself, one or stacked."""
        return np.asarray(data, dtype=float)

    return SimulatorModel(
        name="sign-flip-mixture",
        dim_theta=4,
        dim_summary=2,
        prior_sample=prior_sample,
        prior_logpdf=prior_logpdf,
        simulate_data=lambda state, rng: simulate_given_signs(
            state[:2], state[2:], spec, rng),
        summary=identity,
        batch_summary=identity,
        block_draw=_block_draw(spec),
        theta_names=list(MIXTURE_STATE_NAMES),
        spec=spec,
    )


def mixture_exact_specs(spec: MixtureSpec) -> List[ConditionalSpec]:
    """Exact Gibbs conditionals over (theta_1, theta_2, b_1, b_2)."""

    def draw_theta1(state, member, rng):
        mean, sd, lo, hi = mixture_conditional_theta1(
            state[1], (state[2], state[3]), spec.s_obs, spec)
        return truncated_normal_draw(mean, sd, lo, hi, rng)

    def draw_theta2(state, member, rng):
        mean, sd, lo, hi = mixture_conditional_theta2(
            state[0], (state[2], state[3]), spec.s_obs, spec)
        return truncated_normal_draw(mean, sd, lo, hi, rng)

    def draw_b1(state, member, rng):
        p = mixture_conditional_b1((state[0], state[1]), state[3], spec.s_obs, spec)
        return 1.0 if rng.random() < p else 0.0

    def draw_b2(state, member, rng):
        p = mixture_conditional_b2((state[0], state[1]), state[2], spec.s_obs, spec)
        return 1.0 if rng.random() < p else 0.0

    return [
        ConditionalSpec(name="theta_1", members=(0,), exact=draw_theta1),
        ConditionalSpec(name="theta_2", members=(1,), exact=draw_theta2),
        ConditionalSpec(name="b_1", members=(2,), exact=draw_b1),
        ConditionalSpec(name="b_2", members=(3,), exact=draw_b2),
    ]


# feature variables per conditional: observed coordinates plus every other
# state coordinate, in a fixed documented order
_FEATURE_VARS = {
    0: (("s", 0), ("s", 1), ("t", 1), ("t", 2), ("t", 3)),  # theta_1
    1: (("s", 0), ("s", 1), ("t", 0), ("t", 2), ("t", 3)),  # theta_2
    2: (("s", 0), ("s", 1), ("t", 0), ("t", 1), ("t", 3)),  # b_1
    3: (("s", 0), ("s", 1), ("t", 0), ("t", 1), ("t", 2)),  # b_2
}


def mixture_feature_names(member: int) -> List[str]:
    labels = []
    for kind, idx in _FEATURE_VARS[member]:
        labels.append(f"s_{idx + 1}" if kind == "s" else MIXTURE_STATE_NAMES[idx])
    return interaction_names(labels, max_order=3)


def _feature_batch(summaries: np.ndarray, states: np.ndarray,
                   member: int) -> np.ndarray:
    cols = []
    for kind, idx in _FEATURE_VARS[member]:
        src = summaries if kind == "s" else states
        cols.append(src[:, idx])
    block = np.column_stack(cols)
    n = block.shape[0]
    out = np.empty((n, 26))
    j = 0
    out[:, j] = 1.0
    j += 1
    for order in (1, 2, 3):
        for combo in itertools.combinations(range(5), order):
            out[:, j] = np.prod(block[:, combo], axis=1)
            j += 1
    return out


def mixture_engine_specs(spec: MixtureSpec) -> List[ConditionalSpec]:
    """Regression-estimated conditionals with full-interaction designs.

    The theta conditionals are exactly linear in the 26 interaction terms
    with homoscedastic Gaussian noise, so the linear family with parametric
    sampling is the correctly specified choice; the sign conditionals are
    exactly logistic in the same terms.
    """
    out = []
    for member, name in enumerate(MIXTURE_STATE_NAMES):
        family = "linear" if member < 2 else "logistic"
        out.append(ConditionalSpec(
            name=name,
            members=(member,),
            feature_map_batch=(lambda summ, st, m=member: _feature_batch(
                np.atleast_2d(summ), np.atleast_2d(st), m)),
            family=family,
        ))
    return out


def mixture_analytic_theta1_coefficients(spec: MixtureSpec) -> np.ndarray:
    """The 26 design coefficients of the theta_1 conditional mean."""
    rho = spec.rho
    coef = dict(s_1=1.0, s_2=-rho)
    coef["theta_2"] = rho
    coef["s_1*b_1"] = -2.0
    coef["s_2*b_1"] = 2.0 * rho
    coef["theta_2*b_1"] = -2.0 * rho
    coef["theta_2*b_2"] = -2.0 * rho
    coef["theta_2*b_1*b_2"] = 4.0 * rho
    names = mixture_feature_names(0)
    return np.array([coef.get(nm, 0.0) for nm in names])
