"""System matrices for the seasonal dynamic linear model.

Each of the four observation parameters evolves through an identical
9-dimensional state block: a local-linear trend (2), a weekly seasonal
cycle (6), and a summer step effect (1).  The full state stacks the four
copies component-major, so state index k = 4*r + v addresses component r
of variable v.  The transition matrix is the Kronecker product of the
9x9 block with the 4x4 identity, and the observation matrix picks out
the trend level, the leading seasonal coordinate, and (inside the high
season) the summer coordinate.  This module is the one place that
layout is built: ``observation_matrix`` and ``transition_matrix`` give
the full 36-dim maps, and the layout's sizes are the module constants.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

BLOCK_DIM = 9
N_SERIES = 4
STATE_DIM = BLOCK_DIM * N_SERIES

# 0-based block coordinates read by the observation row: trend level,
# leading seasonal coefficient, and the summer step.
_LEVEL = 0
_SEASON_LEAD = 2
_SUMMER = 8


def trend_block() -> np.ndarray:
    """2x2 local-linear-trend transition (unit upper Jordan block)."""
    return np.array([[1.0, 1.0], [0.0, 1.0]])


def weekly_seasonal_block() -> np.ndarray:
    """6x6 seasonal companion for a 7-day cycle.

    Top row is all -1 (the seasonal coefficients sum to zero over a
    week), with a shifted identity below; its 7th power is the identity.
    """
    p = np.zeros((6, 6))
    p[0, :] = -1.0
    p[1:, :5] = np.eye(5)
    return p


def block_transition() -> np.ndarray:
    """9x9 per-variable transition: block-diagonal (trend, seasonal, 1)."""
    g = np.zeros((BLOCK_DIM, BLOCK_DIM))
    g[:2, :2] = trend_block()
    g[2:8, 2:8] = weekly_seasonal_block()
    g[8, 8] = 1.0
    return g


def observation_block(summer: bool) -> np.ndarray:
    """9-vector mapping one state block to its linear predictor."""
    f = np.zeros(BLOCK_DIM)
    f[_LEVEL] = 1.0
    f[_SEASON_LEAD] = 1.0
    f[_SUMMER] = 1.0 if summer else 0.0
    return f


@dataclass(frozen=True)
class SeasonCalendar:
    """Day indexing for one modelled stretch of data.

    Days run t = 1..n_days; the summer indicator is defined through
    n_days + 1 so the forward-predictive state can be built.  The summer
    season is the inclusive index range [summer_start, summer_end]; a
    start beyond the end disables it.
    """

    n_days: int
    summer_start: int = 1
    summer_end: int = 0

    def __post_init__(self):
        if self.n_days < 1:
            raise ValueError("n_days must be at least 1")
        if self.summer_start < 1:
            raise ValueError("summer_start must be at least 1")

    def is_summer(self, t: int) -> bool:
        t = int(t)
        if not 1 <= t <= self.n_days + 1:
            raise ValueError(f"t must be in 1..{self.n_days + 1}, got {t}")
        return self.summer_start <= t <= self.summer_end


@dataclass(frozen=True)
class DlmSpec:
    """Initial-state prior and precision hyperpriors over the p = 36 state.

    The innovation covariance is diagonal, W = diag(1 / tau_1..tau_p),
    with independent Gamma(alpha, nu) priors on each precision.  The
    near-zero defaults make those priors effectively flat.  m0/c0_diag
    give the Gaussian prior for the pre-sample state; the wide default
    variance keeps it close to diffuse while staying proper.
    """

    m0: Optional[np.ndarray] = None
    c0_diag: Optional[np.ndarray] = None
    alpha: float = 1e-10
    nu: float = 1e-10

    def __post_init__(self):
        if not (self.alpha > 0 and self.nu > 0):
            raise ValueError("precision hyperparameters must be positive")
        p = STATE_DIM
        m0 = np.zeros(p) if self.m0 is None else np.asarray(self.m0, float)
        if self.c0_diag is None:
            c0 = np.full(p, 1e6)
        else:
            c0 = np.broadcast_to(
                np.asarray(self.c0_diag, float), (p,)).copy()
        if m0.shape != (p,) or c0.shape != (p,):
            raise ValueError("m0 and c0_diag must have length p")
        if np.any(c0 <= 0):
            raise ValueError("c0_diag must be positive")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "c0_diag", c0)

    @property
    def p(self) -> int:
        return STATE_DIM


def observation_matrix(summer: bool) -> np.ndarray:
    """p x 4 map F with the four linear predictors F.T @ theta."""
    return np.kron(observation_block(summer)[:, None], np.eye(N_SERIES))


def transition_matrix() -> np.ndarray:
    """p x p transition G = block_transition() kron the 4x4 identity."""
    return np.kron(block_transition(), np.eye(N_SERIES))

