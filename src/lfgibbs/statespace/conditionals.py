"""Tractable full conditionals of the seasonal state-space model.

All of these follow from the linear-Gaussian state equations alone, so
they are exact regardless of how the observation side is handled.  The
sweep operator also exposes the one-step moments (f, q) of the linear
predictor, which the likelihood-free update conditions on.
"""

from typing import Dict, Optional, Tuple

import numpy as np


def _cov_dense(w, p: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        return np.eye(p) * float(w)
    if w.ndim == 1:
        if w.shape != (p,):
            raise ValueError(f"variance vector must have length {p}")
        return np.diag(w)
    if w.shape != (p, p):
        raise ValueError(f"covariance must be {p}x{p}")
    return w


def initial_state_conditional(theta_next: np.ndarray, w,
                              g_mat: np.ndarray,
                              m0: Optional[np.ndarray] = None,
                              c0=None) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of the pre-sample state given theta_1.

    Combines the N(m0, C0) prior with the backward information from the
    first transition.  c0=None takes the diffuse limit (the prior term
    drops out entirely and m0 is ignored).
    """
    theta_next = np.asarray(theta_next, dtype=float)
    p = theta_next.size
    g = np.asarray(g_mat, dtype=float).reshape(p, p)
    w_inv = np.linalg.inv(_cov_dense(w, p))
    info = g.T @ w_inv @ g
    shift = g.T @ (w_inv @ theta_next)
    if c0 is not None:
        c0_inv = np.linalg.inv(_cov_dense(c0, p))
        info = info + c0_inv
        shift = shift + c0_inv @ (np.zeros(p) if m0 is None
                                  else np.asarray(m0, dtype=float))
    cov = np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return cov @ shift, cov


def terminal_state_conditional(theta_prev: np.ndarray, w,
                               g_mat: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Forward-predictive Gaussian for the state one step past the data."""
    theta_prev = np.asarray(theta_prev, dtype=float)
    p = theta_prev.size
    g = np.asarray(g_mat, dtype=float).reshape(p, p)
    return g @ theta_prev, _cov_dense(w, p)


def innovation_precision_conditional(innovations: np.ndarray,
                                     alpha: float, nu: float
                                     ) -> Tuple[float, np.ndarray]:
    """Gamma(shape, rate) conditionals of the innovation precisions.

    innovations holds the transition residuals theta_t - G theta_{t-1}
    as rows, one per step including the terminal extension.  The shape
    is shared across coordinates; the rates vector has one entry per
    state coordinate.
    """
    w = np.atleast_2d(np.asarray(innovations, dtype=float))
    shape = alpha + 0.5 * w.shape[0]
    rates = nu + 0.5 * np.sum(w * w, axis=0)
    return shape, rates


class SweepOperator:
    """Per-sweep cache of the state-update algebra.

    The transition matrix is time-invariant and the observation matrix
    takes only two values (summer on or off), so within one sweep every
    expensive piece (R, its Cholesky factor, the gain per season flag)
    can be computed once.  Draws use the projection form
    theta = mean + z - K (F' z) with z ~ N(0, R), whose covariance
    equals the stated conditional covariance whenever q is exactly
    diagonal, as it is here with a diagonal W and per-variable blocks.
    """

    def __init__(self, g_mat: np.ndarray, w_var: np.ndarray,
                 f_by_season: Dict[bool, np.ndarray]):
        g = np.asarray(g_mat, dtype=float)
        w = np.asarray(w_var, dtype=float)
        p = w.size
        if g.shape != (p, p):
            raise ValueError("transition matrix does not match w_var")
        w_inv = 1.0 / w
        info = g.T @ (w_inv[:, None] * g) + np.diag(w_inv)
        r_cov = np.linalg.inv(info)
        self.p = p
        self.g_mat = g
        self.w_var = w
        self.r_cov = 0.5 * (r_cov + r_cov.T)
        self.chol_r = np.linalg.cholesky(self.r_cov)
        self._m_prev = self.r_cov @ (w_inv[:, None] * g)
        self._m_next = self.r_cov @ (g.T * w_inv[None, :])
        self._season: Dict[bool, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.off_diagonal_max = 0.0
        for season, f_mat in f_by_season.items():
            f = np.asarray(f_mat, dtype=float).reshape(p, -1)
            u = self.r_cov @ f
            q_full = f.T @ u
            q_diag = np.diag(q_full).copy()
            off = q_full - np.diag(q_diag)
            if off.size:
                self.off_diagonal_max = max(self.off_diagonal_max,
                                            float(np.max(np.abs(off))))
            if np.any(q_diag <= 0):
                raise np.linalg.LinAlgError(
                    "predictor variance is not positive")
            self._season[season] = (f, u / q_diag, q_diag)

    def two_sided_mean(self, theta_prev: np.ndarray,
                       theta_next: np.ndarray) -> np.ndarray:
        return self._m_prev @ theta_prev + self._m_next @ theta_next

    def predictor_moments(self, a: np.ndarray, season: bool
                          ) -> Tuple[np.ndarray, np.ndarray]:
        f, _, q_diag = self._season[season]
        return f.T @ a, q_diag

    def draw_state(self, a: np.ndarray, predictor: np.ndarray,
                   season: bool, rng: np.random.Generator) -> np.ndarray:
        f, gain, _ = self._season[season]
        mean = a + gain @ (predictor - f.T @ a)
        z = self.chol_r @ rng.standard_normal(self.p)
        return mean + z - gain @ (f.T @ z)

    def draw_initial(self, theta_next: np.ndarray, m0: np.ndarray,
                     c0_diag: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        mean, cov = initial_state_conditional(
            theta_next, self.w_var, self.g_mat, m0, c0_diag)
        return mean + np.linalg.cholesky(cov) @ rng.standard_normal(self.p)

    def draw_terminal(self, theta_prev: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        return (self.g_mat @ theta_prev
                + np.sqrt(self.w_var) * rng.standard_normal(self.p))
