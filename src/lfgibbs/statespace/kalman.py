"""Kalman smoothing used to initialize the state path.

The four observation parameters are filtered independently: with a
diagonal innovation covariance the full model splits into four
9-dimensional blocks, each observing one scalar summary per day through
its own observation row.  The smoother treats each summary coordinate as
a noisy linear observation of its block; the observation variance is a
fixed plausible value, not estimated.
"""

import numpy as np

from .system import (N_SERIES, DlmSpec, SeasonCalendar, block_transition,
                     observation_block)

# innovation variance of every block of the initial path
_INIT_BLOCK_W = 1e-4


def block_kalman_smoother(obs: np.ndarray, obs_rows: np.ndarray,
                          obs_var, g_mat: np.ndarray, w_diag,
                          m0: np.ndarray, c0_diag: np.ndarray) -> np.ndarray:
    """Smoothed state means of one scalar-observation linear block.

    obs holds y_1..y_T, obs_rows the matching observation vectors, and
    obs_var the per-step observation variances (a scalar broadcasts).
    Returns the (T+1) x dim smoothed means for states 0..T, state 0
    being the pre-sample state carrying the N(m0, diag(c0_diag)) prior.
    """
    y = np.asarray(obs, dtype=float)
    rows = np.atleast_2d(np.asarray(obs_rows, dtype=float))
    n_steps = y.size
    dim = rows.shape[1]
    if rows.shape != (n_steps, dim):
        raise ValueError("obs_rows must supply one row per observation")
    v = np.broadcast_to(np.asarray(obs_var, dtype=float), (n_steps,))
    if np.any(v <= 0):
        raise ValueError("observation variances must be positive")
    g = np.asarray(g_mat, dtype=float).reshape(dim, dim)
    w = np.diag(np.broadcast_to(np.asarray(w_diag, dtype=float), (dim,)))

    means = np.empty((n_steps + 1, dim))
    covs = np.empty((n_steps + 1, dim, dim))
    pred_means = np.empty((n_steps + 1, dim))
    pred_covs = np.empty((n_steps + 1, dim, dim))
    means[0] = np.asarray(m0, dtype=float)
    covs[0] = np.diag(np.broadcast_to(np.asarray(c0_diag, dtype=float),
                                      (dim,)))
    for t in range(1, n_steps + 1):
        a = g @ means[t - 1]
        r = g @ covs[t - 1] @ g.T + w
        r = 0.5 * (r + r.T)
        pred_means[t] = a
        pred_covs[t] = r
        row = rows[t - 1]
        gain_vec = r @ row
        q = float(row @ gain_vec) + v[t - 1]
        means[t] = a + gain_vec * ((y[t - 1] - row @ a) / q)
        c = r - np.outer(gain_vec, gain_vec) / q
        covs[t] = 0.5 * (c + c.T)
        if not (np.all(np.isfinite(means[t])) and np.all(np.isfinite(covs[t]))):
            raise np.linalg.LinAlgError(
                f"filter diverged at step {t}: non-finite moments")

    smoothed = np.empty_like(means)
    smoothed[n_steps] = means[n_steps]
    for t in range(n_steps - 1, -1, -1):
        j = np.linalg.solve(pred_covs[t + 1], g @ covs[t]).T
        smoothed[t] = means[t] + j @ (smoothed[t + 1] - pred_means[t + 1])
    if not np.all(np.isfinite(smoothed)):
        raise np.linalg.LinAlgError("smoother produced non-finite means")
    return smoothed


def kalman_smoother_init(summaries: np.ndarray, calendar: SeasonCalendar,
                         spec: DlmSpec, obs_variance: float) -> np.ndarray:
    """Initial state path from smoothing the per-day summaries.

    Each summary coordinate is smoothed through its own 9-dimensional
    block with innovation variance ``_INIT_BLOCK_W`` (1e-4) and
    observation variance obs_variance, on the sampler's own initial-state
    prior ``spec.m0`` / ``spec.c0_diag``.  Returns the (T+1) x p smoothed
    means for states 0..T.
    """
    s = np.atleast_2d(np.asarray(summaries, dtype=float))
    n_days = s.shape[0]
    if s.shape[1] != N_SERIES:
        raise ValueError(f"summaries must have {N_SERIES} columns")
    if n_days != calendar.n_days:
        raise ValueError("summaries do not match the calendar length")
    if not np.all(np.isfinite(s)):
        raise ValueError("summaries must be finite")
    if not obs_variance > 0:
        raise ValueError("obs_variance must be positive")

    g9 = block_transition()
    rows = np.stack([observation_block(calendar.is_summer(t))
                     for t in range(1, n_days + 1)])
    path = np.empty((n_days + 1, spec.p))
    for v in range(N_SERIES):
        idx = np.arange(v, spec.p, N_SERIES)
        path[:, idx] = block_kalman_smoother(
            s[:, v], rows, obs_variance, g9, _INIT_BLOCK_W, spec.m0[idx],
            spec.c0_diag[idx])
    return path
