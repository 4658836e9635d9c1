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


def _inverse_cov(w, p: int) -> np.ndarray:
    """Inverse of ``_cov_dense(w, p)``.

    A scalar or vector w is a diagonal covariance and is inverted entry
    by entry: for positive variances that is bit for bit the LU inverse
    ``np.linalg.inv`` computes, which divides only on the diagonal.  A
    zero variance raises, as the LU inverse does.
    """
    if np.ndim(w) > 1:
        return np.linalg.inv(_cov_dense(w, p))
    return np.diag(_inverse_variances(w, p))


def _inverse_variances(w, p: int) -> np.ndarray:
    """The diagonal of ``_inverse_cov(w, p)`` for a scalar or vector w."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1 and w.shape != (p,):
        raise ValueError(f"variance vector must have length {p}")
    if (w == 0).any():
        raise np.linalg.LinAlgError("Singular matrix")
    return np.broadcast_to(1.0 / w, (p,))


def initial_prior_terms(m0: Optional[np.ndarray], c0, p: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The N(m0, C0) initial-state prior as information: C0^-1 and
    C0^-1 m0 (m0=None is the zero mean).

    They do not change over a run, so a sampler builds them once and
    hands them to every :meth:`SweepOperator.draw_initial`.
    """
    c0_inv = _inverse_cov(c0, p)
    return c0_inv, c0_inv @ (np.zeros(p) if m0 is None
                             else np.asarray(m0, dtype=float))


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
    prior = (None if c0 is None
             else initial_prior_terms(m0, c0, theta_next.size))
    return _initial_moments(theta_next, w, g_mat, prior)


def _initial_moments(theta_next: np.ndarray, w, g_mat: np.ndarray,
                     prior: Optional[Tuple[np.ndarray, np.ndarray]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """initial_state_conditional with the prior given by
    :func:`initial_prior_terms`, or None for the diffuse limit."""
    theta_next = np.asarray(theta_next, dtype=float)
    p = theta_next.size
    g = np.asarray(g_mat, dtype=float).reshape(p, p)
    if np.ndim(w) > 1:
        w_inv = _inverse_cov(w, p)
        info = g.T @ w_inv @ g
        shift = g.T @ (w_inv @ theta_next)
    else:
        # g.T @ diag(w_inv) has one nonzero product per entry, so scaling
        # the columns of g.T gives its bits without the dense diagonal; it
        # is built C-ordered like the product, as BLAS sums a transposed
        # operand in another order
        w_inv = _inverse_variances(w, p)
        info = np.multiply(g.T, w_inv, order="C") @ g
        shift = g.T @ (w_inv * theta_next)
    if prior is not None:
        info = info + prior[0]
        shift = shift + prior[1]
    cov = np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return cov @ shift, cov


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
        w_inv_g = w_inv[:, None] * g
        info = g.T @ w_inv_g + np.diag(w_inv)
        r_cov = np.linalg.inv(info)
        self.p = p
        self.g_mat = g
        self.w_var = w
        self.r_cov = 0.5 * (r_cov + r_cov.T)
        self.chol_r = np.linalg.cholesky(self.r_cov)
        self._m_prev = self.r_cov @ w_inv_g
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

    def draw_state(self, a: np.ndarray, fa: np.ndarray,
                   predictor: np.ndarray, season: bool,
                   rng: np.random.Generator) -> np.ndarray:
        """State draw given its predictor; fa is F'a, the predictor mean
        that :meth:`predictor_moments` returns for this a and season."""
        f, gain, _ = self._season[season]
        mean = a + gain @ (predictor - fa)
        z = self.chol_r @ rng.standard_normal(self.p)
        return mean + z - gain @ (f.T @ z)

    def draw_initial(self, theta_next: np.ndarray,
                     prior: Tuple[np.ndarray, np.ndarray],
                     rng: np.random.Generator) -> np.ndarray:
        """Pre-sample state draw; prior is :func:`initial_prior_terms`."""
        mean, cov = _initial_moments(theta_next, self.w_var, self.g_mat,
                                     prior)
        return mean + np.linalg.cholesky(cov) @ rng.standard_normal(self.p)

    def draw_terminal(self, theta_prev: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        return (self.g_mat @ theta_prev
                + np.sqrt(self.w_var) * rng.standard_normal(self.p))
