"""The g-and-k distribution: sampling, L-moments and moment matching.

The distribution is defined through its quantile function

    Q(q) = A + B * [1 + c * (1 - exp(-g z)) / (1 + exp(-g z))] * (1 + z^2)^k * z,

with z = Phi^{-1}(q), location A, scale B > 0, skewness g, kurtosis
k > -0.5 and the conventional c = 0.8.  There is no closed-form density, so
parameter estimation matches sample L-moments to theoretical ones.

Theoretical L-moments are integrals lambda_r = int_0^1 Q(u) P*_{r-1}(u) du
against shifted Legendre polynomials.  The Gaussian quantile inside Q has
(integrable) endpoint singularities, so the integrals are evaluated by
composite Gauss-Legendre quadrature on panels refined geometrically toward
both endpoints; the per-panel order is raised until two successive rules
agree to 1e-8.

Estimation matches the sample's (l1, l2, t3, t4).  With
Q = A + B h(z; g, k), the theoretical L-moments are lambda_1 = A + B m1
and lambda_r = B m_r for r >= 2, where m_r are those of h; so t3 and t4
depend on (g, k) alone (L-moment ratios are location- and
scale-invariant, Hosking 1990).  The estimator solves the two equations
t3(g, k) = t3, t4(g, k) = t4 by Levenberg-Marquardt on (g, log(k+1/2))
with the analytic Jacobian, on a fixed 32-point panel grid, and then
sets B = l2 / m2 and A = l1 - B m1.  The fit is therefore exactly
equivariant under a + b x, whatever the sample's scale.  A fit whose
(t3, t4) residual is still above _FIT_TOL at the iteration cap fails
(ArithmeticError from :func:`estimate_gk_from_lmoments`, an all-NaN row
from :func:`estimate_gk_batch`), so a wrong fit is never returned; this
is what happens to a target outside the family's (t3, t4) range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
# not used by the estimator; the benchmark trace (perfbench/tracing.py)
# wraps lfgibbs.gk.minimize by name and fails if the attribute is gone
from scipy.optimize import minimize  # noqa: F401
from scipy.special import ndtri

__all__ = [
    "GKParams",
    "LMoments",
    "gk_quantile",
    "gk_sample",
    "theoretical_lmoments",
    "sample_lmoments",
    "estimate_gk",
    "estimate_gk_from_lmoments",
    "estimate_gk_batch",
    "estimation_target",
    "link_parameters",
    "unlink_parameters",
]

_CLIP = 1e-12          # quadrature nodes kept inside (eps, 1-eps)
_PANEL_LEVELS = 24     # geometric endpoint refinement depth
_ORDER_LADDER = (16, 24, 32, 48, 64, 96, 128)
_CONV_TOL = 1e-8
_FIT_PANEL_ORDER = 32  # fixed grid of the estimator's (g, k) solve
_MIN_SAMPLE = 4        # smallest n with defined fourth L-moment
_MIN_FIT_SAMPLE = 20
# Levenberg-Marquardt settings of the (g, k) solve
_FIT_TOL = 1e-13       # largest |t3, t4| residual of an accepted fit
_MAX_ITER = 100        # steps tried per row, accepted or not
_DAMP_START = 1e-3     # Marquardt damping, relative to diag(J'J)
_DAMP_STEP = 10.0      # damping divided by this after a kept step, else times
_BLOCK = 16            # rows solved together


@dataclass(frozen=True)
class GKParams:
    """Parameter vector (A, B, g, k) with the fixed asymmetry constant c."""

    A: float
    B: float
    g: float
    k: float
    c: float = 0.8

    def __post_init__(self):
        if not np.isfinite([self.A, self.B, self.g, self.k]).all():
            raise ValueError("parameters must be finite")
        if not self.B > 0:
            raise ValueError("B must be positive")
        if not self.k > -0.5:
            raise ValueError("k must exceed -0.5")

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.g, self.k])


@dataclass(frozen=True)
class LMoments:
    """First two L-moments plus L-skewness and L-kurtosis ratios."""

    l1: float
    l2: float
    t3: float
    t4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.l1, self.l2, self.t3, self.t4])


def _quantile_from_z(z: np.ndarray, params: GKParams) -> np.ndarray:
    e = np.exp(-params.g * z)
    asym = 1.0 + params.c * (1.0 - e) / (1.0 + e)
    return params.A + params.B * asym * (1.0 + z * z) ** params.k * z


def gk_quantile(q, params: GKParams):
    """Quantile function evaluated at probabilities q in (0, 1)."""
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr <= 0) or np.any(q_arr >= 1):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = _quantile_from_z(ndtri(q_arr), params)
    if np.ndim(q) == 0:
        return float(out)
    return out


def gk_sample(n: int, params: GKParams, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates by inverse transform of uniform draws."""
    if n < 1:
        raise ValueError("n must be positive")
    u = rng.random(n)
    # rng.random() can return exactly 0.0; keep the quantile finite
    u = np.clip(u, _CLIP, 1.0 - _CLIP)
    return _quantile_from_z(ndtri(u), params)


def _panel_grid(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on (0,1), refined toward endpoints.

    Returns (u, weights, z) with z = ndtri(u) precomputed, since the nodes
    never change for a given order.
    """
    bps = [0.0] + [0.5 * 2.0 ** (-j) for j in range(_PANEL_LEVELS, 0, -1)] + [0.5]
    bps = np.array(bps)
    edges = np.concatenate([bps, 1.0 - bps[::-1][1:]])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    ww = (half[:, None] * w[None, :]).ravel()
    u = np.clip(u, _CLIP, 1.0 - _CLIP)
    return u, ww, ndtri(u)


_GRID_CACHE: dict = {}


def _grid(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if order not in _GRID_CACHE:
        u, w, z = _panel_grid(order)
        p1 = 2.0 * u - 1.0
        p2 = 6.0 * u * u - 6.0 * u + 1.0
        p3 = 20.0 * u ** 3 - 30.0 * u * u + 12.0 * u - 1.0
        # rows: weights against P*_0 .. P*_3
        pw = np.stack([w, w * p1, w * p2, w * p3])
        _GRID_CACHE[order] = (z, pw)
    return _GRID_CACHE[order]


def _lambda_vector(params: GKParams, order: int) -> np.ndarray:
    z, pw = _grid(order)
    return pw @ _quantile_from_z(z, params)


def _lambdas_to_lmoments(lam: np.ndarray) -> LMoments:
    return LMoments(float(lam[0]), float(lam[1]),
                    float(lam[2] / lam[1]), float(lam[3] / lam[1]))


def theoretical_lmoments(params: GKParams) -> LMoments:
    """Exact L-moments (l1, l2, t3, t4) by converged quadrature."""
    prev = None
    for order in _ORDER_LADDER:
        lam = _lambda_vector(params, order)
        if prev is not None and np.max(np.abs(lam - prev)) <= _CONV_TOL:
            return _lambdas_to_lmoments(lam)
        prev = lam
    raise ArithmeticError(
        "L-moment quadrature did not converge to 1e-8; "
        "parameters are too extreme for the panel scheme")


def sample_lmoments(data: np.ndarray) -> LMoments:
    """Unbiased sample L-moments via probability-weighted moments.

    Uses the order-statistic U-statistic estimators b_r and the standard
    combinations l1 = b0, l2 = 2 b1 - b0, l3 = 6 b2 - 6 b1 + b0,
    l4 = 20 b3 - 30 b2 + 12 b1 - b0.  Needs at least 4 observations.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < _MIN_SAMPLE:
        raise ValueError(f"need at least {_MIN_SAMPLE} observations, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("data must be finite")
    i = np.arange(1, n + 1, dtype=float)
    b0 = x.mean()
    b1 = np.sum((i - 1) * x) / (n * (n - 1))
    b2 = np.sum((i - 1) * (i - 2) * x) / (n * (n - 1) * (n - 2))
    b3 = np.sum((i - 1) * (i - 2) * (i - 3) * x) / (n * (n - 1) * (n - 2) * (n - 3))
    if x[0] == x[-1]:
        # constant sample: report the exact zero rather than summation noise,
        # ratios are undefined; estimation rejects this downstream
        return LMoments(x[0], 0.0, np.nan, np.nan)
    l1 = b0
    l2 = 2 * b1 - b0
    l3 = 6 * b2 - 6 * b1 + b0
    l4 = 20 * b3 - 30 * b2 + 12 * b1 - b0
    return LMoments(l1, l2, l3 / l2, l4 / l2)


def link_parameters(params: GKParams) -> np.ndarray:
    """Map (A, B, g, k) to the unconstrained scale (A, log B, g, log(k+1/2))."""
    return np.array([params.A, np.log(params.B), params.g, np.log(params.k + 0.5)])


def unlink_parameters(lam: np.ndarray) -> GKParams:
    """Inverse of :func:`link_parameters`."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4,):
        raise ValueError("expected a 4-vector")
    return GKParams(float(lam[0]), float(np.exp(lam[1])),
                    float(lam[2]), float(np.exp(lam[3]) - 0.5))


def _shape_lambdas(x: np.ndarray, z: np.ndarray, pw: np.ndarray,
                   log_base: np.ndarray) -> np.ndarray:
    """L-moments of h(z; g, k) and their (g, log(k+1/2)) derivatives.

    ``x`` holds one (g, log(k+1/2)) row per fit.  Entry [i, 0, r] of the
    result is lambda_{r+1} of the unit-location, unit-scale quantile
    h = [1 + 0.8 tanh(gz/2)] (1+z^2)^k z at row i; entries [i, 1, r] and
    [i, 2, r] are its derivatives in g and in log(k+1/2), by
    dh/dg = 0.4 z sech^2(gz/2) (1+z^2)^k z and
    dh/dlog(k+1/2) = h log(1+z^2) (k+1/2).  Every row goes through the
    same operations whatever the other rows are (``matmul`` runs one
    product per row), so a row's value never depends on its batch.
    """
    kh = np.exp(x[:, 1:])                           # k + 1/2
    t = np.tanh(0.5 * x[:, :1] * z)
    s = np.exp((kh - 0.5) * log_base)
    s *= z                                          # (1+z^2)^k z
    cols = np.empty((len(x), 3, z.size))
    h, dg, dk = cols[:, 0], cols[:, 1], cols[:, 2]
    np.multiply(t, 0.8, out=h)
    h += 1.0
    h *= s
    np.multiply(t, t, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= 0.4 * z
    dg *= s
    np.multiply(h, log_base, out=dk)
    dk *= kh
    return np.matmul(cols, pw.T)


def _ratio_fit(lam: np.ndarray, target: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """(t3, t4) residuals of each row and their derivatives.

    Entry [i, j] of the derivatives is d(t3, t4) / d x_j at row i.
    """
    l2 = lam[:, 0, 1:2]
    ratios = lam[:, 0, 2:] / l2                       # (t3, t4)
    jac = (lam[:, 1:, 2:] - lam[:, 1:, 1:2] * ratios[:, None, :]) / l2[:, :, None]
    return ratios - target, jac


def _solve_block(tvec: np.ndarray, z: np.ndarray, pw: np.ndarray,
                 log_base: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt on (g, log(k+1/2)) for valid target rows.

    Starts every row at g = k = 0 and takes Marquardt-damped Gauss-Newton
    steps on the (t3, t4) residual, accepting a step only if it lowers the
    residual norm.  Returns (A, B, g, k) rows, all-NaN for a row whose
    residual is still above _FIT_TOL at the iteration cap or whose
    closed-form A and B are unusable.
    """
    rows = len(tvec)
    x = np.zeros((rows, 2))
    x[:, 1] = np.log(0.5)
    lam = _shape_lambdas(x, z, pw, log_base)
    resid, jac = _ratio_fit(lam, tvec[:, 2:])
    norm = np.vecdot(resid, resid)
    mu = np.full(rows, _DAMP_START)
    live = np.flatnonzero(np.abs(resid).max(axis=1) > _FIT_TOL)
    for _ in range(_MAX_ITER):
        if not live.size:
            break
        # (J'J + mu diag(J'J)) step = -J'r, solved by Cramer's rule
        jg, jk, r = jac[live, 0], jac[live, 1], resid[live]
        damp = 1.0 + mu[live]
        a11, a22 = np.vecdot(jg, jg) * damp, np.vecdot(jk, jk) * damp
        a12, b1, b2 = np.vecdot(jg, jk), np.vecdot(jg, r), np.vecdot(jk, r)
        det = a11 * a22 - a12 * a12
        step = np.stack((a12 * b2 - a22 * b1, a12 * b1 - a11 * b2), axis=1) / det[:, None]
        trial = x[live] + step
        lam_t = _shape_lambdas(trial, z, pw, log_base)
        resid_t, jac_t = _ratio_fit(lam_t, tvec[live, 2:])
        norm_t = np.vecdot(resid_t, resid_t)
        better = norm_t < norm[live]                # False where not finite
        take = live[better]
        x[take], lam[take], resid[take], jac[take], norm[take] = (
            trial[better], lam_t[better], resid_t[better], jac_t[better],
            norm_t[better])
        mu[live] = np.where(better, mu[live] / _DAMP_STEP, mu[live] * _DAMP_STEP)
        live = live[np.abs(resid[live]).max(axis=1) > _FIT_TOL]
    scale = tvec[:, 1] / lam[:, 0, 1]
    out = np.column_stack((tvec[:, 0] - scale * lam[:, 0, 0], scale,
                           x[:, 0], np.exp(x[:, 1]) - 0.5))
    ok = ((np.abs(resid).max(axis=1) <= _FIT_TOL) & (scale > 0)
          & (out[:, 3] > -0.5) & np.isfinite(out).all(axis=1))
    out[~ok] = np.nan
    return out


def _fit_rows(tvec: np.ndarray) -> np.ndarray:
    """(A, B, g, k) for each (l1, l2, t3, t4) row, all-NaN where it fails.

    A row fails if its target is degenerate (l2 not positive, or a
    non-finite entry) or its fit does not reach the tolerance.  The rows
    are solved _BLOCK at a time, which bounds the working arrays.
    """
    z, pw = _grid(_FIT_PANEL_ORDER)
    log_base = np.log1p(z * z)
    out = np.full(tvec.shape, np.nan)
    valid = np.flatnonzero((tvec[:, 1] > 0) & np.isfinite(tvec).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, valid.size, _BLOCK):
            rows = valid[lo:lo + _BLOCK]
            out[rows] = _solve_block(tvec[rows], z, pw, log_base)
    return out


def estimate_gk_from_lmoments(target: LMoments) -> GKParams:
    """Match theoretical L-moments (l1, l2, t3, t4) to a target.

    Solves t3(g, k) = t3 and t4(g, k) = t4 by Levenberg-Marquardt on
    (g, log(k+1/2)), on the fixed 32-point panel grid and from g = k = 0,
    then sets B = l2 / m2 and A = l1 - B m1 in closed form, where m_r are
    the L-moments at A = 0, B = 1.  The L-moment ratios do not depend on
    A and B, so the fit is location- and scale-equivariant.  This is
    :func:`estimate_gk_batch` on one row.

    Raises ValueError for a degenerate target (l2 not positive, or a
    non-finite entry) and ArithmeticError when (t3, t4) is not matched to
    within _FIT_TOL, as for a target outside the family's range.
    """
    tvec = target.as_array()
    if not tvec[1] > 0 or not np.isfinite(tvec).all():
        raise ValueError("degenerate target: second L-moment must be positive "
                         "and all L-moments finite")
    row = _fit_rows(tvec[None])[0]
    if np.isnan(row).any():
        raise ArithmeticError(
            f"L-moment matching failed: (t3, t4) = ({tvec[2]:.6g}, {tvec[3]:.6g}) "
            f"not matched to {_FIT_TOL:g} in {_MAX_ITER} iterations")
    return GKParams(*row)


def estimate_gk_batch(targets: np.ndarray) -> np.ndarray:
    """Link-scale estimates for many L-moment targets at once.

    ``targets`` holds one (l1, l2, t3, t4) row per target.  Row i of the
    result is bit for bit
    ``link_parameters(estimate_gk_from_lmoments(LMoments(*targets[i])))``,
    and all-NaN where that call raises.
    """
    tvec = np.atleast_2d(np.asarray(targets, dtype=float))
    params = _fit_rows(tvec)
    out = np.full(tvec.shape, np.nan)
    for i in np.flatnonzero(np.isfinite(params).all(axis=1)):
        out[i] = link_parameters(GKParams(*params[i]))
    return out


def estimation_target(data: np.ndarray) -> LMoments:
    """The sample L-moments :func:`estimate_gk` matches.

    Needs at least 20 observations.
    """
    x = np.asarray(data, dtype=float)
    if x.size < _MIN_FIT_SAMPLE:
        raise ValueError(f"need at least {_MIN_FIT_SAMPLE} observations, got {x.size}")
    return sample_lmoments(x)


def estimate_gk(data: np.ndarray) -> GKParams:
    """Estimate (A, B, g, k) from data by L-moment matching."""
    return estimate_gk_from_lmoments(estimation_target(data))
