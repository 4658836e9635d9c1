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

Estimation matches (l1, l2, t3, t4) by scipy's Nelder-Mead on the link
scale, with a fixed 32-point panel grid inside the objective.  Many
targets are estimated at once by :func:`estimate_gk_batch`, which runs one
lock-step Nelder-Mead over all of them: every row repeats scipy's steps
(simplex, reflect / expand / contract / shrink, sorting, stopping tests)
and every objective value is computed with the scalar objective's exact
operations, so each row is bit for bit what :func:`estimate_gk_from_lmoments`
returns, failures included.  A row that reaches the evaluation cap fails
there, as scipy's search does whenever its count reaches the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize
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
_FIT_PANEL_ORDER = 32  # fixed grid used inside the estimator objective
_MIN_SAMPLE = 4        # smallest n with defined fourth L-moment
_MIN_FIT_SAMPLE = 20
# Nelder-Mead settings of the estimator, shared by the scalar and batch paths
_XATOL = 1e-8
_FATOL = 1e-14
_MAXFEV = 5000
_PENALTY = 1e12        # objective value where the L-moments are unusable
_CHUNK = 16            # points per block of the batch objective


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


def _start(target: LMoments, init: Optional[GKParams] = None) -> np.ndarray:
    """Validated target's starting point on the link scale.

    The default start is the Gaussian case (g = k = 0) with the target's
    location and the scale whose l2 matches, B = l2 * sqrt(pi).
    """
    if not target.l2 > 0 or not np.isfinite(target.as_array()).all():
        raise ValueError("degenerate target: second L-moment must be positive "
                         "and all L-moments finite")
    if init is None:
        init = GKParams(target.l1, target.l2 * np.sqrt(np.pi), 0.0, 0.0)
    return link_parameters(init)


def estimate_gk_from_lmoments(target: LMoments,
                              init: Optional[GKParams] = None) -> GKParams:
    """Match theoretical L-moments to a target by Nelder-Mead.

    The search runs on the unconstrained scale (A, log B, g, log(k+1/2)) so
    B > 0 and k > -0.5 hold by construction.  The objective is the squared
    mismatch of (l1, l2, t3, t4); theoretical values inside the optimizer
    come from a fixed quadrature grid for speed.
    """
    x0 = _start(target, init)
    tvec = target.as_array()
    z, pw = _grid(_FIT_PANEL_ORDER)

    def objective(x):
        b = np.exp(x[1])
        k = np.exp(x[3]) - 0.5
        e = np.exp(-x[2] * z)
        asym = 1.0 + 0.8 * (1.0 - e) / (1.0 + e)
        lam = pw @ (x[0] + b * asym * (1.0 + z * z) ** k * z)
        if lam[1] <= 0 or not np.isfinite(lam).all():
            return _PENALTY
        resid = np.array([lam[0], lam[1], lam[2] / lam[1], lam[3] / lam[1]]) - tvec
        return float(resid @ resid)

    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": _XATOL, "fatol": _FATOL,
                            "maxfev": _MAXFEV, "maxiter": _MAXFEV})
    if not res.success:
        raise ArithmeticError(f"L-moment matching did not converge: {res.message}")
    return unlink_parameters(res.x)


def _objective_rows(x: np.ndarray, tvec: np.ndarray) -> np.ndarray:
    """The scalar objective at every row of x against the row of tvec.

    Each step is the scalar objective's own operation on whole blocks of
    points, so every value is bit-identical to it: (1 + z^2) is a constant
    of the grid, every elementwise ufunc rounds per element, and
    ``matmul(pw, q[:, :, None])`` runs one BLAS gemv per point exactly as
    ``pw @ q`` does (``q @ pw.T`` would block the sums differently).
    """
    z, pw = _grid(_FIT_PANEL_ORDER)
    base = 1.0 + z * z
    out = np.empty(len(x))
    e = np.empty((_CHUNK, z.size))
    q = np.empty((_CHUNK, z.size))
    for lo in range(0, len(x), _CHUNK):
        xs = x[lo:lo + _CHUNK]
        c = len(xs)
        ec, qc = e[:c], q[:c]
        np.multiply(-xs[:, 2:3], z, out=ec)
        np.exp(ec, out=ec)
        np.subtract(1.0, ec, out=qc)
        qc *= 0.8
        ec += 1.0
        qc /= ec
        qc += 1.0                                   # asym
        qc *= np.exp(xs[:, 1:2])                    # b * asym
        np.power(base, np.exp(xs[:, 3:4]) - 0.5, out=ec)
        qc *= ec
        qc *= z
        qc += xs[:, 0:1]
        lam = np.matmul(pw, qc[:, :, None])[:, :, 0]
        # rows the scalar objective returns early on get _PENALTY below;
        # their ratios and residuals are computed but never used
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = np.stack((lam[:, 0], lam[:, 1], lam[:, 2] / lam[:, 1],
                              lam[:, 3] / lam[:, 1]), axis=1)
            resid -= tvec[lo:lo + c]
            val = np.vecdot(resid, resid)
        bad = (lam[:, 1] <= 0) | ~np.isfinite(lam).all(axis=1)
        val[bad] = _PENALTY
        out[lo:lo + c] = val
    return out


def _nelder_mead_rows(x0: np.ndarray, tvec: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """scipy's Nelder-Mead, run on every row at once in lock-step.

    Repeats ``scipy.optimize._minimize_neldermead`` (non-adaptive, with
    the options :func:`estimate_gk_from_lmoments` passes) step for step on
    each row: the same initial simplex, the same reflect / expand /
    contract / shrink expressions and coefficients, the same per-row
    ``argsort`` and the same stopping tests.  All points pending across
    rows go to one :func:`_objective_rows` call.  Returns the best vertex
    of each row and a mask of the rows that stopped converged; a row that
    reaches the evaluation cap stops unconverged, as scipy's does.
    """
    rows, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for j in range(dim):
        y = sim[:, j + 1, j]
        y[:] = np.where(y != 0, 1.05 * y, 0.00025)
    fsim = _objective_rows(sim.reshape(-1, dim),
                           np.repeat(tvec, dim + 1, axis=0)).reshape(rows, dim + 1)
    nfev = np.full(rows, dim + 1)
    best = np.empty((rows, dim))
    converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    sort_twice = 2                       # scipy sorts twice after the first pass
    while live.size:
        for _ in range(sort_twice):
            ind = np.argsort(fsim, axis=1)
            sim = np.take_along_axis(sim, ind[:, :, None], axis=1)
            fsim = np.take_along_axis(fsim, ind, axis=1)
        sort_twice = 1
        capped = nfev >= _MAXFEV
        done = capped | (
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
            & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _FATOL))
        if done.any():
            best[live[done]] = sim[done, 0]
            converged[live[done]] = ~capped[done]
            keep = ~done
            live, sim, fsim, nfev, tvec = (live[keep], sim[keep], fsim[keep],
                                           nfev[keep], tvec[keep])
            if not live.size:
                break
        # xbar = np.add.reduce(sim[:-1], 0) / N, summed in the same order
        xbar = sim[:, 0]
        for j in range(1, dim):
            xbar = xbar + sim[:, j]
        xbar = xbar / dim
        worst = sim[:, -1]
        xr = 2 * xbar - worst
        fxr = _objective_rows(xr, tvec)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        contract = ~expand & ~accept
        outside = contract & (fxr < fsim[:, -1])
        inside = contract & ~outside
        trial = np.where(expand[:, None], 3 * xbar - 2 * worst,
                         np.where(outside[:, None], 1.5 * xbar - 0.5 * worst,
                                  0.5 * xbar + 0.5 * worst))
        second = expand | contract
        ftrial = np.full(len(xr), np.nan)
        ftrial[second] = _objective_rows(trial[second], tvec[second])
        take_trial = ((expand & (ftrial < fxr)) | (outside & (ftrial <= fxr))
                      | (inside & (ftrial < fsim[:, -1])))
        take_r = (expand & ~take_trial) | accept
        shrink = contract & ~take_trial
        sim[take_trial, -1] = trial[take_trial]
        fsim[take_trial, -1] = ftrial[take_trial]
        sim[take_r, -1] = xr[take_r]
        fsim[take_r, -1] = fxr[take_r]
        nfev += 1 + second
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = _objective_rows(
                s[:, 1:].reshape(-1, dim),
                np.repeat(tvec[shrink], dim, axis=0)).reshape(-1, dim)
            nfev[shrink] += dim
    return best, converged


def estimate_gk_batch(targets: np.ndarray) -> np.ndarray:
    """Link-scale estimates for many L-moment targets at once.

    ``targets`` holds one (l1, l2, t3, t4) row per target.  Row i of the
    result is bit for bit
    ``link_parameters(estimate_gk_from_lmoments(LMoments(*targets[i])))``,
    and all-NaN where that call raises ValueError or ArithmeticError: the
    searches run in lock-step (:func:`_nelder_mead_rows`) on the scalar
    objective's exact arithmetic, and a row that reaches the evaluation
    cap fails as the scalar search does.
    """
    tvec = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.full(tvec.shape, np.nan)
    x0 = np.full(tvec.shape, np.nan)
    for i, row in enumerate(tvec):
        try:
            x0[i] = _start(LMoments(*row))
        except ValueError:
            pass
    valid = np.flatnonzero(np.isfinite(x0).all(axis=1))
    best, converged = _nelder_mead_rows(x0[valid], tvec[valid])
    for i, x in zip(valid[converged], best[converged]):
        try:
            out[i] = link_parameters(unlink_parameters(x))
        except ValueError:
            pass
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
