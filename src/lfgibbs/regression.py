"""Weighted regression families used to estimate full conditionals.

Three families are provided:
  - weighted linear least squares (normal equations with a ridge jitter),
  - weighted logistic regression fitted by IRLS for binary parameters,
  - a flexible heteroscedastic model: a small neural network for the
    conditional mean plus a second network for the conditional variance,
    sampled through standardized residuals.

All fitting functions take explicit sample weights; the weights are
normalized internally and rows with zero weight never influence a fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LinearFit",
    "LogisticFit",
    "FlexibleFit",
    "fit_weighted_linear",
    "sample_linear_parametric",
    "sample_linear_residual",
    "fit_weighted_logistic",
    "fit_flexible_heteroscedastic",
    "sample_flexible",
    "full_interactions",
    "interaction_names",
]

_RIDGE = 1e-10
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100
_COEF_CAP = 30.0
_VAR_FLOOR = 1e-8
_SPAN_RTOL = 1e-8
_MIN_FLEX_ROWS = 50
# exp-link squared loss is not Lipschitz: once a prediction overshoots a
# heavy-tailed target the err*pred gradient factor diverges within a few
# epochs, so the linear predictor is capped and gradients are clipped
_FLEX_EXP_CAP = 30.0
_FLEX_GRAD_CLIP = 1.0
# each flexible network: tanh units, full-batch epochs and learning rate
_FLEX_HIDDEN = 16
_FLEX_EPOCHS = 2000
_FLEX_LR = 1e-2


def _normalize_weights(w: np.ndarray, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    if np.any(w < 0) or not np.isfinite(w).all():
        raise ValueError("weights must be non-negative and finite")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return w / total


@dataclass
class LinearFit:
    """Weighted linear model theta = x' beta + eps, eps ~ N(0, sigma2).

    Column ``dropped[k]``, given coefficient 0, is x @ relation[:, k] on the
    fitted rows; ``predict`` raises ArithmeticError at a query breaking
    such a relation by more than a relative 1e-8, outside their span."""

    beta: np.ndarray
    sigma2: float
    fitted: np.ndarray
    residuals: np.ndarray
    weights: np.ndarray  # normalized
    dropped: Tuple[int, ...] = ()
    relation: Optional[np.ndarray] = None

    def outside_span(self, x: np.ndarray) -> List[int]:
        """The dropped columns whose relation the query x breaks."""
        if not self.dropped:
            return []
        x = np.asarray(x, dtype=float)
        xd, rel = x[list(self.dropped)], self.relation
        off = np.abs(xd - x @ rel) > _SPAN_RTOL * (np.abs(x) @ np.abs(rel) + np.abs(xd))
        return [c for c, bad in zip(self.dropped, off) if bad]

    def predict(self, x: np.ndarray) -> float:
        if outside := self.outside_span(x):
            raise ArithmeticError(
                "query lies outside the span of the fitted rows: it breaks the "
                f"linear relation of dropped columns {outside} to the kept ones")
        return float(np.asarray(x, dtype=float) @ self.beta)


def fit_weighted_linear(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> LinearFit:
    """Solve the weighted normal equations with a ridge jitter of 1e-10.

    sigma2 is the weighted mean squared residual under the normalized
    weights.  Rows of zero weight are dropped before the normal equations
    are formed; when no weight is zero, x and y are used without a copy
    (a C-ordered copy of a design in another layout), which gives the same
    bits as the masked copies.  When the weighted Gram matrix is rank
    deficient even after the jitter, the fit is redone, bit for bit, on the
    columns ``_deficient_columns`` keeps, and the others get coefficient 0;
    when it keeps all, the design is full rank but ill-conditioned, and the
    error gives the Gram condition number and the smallest QR pivot's column.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    w = _normalize_weights(weights, n)

    active = w > 0
    # with every weight positive the masked copies would equal x and y in
    # values and C layout, so the fit reads them as given
    xa, ya, wa = ((np.ascontiguousarray(x), np.ascontiguousarray(y), w) if active.all()
                  else (x[active], y[active], w[active]))
    xw = xa * wa[:, None]
    gram = xa.T @ xw
    # the jitter stabilizes borderline conditioning but cannot repair exact
    # linear dependence, so deficiency is checked on the Gram itself
    if np.linalg.matrix_rank(gram, hermitian=True) < p:
        bad, weakest = _deficient_columns(xa, np.asarray(weights, dtype=float)[active])
        if not bad:
            raise ArithmeticError(
                "design is ill-conditioned after ridge jitter: Gram condition number "
                f"{np.linalg.cond(gram):.3g}; pivoted QR drops no column, and its "
                f"smallest pivot is column {weakest}")
        kept = np.setdiff1d(np.arange(p), bad)
        # the same QR keeps every one of these columns, so this fit drops none
        fit = fit_weighted_linear(x[:, kept], y, weights)
        beta, relation = np.zeros(p), np.zeros((p, len(bad)))
        beta[kept] = fit.beta
        q, r = np.linalg.qr(xa[:, kept])
        relation[kept] = np.linalg.solve(r, q.T @ xa[:, bad])
        return replace(fit, beta=beta, dropped=tuple(bad), relation=relation)
    gram_j = gram + _RIDGE * np.eye(p)
    rhs = xw.T @ ya
    beta = np.linalg.solve(gram_j, rhs)
    if not np.isfinite(beta).all():
        raise ArithmeticError("linear solve produced non-finite coefficients")
    fitted = x @ beta
    resid = y - fitted
    sigma2 = float(np.sum(w * resid * resid))
    return LinearFit(beta=beta, sigma2=sigma2, fitted=fitted,
                     residuals=resid, weights=w)


def _deficient_columns(x: np.ndarray, w: np.ndarray) -> Tuple[List[int], int]:
    """Columns adding no rank on the rows of x, and the smallest pivot's column:
    the constant ones but the first nonzero (the intercept), then those pivoted
    QR drops from the rest, centred at their w-weighted means beside an
    intercept, which QR on the raw design would drop."""
    from scipy.linalg import qr

    const = np.flatnonzero((x == x[0]).all(axis=0))
    intercept = next((int(c) for c in const if x[0, c] != 0), None)
    bad = [int(c) for c in const if c != intercept]
    rest = np.setdiff1d(np.arange(x.shape[1]), const)
    if not rest.size:
        return bad, intercept
    xr = x[:, rest]
    xs = (xr - w @ xr / w.sum() if intercept is not None else xr) * np.sqrt(w)[:, None]
    r, piv = qr(xs, mode="r", pivoting=True)[0:2]
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(xs.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    return sorted(bad + [int(c) for c in rest[piv[rank:]]]), int(rest[piv[np.argmin(diag)]])


def sample_linear_parametric(fit: LinearFit, x: np.ndarray,
                             rng: np.random.Generator) -> float:
    """Draw from N(x' beta, sigma2); degenerates to the mean when sigma2=0."""
    mean = fit.predict(x)
    if fit.sigma2 <= 0:
        return mean
    return mean + np.sqrt(fit.sigma2) * rng.standard_normal()


def sample_linear_residual(fit: LinearFit, x: np.ndarray,
                           rng: np.random.Generator) -> float:
    """Draw x' beta + r with r resampled from the weighted residuals."""
    idx = _weighted_index(fit.weights, rng)
    return fit.predict(x) + float(fit.residuals[idx])


def _weighted_index(w: np.ndarray, rng: np.random.Generator) -> int:
    """Index draw proportional to non-negative weights."""
    total = np.cumsum(w)
    if total.size == 0 or total[-1] <= 0:
        raise ValueError("resampling needs at least one positive weight")
    u = rng.random() * total[-1]
    return int(np.searchsorted(total, u, side="right").clip(0, w.size - 1))


@dataclass
class LogisticFit:
    """Weighted logistic model P(theta=1 | x) = 1 / (1 + exp(-x' beta))."""

    beta: np.ndarray
    converged: bool
    n_iter: int

    def predict_prob(self, x: np.ndarray) -> float:
        eta = float(np.asarray(x, dtype=float) @ self.beta)
        return float(_sigmoid(np.array(eta)))


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fit_weighted_logistic(x: np.ndarray, y: np.ndarray,
                          weights: np.ndarray) -> LogisticFit:
    """IRLS for weighted logistic regression.

    Stops when the largest coefficient change falls below 1e-8 or after 100
    iterations.  As a separation guard, coefficients are clamped to [-30, 30]
    componentwise; a fit that hits the cap is returned with converged=False.
    Both response classes must be present among positive-weight rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("logistic response must be binary 0/1")
    w = _normalize_weights(weights, n)
    active = w > 0
    if np.unique(y[active]).size < 2:
        raise ValueError("both response classes must be present among "
                         "positive-weight samples")

    xa, ya, wa = x[active], y[active], w[active]
    beta = np.zeros(p)
    capped = False
    n_iter = 0
    for n_iter in range(1, _IRLS_MAX_ITER + 1):
        eta = xa @ beta
        # clip keeps the working response finite yet loose enough that
        # separated fits keep growing until the coefficient cap catches them
        mu = np.clip(_sigmoid(eta), 1e-15, 1.0 - 1e-15)
        irls_w = wa * mu * (1.0 - mu)
        z = eta + (ya - mu) / (mu * (1.0 - mu))
        xw = xa * irls_w[:, None]
        gram = xa.T @ xw
        # jitter relative to the Gram scale: under separation the Gram decays
        # towards zero and an absolute jitter would stall the iteration
        # before the coefficient cap can flag the fit
        jit = _RIDGE * max(float(np.abs(np.diag(gram)).max()), np.finfo(float).tiny)
        beta_new = np.linalg.solve(gram + jit * np.eye(p), xw.T @ z)
        clipped = np.clip(beta_new, -_COEF_CAP, _COEF_CAP)
        capped = capped or bool(np.any(clipped != beta_new))
        delta = np.max(np.abs(clipped - beta))
        beta = clipped
        if delta < _IRLS_TOL:
            break
    converged = (not capped) and delta < _IRLS_TOL
    return LogisticFit(beta=beta, converged=converged, n_iter=n_iter)


def full_interactions(values: Sequence[float], max_order: int = 3) -> np.ndarray:
    """Design row [1, mains, pairwise products, ..., up to max_order].

    Term order is deterministic: the intercept, then products over index
    combinations in lexicographic order within each interaction order.
    """
    v = np.asarray(values, dtype=float)
    terms = [1.0]
    for order in range(1, max_order + 1):
        for idx in itertools.combinations(range(v.size), order):
            terms.append(float(np.prod(v[list(idx)])))
    return np.array(terms)


def interaction_names(names: Sequence[str], max_order: int = 3) -> List[str]:
    """Column labels matching :func:`full_interactions`."""
    out = ["1"]
    for order in range(1, max_order + 1):
        for idx in itertools.combinations(range(len(names)), order):
            out.append("*".join(names[i] for i in idx))
    return out


class _TinyNet:
    """Single hidden layer of tanh units trained by full-batch gradient descent.

    Inputs are standardized inside the net.  The output is linear, or
    exp(linear) when a positive response is requested; positive responses
    are scaled by their weighted mean so the network trains near exp(0).
    """

    def __init__(self, positive: bool, rng: np.random.Generator):
        self.positive = positive
        self._rng = rng

    def fit(self, x: np.ndarray, y: np.ndarray, w: np.ndarray) -> None:
        n, p = x.shape
        self.x_mean = w @ x
        self.x_std = np.maximum(np.sqrt(w @ (x - self.x_mean) ** 2), 1e-12)
        xs = (x - self.x_mean) / self.x_std
        if self.positive:
            if np.any(y <= 0):
                raise ValueError("positive-response fit requires positive targets")
            self.y_scale = float(w @ y)
            self.y_shift = 0.0
            ys = y / self.y_scale
        else:
            self.y_shift = float(w @ y)
            self.y_scale = float(np.maximum(np.sqrt(w @ (y - self.y_shift) ** 2), 1e-12))
            ys = (y - self.y_shift) / self.y_scale

        rng = self._rng
        h = _FLEX_HIDDEN
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(p), size=(p, h))
        self.b1 = np.zeros(h)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
        self.b2 = 0.0

        # gradient descent with momentum on the weighted squared loss
        vel = [np.zeros_like(self.w1), np.zeros_like(self.b1),
               np.zeros_like(self.w2), 0.0]
        momentum = 0.9
        for _ in range(_FLEX_EPOCHS):
            z = np.tanh(xs @ self.w1 + self.b1)
            a = z @ self.w2 + self.b2
            if self.positive:
                a = np.clip(a, -_FLEX_EXP_CAP, _FLEX_EXP_CAP)
            pred = np.exp(a) if self.positive else a
            err = pred - ys
            # d loss / d a, loss = sum_i w_i (pred_i - ys_i)^2
            ga = 2.0 * w * err * (pred if self.positive else 1.0)
            gw2 = z.T @ ga
            gb2 = float(ga.sum())
            gz = np.outer(ga, self.w2) * (1.0 - z * z)
            gw1 = xs.T @ gz
            gb1 = gz.sum(axis=0)
            gb2 = float(np.clip(gb2, -_FLEX_GRAD_CLIP, _FLEX_GRAD_CLIP))
            for vi, (buf, grad) in enumerate(
                    ((self.w1, gw1), (self.b1, gb1), (self.w2, gw2))):
                peak = float(np.abs(grad).max()) if grad.size else 0.0
                if peak > _FLEX_GRAD_CLIP:
                    grad = grad * (_FLEX_GRAD_CLIP / peak)
                vel[vi] = momentum * vel[vi] - _FLEX_LR * grad
                buf += vel[vi]
            vel[3] = momentum * vel[3] - _FLEX_LR * gb2
            self.b2 += vel[3]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        xs = (x - self.x_mean) / self.x_std
        a = np.tanh(xs @ self.w1 + self.b1) @ self.w2 + self.b2
        if self.positive:
            return self.y_scale * np.exp(np.clip(a, -_FLEX_EXP_CAP, _FLEX_EXP_CAP))
        return self.y_shift + self.y_scale * a


@dataclass
class FlexibleFit:
    """Heteroscedastic fit theta = m(x) + s(x) * zeta with empirical zeta."""

    mean_net: _TinyNet
    var_net: _TinyNet
    zeta: np.ndarray      # standardized residuals of positive-weight rows
    weights: np.ndarray   # normalized weights of those rows
    zeta_mean: float = field(default=0.0)

    def mean(self, x: np.ndarray) -> float:
        return float(self.mean_net.predict(x)[0])

    def scale(self, x: np.ndarray) -> float:
        v = float(self.var_net.predict(x)[0])
        return float(np.sqrt(max(v, _VAR_FLOOR)))


def fit_flexible_heteroscedastic(x: np.ndarray, y: np.ndarray,
                                 weights: np.ndarray,
                                 positive_response: bool = False,
                                 rng: Optional[np.random.Generator] = None) -> FlexibleFit:
    """Two-stage flexible fit: mean network, then variance network.

    Stage one regresses the response on the features with a 16-unit tanh
    network (exp output link when the response is positive).  Stage two fits
    the squared stage-one residuals with the same architecture and an exp
    output link; the predicted variance is floored at 1e-8 before taking
    square roots.  Each network trains for 2 000 full-batch epochs.  Needs
    at least 50 positive-weight rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n, _ = x.shape
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    w = _normalize_weights(weights, n)
    active = w > 0
    if int(active.sum()) < _MIN_FLEX_ROWS:
        raise ValueError(f"need at least {_MIN_FLEX_ROWS} positive-weight rows, "
                         f"got {int(active.sum())}")
    if rng is None:
        rng = np.random.default_rng(0)

    xa, ya = x[active], y[active]
    wa = w[active] / w[active].sum()

    mean_net = _TinyNet(positive_response, rng)
    mean_net.fit(xa, ya, wa)
    resid = ya - mean_net.predict(xa)

    var_net = _TinyNet(True, rng)
    sq = np.maximum(resid * resid, _VAR_FLOOR)
    var_net.fit(xa, sq, wa)
    sd = np.sqrt(np.maximum(var_net.predict(xa), _VAR_FLOOR))
    zeta = resid / sd
    return FlexibleFit(mean_net=mean_net, var_net=var_net, zeta=zeta,
                       weights=wa, zeta_mean=float(wa @ zeta))


def sample_flexible(fit: FlexibleFit, x: np.ndarray,
                    rng: np.random.Generator) -> float:
    """Draw m(x) + s(x) * zeta_i with i resampled by the fit weights."""
    idx = _weighted_index(fit.weights, rng)
    return fit.mean(x) + fit.scale(x) * float(fit.zeta[idx])
