"""Smoothing kernels, scaled distances and the one table localizer.

Conventions used throughout the package:
  - distances are non-negative scalars produced by ``scaled_distance``,
  - kernels are unnormalized (only weight ratios matter downstream),
  - an infinite bandwidth is legal and makes every sample weight equal,
  - ``localize`` weights a table from squared distances, roots on kept rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "KernelSpec",
    "DistanceScaling",
    "kernel_weight",
    "knn_bandwidth",
    "localize",
    "scaled_distance",
    "squared_scaled_distance",
]

_TIE_MARGIN = 1e-9
_SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    kind: "uniform" or "epanechnikov".
    bandwidth: positive, possibly infinite.  With an infinite bandwidth the
    uniform kernel weights every point equally; the Epanechnikov kernel
    degenerates the same way (the quadratic correction vanishes).
    """

    kind: str = "uniform"
    bandwidth: float = math.inf

    def __post_init__(self):
        if self.kind not in ("uniform", "epanechnikov"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def with_bandwidth(self, h: float) -> "KernelSpec":
        return KernelSpec(self.kind, h)


def kernel_weight(distance: Union[float, np.ndarray], spec: KernelSpec) -> Union[float, np.ndarray]:
    """Unnormalized kernel value at the given distance(s).

    Uniform: 1 inside the bandwidth, 0 at or beyond it.
    Epanechnikov: max(0, 1 - (d/h)^2), computed as 1 - u^2 with
    u = min(d, h)/h <= 1, which cannot overflow however small h is.
    Both return 1 everywhere for an infinite bandwidth.
    """
    d = np.asarray(distance, dtype=float)
    if (d < 0).any():
        raise ValueError("distances must be non-negative")
    h = spec.bandwidth
    if math.isinf(h):
        out = np.ones_like(d)
    elif spec.kind == "uniform":
        out = (d < h).astype(float)
    else:
        u = np.minimum(d, h) / h
        out = 1.0 - u * u
    if np.ndim(distance) == 0:
        return float(out)
    return out


def knn_bandwidth(distances: np.ndarray, m: int) -> float:
    """Bandwidth that keeps the m nearest points inside the kernel support.

    Returns the m-th smallest distance inflated by a relative margin of 1e-9
    so ties at the boundary stay inside (the uniform kernel has an open
    support check, and exact ties would otherwise drop out).  When the m-th
    distance is zero it returns the smallest normal float instead, a
    positive bandwidth that keeps exactly the zero-distance points inside
    (a positive ``scaled_distance`` is a square root, never below it).
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a non-empty 1-d array")
    if not 1 <= m <= d.size:
        raise ValueError(f"m must be in [1, {d.size}], got {m}")
    return _inflate(np.partition(d, m - 1)[m - 1])


def _inflate(kth: float) -> float:
    """``kth`` times 1 + 1e-9, or the smallest normal float when ``kth`` is 0."""
    return float(kth) * (1.0 + _TIE_MARGIN) or float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DistanceScaling:
    """Per-coordinate scale factors for the distance metric.

    Scales are typically the weighted sample standard deviations of each
    coordinate over a reference table, floored at 1e-12 so constant
    coordinates do not produce infinities.
    """

    scales: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        if s.ndim != 1:
            raise ValueError("scales must be a 1-d array")
        if np.any(~np.isfinite(s)) or np.any(s <= 0):
            raise ValueError("scales must be positive and finite")
        object.__setattr__(self, "scales", s)

    @classmethod
    def identity(cls, dim: int) -> "DistanceScaling":
        return cls(np.ones(dim))

    @classmethod
    def from_samples(cls, x: np.ndarray, weights: Optional[np.ndarray] = None) -> "DistanceScaling":
        """Weighted per-coordinate standard deviations of the rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if weights is None:
            w = np.full(x.shape[0], 1.0 / x.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (x.shape[0],):
                raise ValueError("weights must match the number of rows")
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative with positive sum")
            w = w / w.sum()
        mean = w @ x
        var = w @ (x - mean) ** 2
        return cls(np.maximum(np.sqrt(var), _SCALE_FLOOR))


def squared_scaled_distance(a: np.ndarray, b: np.ndarray,
                            scaling: DistanceScaling) -> Union[float, np.ndarray]:
    """Diagonally scaled squared Euclidean distance sum ((a_j-b_j)/s_j)^2.

    Accepts a single vector or a matrix of row vectors for ``a``; ``b`` is a
    single vector.  Dimensions must match the scaling.

    The squared terms of each row are summed by ``np.sum`` over the
    C-ordered difference matrix, so a matrix of any other layout is first
    copied to C order; the sums are then bit-identical to
    ``np.sum(z * z, axis=-1)`` on a C-ordered ``z`` whatever the layout of
    ``a``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = scaling.scales
    if b.shape != s.shape:
        raise ValueError(f"b has shape {b.shape}, expected {s.shape}")
    if a.shape[-1] != s.size:
        raise ValueError(f"a has last dimension {a.shape[-1]}, expected {s.size}")
    z = np.ascontiguousarray(a) - b
    z /= s
    z *= z
    out = z.sum(axis=-1)
    return float(out) if a.ndim == 1 else out


def scaled_distance(a: np.ndarray, b: np.ndarray, scaling: DistanceScaling) -> Union[float, np.ndarray]:
    """Diagonally scaled Euclidean distance, the root of ``squared_scaled_distance``."""
    d2 = squared_scaled_distance(a, b, scaling)
    return math.sqrt(d2) if isinstance(d2, float) else np.sqrt(d2)


def _root_threshold(h: float) -> float:
    """The smallest double t with sqrt(t) >= h.

    sqrt is correctly rounded and monotone, so a double d2 >= 0 has
    d2 < t exactly when sqrt(d2) < h.  h * h lies within a step or two of
    t; an h * h that underflows to 0 or overflows to inf is stepped from
    there the same way.
    """
    t = h * h
    while math.sqrt(t) < h:
        t = math.nextafter(t, math.inf)
    while t > 0 and math.sqrt(math.nextafter(t, 0.0)) >= h:
        t = math.nextafter(t, 0.0)
    return t


def localize(d2: np.ndarray, kernel: KernelSpec, m: Optional[int] = None
             ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Positive-weight rows at squared distances ``d2``, their weights and the bandwidth.

    The bandwidth h is the kernel's own, or with ``m`` the root of the m-th
    smallest d2 (sqrt is monotone, so the m-th smallest distance) inflated
    as ``knn_bandwidth`` inflates it.  The kernel's own infinite bandwidth
    keeps every row at weight 1.  Otherwise the rows of positive kernel
    weight are those closer than h (for the Epanechnikov kernel d < h
    rounds d/h below 1), which are those with d2 below
    ``_root_threshold(h)``; a NaN distance is never kept.  Rows come in
    table order with the weights ``kernel_weight`` gives their distances.
    """
    h = kernel.bandwidth
    if m is not None:
        if not 1 <= m <= d2.size:
            raise ValueError(f"m must be in [1, {d2.size}], got {m}")
        h = _inflate(math.sqrt(np.partition(d2, m - 1)[m - 1]))
    elif math.isinf(h):
        return np.arange(d2.size), np.ones(d2.size), h
    rows = np.flatnonzero(d2 < _root_threshold(h))
    return rows, kernel_weight(np.sqrt(d2[rows]), kernel.with_bandwidth(h)), h


def _pairwise_sum(term, lo: int, hi: int) -> np.ndarray:
    """term(lo) + ... + term(hi - 1), associated as numpy's pairwise sum.

    numpy sums a contiguous row left to right below 8 terms; from 8 to 128
    terms in 8 interleaved partial sums combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining terms left to
    right; above 128 terms it sums halves split at a multiple of 8.  The
    ``term(j)`` arrays are only read: every partial sum is a fresh array.
    """
    n = hi - lo
    if n < 8:
        if n == 1:
            return term(lo).copy()
        acc = term(lo) + term(lo + 1)
        for j in range(lo + 2, hi):
            acc += term(j)
        return acc
    if n <= 128:
        r = [term(lo + k) for k in range(8)]
        stop = hi - n % 8
        if stop > lo + 8:
            r = [r[k] + term(lo + 8 + k) for k in range(8)]
        for i in range(lo + 16, stop, 8):
            for k in range(8):
                r[k] += term(i + k)
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(stop, hi):
            acc += term(j)
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise_sum(term, lo, lo + half) + _pairwise_sum(term, lo + half, hi)
