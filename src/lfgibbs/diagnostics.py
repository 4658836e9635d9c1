"""MCMC output diagnostics."""

from __future__ import annotations

import warnings
from typing import Tuple, Union

import numpy as np

__all__ = ["effective_sample_size", "split_rhat"]

_MIN_STATES = 100
# columns transformed together: enough to leave the per-column Python
# work behind, few enough that the block's spectra stay small (on a
# 280 x 612 chain the pass peaks at 1.4 MB of working memory in blocks
# of 64, and at 12 MB with all columns at once)
_BLOCK = 64


def effective_sample_size(chain: np.ndarray) -> Union[float, np.ndarray]:
    """ESS = M / (1 + 2 sum rho_k) with the initial-positive-sequence rule.

    Autocorrelations are estimated by FFT and summed over consecutive lag
    pairs (rho_1+rho_2), (rho_3+rho_4), ... until the first pair with a
    non-positive sum; lags beyond that point are noise (Geyer 1992).  A
    constant chain has no information and returns 1 with a degeneracy
    warning; a chain holding NaN or infinite states returns NaN.
    Requires at least 100 retained states.

    A one-dimensional chain gives a float.  A two-dimensional chain, one
    state per row, gives an array with the ESS of every column, each
    entry bit for bit the float that column gives on its own; a single
    warning names the constant columns.  The columns are processed in
    transposed, C-ordered blocks of at most 64, so the working memory
    does not grow with the width.
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("chain must be one- or two-dimensional")
    n = x.shape[0]
    if n < _MIN_STATES:
        raise ValueError(f"need at least {_MIN_STATES} retained states, got {n}")
    if x.ndim == 1:
        ess, flat = _block_ess(x[None, :])
        if flat[0]:
            warnings.warn("degenerate (constant) chain; ESS is 1 by convention")
        return float(ess[0])
    width = x.shape[1]
    out = np.empty(width)
    constant = []
    for j in range(0, width, _BLOCK):
        out[j:j + _BLOCK], flat = _block_ess(x[:, j:j + _BLOCK].T)
        constant.extend((j + np.flatnonzero(flat)).tolist())
    if constant:
        warnings.warn(f"degenerate (constant) chain in columns {constant}; "
                      "ESS is 1 by convention")
    return out


def split_rhat(chain: np.ndarray) -> Union[float, np.ndarray]:
    """Single-chain split R-hat (Gelman et al. 2013, BDA3 sec. 11.4).

    The retained states are split into a first and a last half of
    h = floor(n/2) rows each (the middle row is dropped when n is odd).
    With W the mean of the two within-half variances and B = h times the
    variance of the two half means (both with ddof 1),
    R-hat = sqrt(((h - 1)/h W + B/h) / W).  Values well above 1 say the
    two halves have not found the same distribution.

    A one-dimensional chain gives a float, a two-dimensional chain (one
    state per row) an array with one entry per column, each bit for bit
    what that column gives on its own.  The entry is NaN when the chain
    has fewer than 100 retained states (as the ESS needs), when the
    column is constant or holds a NaN or infinite state, and wherever W
    is zero.
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("chain must be one- or two-dimensional")
    n = x.shape[0]
    cols = np.array(x.reshape(n, -1).T, order="C")
    rhat = np.full(cols.shape[0], np.nan)
    if n >= _MIN_STATES:
        h = n // 2
        # each row of ``cols`` is one column of the chain, reduced along
        # the row as a one-dimensional array would be
        halves = (cols[:, :h], cols[:, n - h:])
        with np.errstate(invalid="ignore", divide="ignore"):   # inf - inf, 0/0
            w = np.mean([a.var(axis=1, ddof=1) for a in halves], axis=0)
            b = h * np.var(np.column_stack([a.mean(axis=1) for a in halves]),
                           axis=1, ddof=1)
            ratio = np.sqrt(((h - 1) / h * w + b / h) / w)
        ok = (w > 0) & np.isfinite(ratio)
        rhat[ok] = ratio[ok]
    return float(rhat[0]) if x.ndim == 1 else rhat


def _block_ess(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ESS of each row of ``block`` (one chain per row) and which rows
    are constant.

    Each step is the one a single chain takes, applied along the rows of
    a C-ordered copy, so every row gets the bits it would get alone: the
    row means and the FFTs along axis 1 reduce and transform each row as
    a one-dimensional array, the degeneracy test is the same ``x @ x``
    per row, and ``np.cumsum`` adds the lag pairs left to right as a loop
    does.  The complex square ``f * conj(f)`` is taken row by row: one
    multiply over the whole block rounds some entries differently from
    the multiply over a single row, since which entries numpy's
    vectorized loop takes and which its scalar remainder takes depends
    on the length of the array.
    """
    x = np.array(block, dtype=float, order="C")
    rows, n = x.shape
    x -= x.mean(axis=1)[:, None]
    flat = np.array([float(r @ r) / n <= 0 for r in x], dtype=bool)

    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=1)
    for r in f:
        np.multiply(r, np.conj(r), out=r)
    acov = np.fft.irfft(f, nfft, axis=1)[:, :n] / n
    with np.errstate(invalid="ignore", divide="ignore"):   # constant rows: 0/0
        rho = acov / acov[:, :1]

    # pair k holds rho[2k + 1] + rho[2k + 2]; the sum stops before the
    # first non-positive pair (a NaN pair does not stop it)
    n_pairs = (n - 1) // 2
    pairs = rho[:, 1:2 * n_pairs:2] + rho[:, 2:2 * n_pairs + 1:2]
    stop = pairs <= 0
    cut = np.where(stop.any(axis=1), stop.argmax(axis=1), n_pairs)
    sums = np.cumsum(pairs, axis=1)
    total = np.where(cut > 0, sums[np.arange(rows), cut - 1], 0.0)
    ess = np.minimum(np.maximum(n / (1.0 + 2.0 * total), 1.0), n)
    ess[flat] = 1.0
    return ess, flat
