"""Tests for the effective sample size and split R-hat estimators."""

import tracemalloc
import warnings

import numpy as np
import pytest

from lfgibbs.diagnostics import effective_sample_size, split_rhat


def test_iid_chain():
    rng = np.random.default_rng(1)
    chain = rng.standard_normal(10 ** 4)
    ess = effective_sample_size(chain)
    assert 0.8 * 10 ** 4 <= ess <= 1.2 * 10 ** 4


def test_constant_chain_flagged():
    with pytest.warns(UserWarning, match="constant"):
        ess = effective_sample_size(np.full(500, 3.0))
    assert ess == 1.0


def test_ar1_analytic():
    # AR(1) with coefficient 0.9: ESS -> n (1-rho)/(1+rho) = n/19
    rng = np.random.default_rng(2)
    n = 10 ** 5
    noise = rng.standard_normal(n)
    chain = np.empty(n)
    chain[0] = noise[0]
    for t in range(1, n):
        chain[t] = 0.9 * chain[t - 1] + noise[t]
    expected = n * (1 - 0.9) / (1 + 0.9)
    ess = effective_sample_size(chain)
    assert abs(ess - expected) < 0.2 * expected


def test_short_chain_rejected():
    with pytest.raises(ValueError):
        effective_sample_size(np.arange(50.0))


def test_ess_not_above_length():
    rng = np.random.default_rng(3)
    # antithetic-flavored chain: negative lag-1 correlation
    base = rng.standard_normal(2000)
    chain = np.repeat(base, 2) * np.tile([1.0, -1.0], 2000)
    ess = effective_sample_size(chain)
    assert 1.0 <= ess <= chain.size


def reference_ess(chain):
    """The one-column estimator as a loop over lag pairs: the oracle the
    blocked two-dimensional form must reproduce bit for bit."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    if float(x @ x) / n <= 0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    rho = acov / acov[0]
    total = 0.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        total += pair
        k += 2
    return float(min(max(n / (1.0 + 2.0 * total), 1.0), n))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def ar1_columns(rng, n, width, low=0.5, high=0.99):
    phi = rng.uniform(low, high, size=width)
    x = rng.standard_normal((n, width))
    for t in range(1, n):
        x[t] += phi * x[t - 1]
    return x


def assert_matches_columns(chain):
    """The 2-D ESS equals, bit for bit, the oracle and the 1-D call on
    every column."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = effective_sample_size(chain)
        one_d = np.array([effective_sample_size(chain[:, j])
                          for j in range(chain.shape[1])])
        want = np.array([reference_ess(chain[:, j]) for j in range(chain.shape[1])])
    assert got.shape == (chain.shape[1],)
    np.testing.assert_array_equal(bits(got), bits(want))
    np.testing.assert_array_equal(bits(one_d), bits(want))
    return got


class TestTwoDimensional:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_iid_and_ar1_columns_bit_for_bit(self, width):
        rng = np.random.default_rng(width)
        n = 280
        chain = rng.standard_normal((n, width))
        chain[:, ::2] = ar1_columns(rng, n, width)[:, ::2]
        ess = assert_matches_columns(chain)
        if width > 1:
            # the AR(1) columns mix slowly, the iid ones do not
            assert np.median(ess[::2]) < 0.2 * n < np.median(ess[1::2])

    @pytest.mark.parametrize("n", [100, 101, 128, 129, 1000])
    def test_lengths_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        chain = 5.0 + 1e-3 * ar1_columns(rng, n, 70, 0.0, 0.999)
        assert_matches_columns(chain)

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError, match="100"):
            effective_sample_size(np.zeros((99, 3)))
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros((200, 2, 2)))

    def test_constant_nan_and_inf_columns(self):
        rng = np.random.default_rng(5)
        chain = ar1_columns(rng, 300, 66)
        chain[:, 3] = 2.5
        chain[7, 10] = np.nan
        chain[9, 64] = np.inf
        chain[9, 65] = -np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ess = effective_sample_size(chain)
        constant = [w for w in caught if "constant" in str(w.message)]
        assert len(constant) == 1 and "[3]" in str(constant[0].message)
        assert ess[3] == 1.0
        assert np.isnan(ess[[10, 64, 65]]).all()
        assert np.isfinite(np.delete(ess, [10, 64, 65])).all()
        assert_matches_columns(chain)

    def test_strided_and_integer_input(self):
        rng = np.random.default_rng(6)
        chain = ar1_columns(rng, 200, 140)
        np.testing.assert_array_equal(
            bits(effective_sample_size(chain[:, ::2])),
            bits(effective_sample_size(np.ascontiguousarray(chain[:, ::2]))))
        counts = rng.integers(0, 5, size=(150, 4))
        np.testing.assert_array_equal(
            bits(effective_sample_size(counts)),
            bits(effective_sample_size(counts.astype(float))))

    def test_memory_does_not_grow_with_width(self):
        # columns are transformed in blocks, so the working memory is that
        # of one block: about 2 MB at 280 states, where all 5 000 columns
        # at once would hold 41 MB of spectra
        rng = np.random.default_rng(7)
        peaks = []
        for width in (64, 5_000):
            chain = rng.standard_normal((280, width))
            tracemalloc.start()
            try:
                effective_sample_size(chain)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * 2 ** 20
        assert peaks[1] < peaks[0] + 8 * 5_000 + 2 ** 16


def reference_rhat(col):
    """Split R-hat of one column, step by step from its definition."""
    n = len(col)
    if n < 100:
        return np.nan
    h = n // 2
    first, last = col[:h], col[n - h:]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.mean([first.var(ddof=1), last.var(ddof=1)])
        b = h * np.var([first.mean(), last.mean()], ddof=1)
        rhat = np.sqrt(((h - 1) / h * w + b / h) / w)
    return float(rhat) if w > 0 and np.isfinite(rhat) else np.nan


class TestSplitRhat:
    @pytest.mark.parametrize("n", [100, 101, 280, 999])
    def test_columns_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        chain = ar1_columns(rng, n, 70) * rng.lognormal(size=70) + rng.normal(size=70)
        chain[:, 3] = 2.5
        chain[n // 3, 5] = np.nan
        chain[2 * n // 3, 6] = np.inf
        chain[:, 7] = np.where(np.arange(n) < n // 2, 1.0, 2.0)   # W = 0 < B
        rhat = split_rhat(chain)
        expected = np.array([reference_rhat(chain[:, j]) for j in range(70)])
        np.testing.assert_array_equal(bits(rhat), bits(expected))
        assert np.isnan(rhat[[3, 5, 6, 7]]).all()
        assert np.isfinite(np.delete(rhat, [3, 5, 6, 7])).all()
        assert split_rhat(chain[:, 0]) == rhat[0]

    def test_non_finite_column_warns_nothing(self):
        chain = np.random.default_rng(3).standard_normal((120, 2))
        chain[7, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(split_rhat(chain)[1])

    def test_random_walk_flagged(self):
        walk = np.cumsum(np.random.default_rng(11).standard_normal(400))
        assert split_rhat(walk) > 1.1

    def test_iid_column_near_one(self):
        assert split_rhat(np.random.default_rng(12).standard_normal(1000)) < 1.01

    def test_short_chain_reads_nan(self):
        assert np.isnan(split_rhat(np.zeros((99, 3)))).all()
        assert np.isnan(split_rhat(np.arange(99.0)))
        with pytest.raises(ValueError, match="dimensional"):
            split_rhat(np.zeros((100, 2, 2)))
