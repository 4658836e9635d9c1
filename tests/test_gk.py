import numpy as np
import pytest
from scipy.special import ndtri

import lfgibbs.gk as gk
from lfgibbs.gk import (
    GKParams,
    LMoments,
    estimate_gk,
    estimate_gk_batch,
    estimate_gk_from_lmoments,
    estimation_target,
    gk_quantile,
    gk_sample,
    link_parameters,
    sample_lmoments,
    theoretical_lmoments,
    unlink_parameters,
)
from lfgibbs.statespace import summarize_observations, training
from lfgibbs.statespace.training import PhiHypercube


def reference_quantile(q, A, B, g, k, c=0.8):
    # written independently of the package implementation
    z = ndtri(q)
    bracket = 1.0 + c * (1.0 - np.exp(-g * z)) / (1.0 + np.exp(-g * z))
    return A + B * bracket * (1.0 + z ** 2) ** k * z


class TestGKParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GKParams(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GKParams(0.0, 1.0, 0.0, -0.5)
        p = GKParams(1.0, 2.0, 3.0, 0.5)
        assert p.c == 0.8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_rejected(self, bad, slot):
        values = [1.0, 2.0, 3.0, 0.5]
        values[slot] = bad
        with pytest.raises(ValueError, match="must be finite"):
            GKParams(*values)
        # numpy scalars, as a row of a fitted array gives them, pass
        assert GKParams(*np.array([1.0, 2.0, 3.0, 0.5])).k == 0.5

    def test_link_roundtrip(self):
        p = GKParams(3.0, 1.5, -2.0, 0.25)
        q = unlink_parameters(link_parameters(p))
        np.testing.assert_allclose(q.as_array(), p.as_array(), rtol=1e-12)


class TestQuantile:
    def test_median_is_location(self):
        for params in [GKParams(0.0, 1.0, 0.0, 0.0), GKParams(-3.0, 2.0, 1.5, 0.4)]:
            assert gk_quantile(0.5, params) == pytest.approx(params.A, abs=1e-14)

    def test_gaussian_special_case(self):
        params = GKParams(0.0, 1.0, 0.0, 0.0)
        for q in [0.01, 0.25, 0.5, 0.9, 0.999]:
            assert gk_quantile(q, params) == pytest.approx(float(ndtri(q)), rel=1e-14)

    def test_dual_implementation_oracle(self):
        params = GKParams(3.0, 1.0, 2.0, 0.5)
        q = 0.975
        assert gk_quantile(q, params) == pytest.approx(
            reference_quantile(q, 3.0, 1.0, 2.0, 0.5), abs=1e-12)

    def test_dual_implementation_on_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(0, 3)
            B = rng.uniform(0.1, 4)
            g = rng.normal(0, 2)
            k = rng.uniform(-0.45, 1.0)
            params = GKParams(A, B, g, k)
            qs = rng.uniform(0.001, 0.999, size=25)
            np.testing.assert_allclose(gk_quantile(qs, params),
                                       reference_quantile(qs, A, B, g, k),
                                       atol=1e-12)

    def test_strictly_increasing(self):
        # with c = 0.8 the quantile is a proper (monotone) distribution for
        # k >= 0 at moderate skewness, and for all k > -0.5 when g = 0;
        # strongly negative k combined with skewness breaks properness, so
        # the property is asserted on the region the package actually uses
        rng = np.random.default_rng(17)
        grid = np.linspace(0.001, 0.999, 500)
        for _ in range(20):
            params = GKParams(rng.normal(0, 2), rng.uniform(0.1, 3),
                              rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1.5))
            vals = gk_quantile(grid, params)
            assert np.all(np.diff(vals) > 0)
        for _ in range(10):
            params = GKParams(rng.normal(0, 2), rng.uniform(0.1, 3),
                              0.0, rng.uniform(-0.49, 1.5))
            vals = gk_quantile(grid, params)
            assert np.all(np.diff(vals) > 0)

    def test_location_scale_identity(self):
        grid = np.linspace(0.01, 0.99, 99)
        base = GKParams(0.0, 1.0, 1.3, 0.2)
        shifted = GKParams(2.5, 1.7, 1.3, 0.2)
        np.testing.assert_allclose(gk_quantile(grid, shifted),
                                   2.5 + 1.7 * gk_quantile(grid, base), rtol=1e-13)

    def test_symmetry_when_g_zero(self):
        grid = np.linspace(0.01, 0.49, 25)
        params = GKParams(1.0, 2.0, 0.0, 0.3)
        left = gk_quantile(grid, params) - 1.0
        right = gk_quantile(1.0 - grid, params) - 1.0
        np.testing.assert_allclose(left, -right, atol=1e-12)

    def test_domain_errors(self):
        params = GKParams(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gk_quantile(0.0, params)
        with pytest.raises(ValueError):
            gk_quantile(1.0, params)


class TestSampling:
    def test_inverse_transform_matches_quantile(self):
        params = GKParams(1.0, 0.5, 0.7, 0.1)
        rng = np.random.default_rng(123)
        draws = gk_sample(1000, params, rng)
        rng2 = np.random.default_rng(123)
        u = np.clip(rng2.random(1000), 1e-12, 1 - 1e-12)
        np.testing.assert_allclose(np.sort(draws),
                                   gk_quantile(np.sort(u), params), rtol=1e-12)

    def test_gaussian_mean(self):
        params = GKParams(2.0, 1.0, 0.0, 0.0)
        rng = np.random.default_rng(99)
        draws = gk_sample(10 ** 6, params, rng)
        assert abs(draws.mean() - 2.0) < 5 * 1.0 / 1000

    def test_reproducible(self):
        params = GKParams(0.0, 1.0, 0.5, 0.2)
        a = gk_sample(50, params, np.random.default_rng(7))
        b = gk_sample(50, params, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            gk_sample(0, GKParams(0, 1, 0, 0), np.random.default_rng(0))


class TestTheoreticalLMoments:
    def test_gaussian_l1_symmetric(self):
        lm = theoretical_lmoments(GKParams(0.0, 1.0, 0.0, 0.0))
        assert lm.l1 == pytest.approx(0.0, abs=1e-9)
        assert lm.t3 == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_l2_quadrature_oracle(self):
        lm = theoretical_lmoments(GKParams(0.0, 1.0, 0.0, 0.0))
        assert lm.l2 == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-6)

    def test_gaussian_t4_known_value(self):
        # t4 of any Gaussian: 30/pi * arctan(sqrt(2)) - 9
        lm = theoretical_lmoments(GKParams(5.0, 3.0, 0.0, 0.0))
        expected = 30.0 / np.pi * np.arctan(np.sqrt(2.0)) - 9.0
        assert lm.t4 == pytest.approx(expected, abs=1e-7)

    def test_location_scale_transforms(self):
        base = theoretical_lmoments(GKParams(0.0, 1.0, 1.0, 0.3))
        moved = theoretical_lmoments(GKParams(2.0, 3.0, 1.0, 0.3))
        assert moved.l1 == pytest.approx(2.0 + 3.0 * base.l1, rel=1e-8)
        assert moved.l2 == pytest.approx(3.0 * base.l2, rel=1e-8)
        assert moved.t3 == pytest.approx(base.t3, abs=1e-8)
        assert moved.t4 == pytest.approx(base.t4, abs=1e-8)


class TestSampleLMoments:
    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_lmoments(np.array([1.0, 2.0, 3.0]))

    def test_one_two_three_four(self):
        lm = sample_lmoments(np.array([1.0, 2.0, 3.0, 4.0]))
        assert lm.l1 == pytest.approx(2.5)
        assert lm.l2 == pytest.approx(5.0 / 6.0)
        assert lm.t3 == pytest.approx(0.0, abs=1e-14)
        assert lm.t4 == pytest.approx(0.0, abs=1e-14)

    def test_constant_data_degenerate(self):
        lm = sample_lmoments(np.full(10, 3.3))
        assert lm.l1 == 3.3
        assert lm.l2 == 0.0
        with pytest.raises(ValueError):
            estimate_gk(np.full(50, 3.3))

    @staticmethod
    def _rank_formula(data):
        """The former estimator, as the oracle: weights from the 1-based
        ranks i, b0 as x.mean(), reductions by np.sum."""
        x = np.sort(np.asarray(data, dtype=float))
        n = x.size
        i = np.arange(1, n + 1, dtype=float)
        b0 = x.mean()
        b1 = np.sum((i - 1) * x) / (n * (n - 1))
        b2 = np.sum((i - 1) * (i - 2) * x) / (n * (n - 1) * (n - 2))
        b3 = np.sum((i - 1) * (i - 2) * (i - 3) * x) / (n * (n - 1) * (n - 2) * (n - 3))
        if x[0] == x[-1]:
            return np.array([x[0], 0.0, np.nan, np.nan])
        l2 = 2 * b1 - b0
        return np.array([b0, l2, (6 * b2 - 6 * b1 + b0) / l2,
                         (20 * b3 - 30 * b2 + 12 * b1 - b0) / l2])

    @pytest.mark.parametrize("n", [4, 5, 20, 200, 1000])
    def test_bit_identical_to_the_rank_formula(self, n):
        rng = np.random.default_rng(n)
        draws = gk_sample(n, GKParams(1.0, 0.25, 0.2, 0.1), rng)
        for data in (draws, draws + 1e6, rng.normal(size=n), np.full(n, 2.5)):
            got = sample_lmoments(data).as_array()
            np.testing.assert_array_equal(got.view(np.uint64),
                                          self._rank_formula(data).view(np.uint64))

    def test_converges_to_theoretical(self):
        params = GKParams(1.0, 2.0, 0.8, 0.2)
        rng = np.random.default_rng(2024)
        n = 10 ** 6
        draws = gk_sample(n, params, rng)
        lm = sample_lmoments(draws)
        truth = theoretical_lmoments(params)
        # Monte Carlo standard errors estimated by subsampling
        reps = np.array([sample_lmoments(draws[i::50]).as_array() for i in range(50)])
        mcse = reps.std(axis=0) / np.sqrt(50)
        err = np.abs(lm.as_array() - truth.as_array())
        assert np.all(err <= 3 * mcse + 1e-12)


class TestEstimation:
    def test_fixed_point_of_objective(self):
        truth = GKParams(0.0, 1.0, 0.0, 0.0)
        est = estimate_gk_from_lmoments(theoretical_lmoments(truth))
        np.testing.assert_allclose(est.as_array(), truth.as_array(), atol=1e-4)

    def test_quantile_grid_self_consistency(self):
        params = GKParams(0.0, 1.0, 0.0, 0.0)
        n = 10 ** 4
        grid = (np.arange(1, n + 1) - 0.5) / n
        data = gk_quantile(grid, params)
        est = estimate_gk(data)
        assert abs(est.A) < 0.02
        assert abs(est.B - 1.0) < 0.02
        assert abs(est.g) < 0.05
        assert abs(est.k) < 0.05

    def test_monte_carlo_recovery(self):
        # single seeded draw; the matcher reproduces the sample L-moments to
        # ~1e-9, so the error here is the sampling noise of one n=1e4 draw
        truth = GKParams(3.0, 1.0, 2.0, 0.5)
        rng = np.random.default_rng(0)
        data = gk_sample(10 ** 4, truth, rng)
        est = estimate_gk(data)
        np.testing.assert_allclose(est.as_array(), truth.as_array(), atol=0.1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_gk(np.arange(10.0))

    def test_degenerate_target(self):
        with pytest.raises(ValueError):
            estimate_gk_from_lmoments(LMoments(0.0, -1.0, 0.0, 0.0))


def _scalar_row(target):
    """The scalar estimator's link-scale answer, or None where it raises."""
    try:
        return link_parameters(estimate_gk_from_lmoments(LMoments(*target)))
    except (ValueError, ArithmeticError):
        return None


def _batch_corpus():
    """L-moment targets of a random corpus plus the edge cases."""
    rng = np.random.default_rng(41)
    targets = []

    def add(params, n):
        targets.append(sample_lmoments(gk_sample(n, params, rng)).as_array())

    for _ in range(14):
        lam = [rng.normal(1, 1), rng.normal(np.log(0.25), 1),
               rng.normal(0.2, 1.5), rng.normal(np.log(0.62), 0.7)]
        add(unlink_parameters(np.array(lam)), int(rng.integers(20, 400)))
    base = GKParams(1.0, 0.25, 0.2, 0.1)
    for n in (20, 20, 20, 5, 9, 13, 19):
        add(base, n)
    for k in (-0.45, -0.49, -0.499):
        add(GKParams(0.0, 1.0, 0.5, k), 200)
    for g in (-6.0, -4.0, 4.0, 6.0):
        add(GKParams(0.0, 1.0, g, 0.2), 200)
    # a constant sample, a non-positive second L-moment, a non-finite
    # ratio and two targets outside the family's (t3, t4) range
    targets += [sample_lmoments(np.full(30, 2.5)).as_array(),
                [0.0, -1.0, 0.0, 0.0], [0.0, 1.0, np.inf, 0.0],
                [0.0, 1.0, 0.9, 0.8], [0.0, 1.0, 0.9, 0.95]]
    return np.array(targets)


class TestBatchEstimation:
    """estimate_gk_batch against the scalar estimator, bit for bit."""

    @pytest.fixture(scope="class")
    def corpus(self):
        targets = _batch_corpus()
        return targets, [_scalar_row(t) for t in targets]

    @staticmethod
    def _assert_rows_match(got, expected):
        for row, want in zip(got, expected):
            if want is None:
                assert np.isnan(row).all()
            else:
                assert np.array_equal(row, want)

    def test_corpus_bit_identical(self, corpus):
        targets, expected = corpus
        self._assert_rows_match(estimate_gk_batch(targets), expected)
        # the corpus reaches every branch: fits, failures of each kind
        assert sum(e is None for e in expected) == 8
        assert sum(e is not None for e in expected) == 25

    def test_failed_rows_are_the_scalar_failures(self, corpus):
        targets, _ = corpus
        n = len(targets)
        failed = np.flatnonzero(np.isnan(estimate_gk_batch(targets)).any(axis=1))
        # rows 6, 13 and 22 are samples whose (t3, t4) no g-and-k reaches:
        # the former Nelder-Mead fit was 0.05 and 0.004 off in t3 on the
        # first two without raising, and raised on the third
        assert failed.tolist() == [6, 13, 22, n - 5, n - 4, n - 3, n - 2, n - 1]
        for i in failed:
            if i in (n - 5, n - 4, n - 3):
                with pytest.raises(ValueError, match="degenerate target"):
                    estimate_gk_from_lmoments(LMoments(*targets[i]))
            else:
                with pytest.raises(ArithmeticError, match="not matched"):
                    estimate_gk_from_lmoments(LMoments(*targets[i]))

    @pytest.mark.parametrize("size", [1, gk._BLOCK - 1, gk._BLOCK + 1])
    def test_batch_sizes(self, corpus, size):
        targets, expected = corpus
        # the sizes put each row in blocks of other sizes and neighbours
        for lo in range(0, len(targets), size):
            got = estimate_gk_batch(targets[lo:lo + size])
            self._assert_rows_match(got, expected[lo:lo + len(got)])

    @staticmethod
    def _per_row_link(params):
        """The former link of a batch, as the oracle: link_parameters on
        each finite row, all-NaN elsewhere."""
        out = np.full(params.shape, np.nan)
        for i in np.flatnonzero(np.isfinite(params).all(axis=1)):
            out[i] = link_parameters(GKParams(*params[i]))
        return out

    @pytest.mark.parametrize("rows", ["all", "failed", "none"])
    def test_vectorized_link_is_the_per_row_link(self, corpus, rows):
        targets, expected = corpus
        failed = [i for i, e in enumerate(expected) if e is None]
        batch = {"all": targets, "failed": targets[failed], "none": targets[:0]}[rows]
        got = estimate_gk_batch(batch)
        assert got.shape == batch.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      self._per_row_link(gk._fit_rows(batch)).view(np.uint64))

    def test_vectorized_link_on_many_fits(self, monkeypatch):
        # 2 000 fitted rows over wide ranges of B and k, with NaN rows
        # among them, stand in for the solver's output
        rng = np.random.default_rng(44)
        params = np.column_stack((rng.normal(0, 5, 2000), np.exp(rng.normal(0, 4, 2000)),
                                  rng.normal(0, 2, 2000),
                                  np.exp(rng.normal(0, 3, 2000)) - 0.5))
        params[rng.random(2000) < 0.1] = np.nan
        monkeypatch.setattr(gk, "_fit_rows", lambda tvec: params)
        np.testing.assert_array_equal(estimate_gk_batch(params).view(np.uint64),
                                      self._per_row_link(params).view(np.uint64))

    def test_matches_estimate_gk_on_samples(self):
        rng = np.random.default_rng(42)
        for n in (20, 21, 300):
            data = gk_sample(n, GKParams(1.0, 0.25, 0.2, 0.1), rng)
            got = estimate_gk_batch(estimation_target(data).as_array())
            assert np.array_equal(got[0], link_parameters(estimate_gk(data)))
        with pytest.raises(ValueError, match="at least 20"):
            estimation_target(np.arange(19.0))


def _oracle_shape_lambdas(x, z, pw, log_base):
    """The reference shape L-moments: _shape_lambdas with log(1+z^2) and
    0.4 z computed on each call instead of read from the grid."""
    kh = np.exp(x[:, 1:])
    t = np.tanh(0.5 * x[:, :1] * z)
    s = np.exp((kh - 0.5) * log_base)
    s *= z
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


def _oracle_solve_block(tvec, z, pw, log_base, steps):
    """One Levenberg-Marquardt loop for one block of valid rows, from a
    start evaluated for every row; adds each row's trial steps to
    ``steps``."""
    rows = len(tvec)
    x = np.zeros((rows, 2))
    x[:, 1] = np.log(0.5)
    lam = _oracle_shape_lambdas(x, z, pw, log_base)
    resid, jac = gk._ratio_fit(lam, tvec[:, 2:])
    norm = np.vecdot(resid, resid)
    mu = np.full(rows, gk._DAMP_START)
    live = np.flatnonzero(np.abs(resid).max(axis=1) > gk._FIT_TOL)
    for _ in range(gk._MAX_ITER):
        if not live.size:
            break
        steps[live] += 1
        jg, jk, r = jac[live, 0], jac[live, 1], resid[live]
        damp = 1.0 + mu[live]
        a11, a22 = np.vecdot(jg, jg) * damp, np.vecdot(jk, jk) * damp
        a12, b1, b2 = np.vecdot(jg, jk), np.vecdot(jg, r), np.vecdot(jk, r)
        det = a11 * a22 - a12 * a12
        step = np.stack((a12 * b2 - a22 * b1, a12 * b1 - a11 * b2), axis=1) / det[:, None]
        trial = x[live] + step
        lam_t = _oracle_shape_lambdas(trial, z, pw, log_base)
        resid_t, jac_t = gk._ratio_fit(lam_t, tvec[live, 2:])
        norm_t = np.vecdot(resid_t, resid_t)
        better = norm_t < norm[live]
        take = live[better]
        x[take], lam[take], resid[take], jac[take], norm[take] = (
            trial[better], lam_t[better], resid_t[better], jac_t[better],
            norm_t[better])
        mu[live] = np.where(better, mu[live] / gk._DAMP_STEP, mu[live] * gk._DAMP_STEP)
        live = live[np.abs(resid[live]).max(axis=1) > gk._FIT_TOL]
    scale = tvec[:, 1] / lam[:, 0, 1]
    out = np.column_stack((tvec[:, 0] - scale * lam[:, 0, 0], scale,
                           x[:, 0], np.exp(x[:, 1]) - 0.5))
    ok = ((np.abs(resid).max(axis=1) <= gk._FIT_TOL) & (scale > 0)
          & (out[:, 3] > -0.5) & np.isfinite(out).all(axis=1))
    out[~ok] = np.nan
    return out


def _oracle_fit_rows(tvec):
    """The batch fit with one loop per block of 16 valid rows, as the
    oracle: (A, B, g, k) rows and the trial steps each row took."""
    grid = gk._grid(gk._FIT_PANEL_ORDER)
    log_base = np.log1p(grid.z * grid.z)
    out = np.full(tvec.shape, np.nan)
    steps = np.zeros(len(tvec), dtype=int)
    valid = np.flatnonzero((tvec[:, 1] > 0) & np.isfinite(tvec).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, valid.size, 16):
            rows = valid[lo:lo + 16]
            block_steps = np.zeros(len(rows), dtype=int)
            out[rows] = _oracle_solve_block(tvec[rows], grid.z, grid.pw, log_base,
                                            block_steps)
            steps[rows] = block_steps
    return out, steps


@pytest.fixture(scope="module")
def bench_targets():
    """The L-moment targets a bench-size 300-pair phi-training set hands
    to the batch fit: contexts in the box around 14 days of 200 to 1 000
    draws at the bench's base parameters."""
    rng = np.random.default_rng(61)
    days = [gk_sample(int(rng.integers(200, 1001)), GKParams(1.0, 0.25, 0.2, 0.12), rng)
            for _ in range(14)]
    cube = PhiHypercube.from_observed(summarize_observations(days), [len(d) for d in days])
    seen = []

    def capture(targets):
        seen.append(np.array(targets))
        return estimate_gk_batch(targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "estimate_gk_batch", capture)
        training.generate_phi_training_set(300, cube, rng)
    return np.concatenate(seen)


class TestOneLoopFit:
    """The batch fit's single loop against the per-block loop, bit for bit."""

    @staticmethod
    def _assert_oracle(targets):
        got = estimate_gk_batch(targets)
        want = TestBatchEstimation._per_row_link(_oracle_fit_rows(targets)[0])
        assert got.shape == targets.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bench_corpus(self, bench_targets):
        assert len(bench_targets) >= 300
        self._assert_oracle(bench_targets)
        # rows that take 4 and 5 steps share the loop
        steps = _oracle_fit_rows(bench_targets)[1]
        assert steps.min() < steps.max()

    def test_rows_at_the_step_cap(self, bench_targets):
        # (t3, t4) past the family's range: each row takes every step and
        # fails, beside rows that converge early
        capped = np.array([[0.0, 1.0, 0.9, 0.8], [0.0, 1.0, 0.9, 0.95],
                           [2.0, 0.3, -0.9, 0.8], [0.0, 1.0, 0.0, -0.2]])
        targets = np.insert(bench_targets[:40], [0, 9, 17, 33], capped, axis=0)
        at_cap = [0, 10, 19, 36]
        assert (targets[at_cap] == capped).all()
        steps = _oracle_fit_rows(targets)[1]
        assert np.flatnonzero(steps == gk._MAX_ITER).tolist() == at_cap
        assert np.isnan(estimate_gk_batch(targets)[at_cap]).all()
        self._assert_oracle(targets)

    def test_degenerate_rows(self, bench_targets):
        bad = np.array([[np.nan, 1.0, 0.1, 0.2], [0.0, np.nan, 0.1, 0.2],
                        [0.0, 1.0, np.nan, 0.2], [0.0, 1.0, 0.1, np.nan],
                        [0.0, 0.0, 0.1, 0.2], [0.0, -1.0, 0.1, 0.2],
                        [0.0, 1.0, -np.inf, 0.2]])
        targets = np.insert(bench_targets[:30], np.arange(0, 28, 4), bad, axis=0)
        at_bad = np.arange(0, 28, 4) + np.arange(len(bad))
        np.testing.assert_array_equal(targets[at_bad], bad)
        assert np.isnan(estimate_gk_batch(targets)[at_bad]).all()
        self._assert_oracle(targets)
        self._assert_oracle(bad)

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 33])
    def test_batch_sizes(self, bench_targets, size):
        starts = range(0, len(bench_targets), size) if size else [0]
        for lo in starts:
            self._assert_oracle(bench_targets[lo:lo + size])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_evaluation_block_size(self, bench_targets, block, monkeypatch):
        monkeypatch.setattr(gk, "_BLOCK", block)
        self._assert_oracle(bench_targets)

    def test_work_counts_and_start_cache(self, bench_targets, monkeypatch):
        monkeypatch.setattr(gk, "_GRID_CACHE", {})
        calls = []
        shape_lambdas = gk._shape_lambdas

        def spy(x, grid):
            start = len(x) == 1 and np.array_equal(x, gk._START)
            calls.append((len(grid.z), start, len(x)))
            return shape_lambdas(x, grid)

        monkeypatch.setattr(gk, "_shape_lambdas", spy)
        estimate_gk_batch(bench_targets)
        fit_nodes = len(gk._grid(gk._FIT_PANEL_ORDER).z)
        assert [c for c in calls if c[1]] == [(fit_nodes, True, 1)]
        assert max(rows for _, _, rows in calls) <= gk._BLOCK
        # one evaluation per trial step; the per-block loop also
        # evaluated the start once for every valid row
        steps = _oracle_fit_rows(bench_targets)[1]
        assert sum(rows for _, start, rows in calls if not start) == steps.sum()

        cached = gk._grid(gk._FIT_PANEL_ORDER).start
        before = cached.copy()
        estimate_gk_batch(bench_targets)
        estimate_gk_batch(bench_targets[::-1])
        theoretical_lmoments(GKParams(0.0, 1.0, 0.5, 0.2))
        theoretical_lmoments(GKParams(0.0, 1.0, -0.5, 0.1))
        starts = [nodes for nodes, start, _ in calls if start]
        assert len(starts) == len(set(starts)) == len(gk._GRID_CACHE)
        assert gk._grid(gk._FIT_PANEL_ORDER).start is cached
        np.testing.assert_array_equal(cached.view(np.uint64), before.view(np.uint64))
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0, 0] = 1.0


def _lmoment_mismatch(target, params):
    """Largest gap between a target's L-moments and a fit's, on the
    estimator's grid; l1 and l2 are measured relative to l2."""
    grid = gk._grid(gk._FIT_PANEL_ORDER)
    lam = grid.pw @ gk._quantile_from_z(grid.z, params)
    fitted = np.array([lam[0], lam[1], lam[2] / lam[1], lam[3] / lam[1]])
    gap = np.abs(fitted - target.as_array())
    gap[:2] /= target.l2
    return gap.max()


class TestFailureRule:
    """A fit is within tolerance or it fails; it is never silently wrong."""

    @pytest.mark.parametrize("log_b", [-2.5, -3.0])
    def test_small_scale_fits_are_right_or_raise(self, log_b):
        # scales where the former absolute-tolerance Nelder-Mead let B
        # collapse: on this corpus it returned 7 (log B = -2.5) and 11
        # (log B = -3) fits whose L-moments were off by 6e-4 to 1.7
        # without raising
        rng = np.random.default_rng(2019 + int(-2 * log_b))
        fitted = 0
        for _ in range(40):
            truth = GKParams(rng.normal(1.0, 1.0), np.exp(log_b), rng.normal(0.2, 1.0),
                             np.exp(rng.normal(np.log(0.62), 0.5)) - 0.5)
            data = gk_sample(int(rng.integers(200, 1001)), truth, rng)
            try:
                est = estimate_gk(data)
            except ArithmeticError:
                continue
            fitted += 1
            assert _lmoment_mismatch(estimation_target(data), est) <= 2 * gk._FIT_TOL
        assert fitted >= 36

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        data = gk_sample(500, GKParams(1.0, 0.25, 0.4, 0.1), rng)
        base = estimate_gk(data).as_array()
        # the sample L-moments of a + b x lose about |a| / b ulps to
        # cancellation, so every shift here is at most 20 scale units
        for a, b in [(0.0, 1e-3), (-3.0, 10.0), (2e-6, 1e-6), (1.0, 0.05)]:
            got = estimate_gk(a + b * data).as_array()
            want = np.array([a + b * base[0], b * base[1], base[2], base[3]])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * abs(b))

    def test_target_outside_the_family_raises(self):
        target = LMoments(0.0, 1.0, 0.9, 0.8)
        with pytest.raises(ArithmeticError, match=r"\(t3, t4\) = \(0\.9, 0\.8\)"):
            estimate_gk_from_lmoments(target)
        got = estimate_gk_batch([[0.0, 1.0, 0.0, 0.15], target.as_array()])
        assert np.isfinite(got[0]).all() and np.isnan(got[1]).all()

    def test_summarize_observations_names_the_failed_day(self):
        rng = np.random.default_rng(8)
        days = [gk_sample(200, GKParams(1.0, 0.25, 0.2, 0.1), rng) for _ in range(4)]
        # a day of 0s with a few 1s: L-skewness 0.9, past any g-and-k
        days[2] = np.repeat([0.0, 1.0], [190, 10])
        with pytest.raises(ArithmeticError, match="day 3: L-moment matching failed"):
            summarize_observations(days)
        assert summarize_observations(days[:2]).shape == (2, 4)
