"""Tests for reference tables, kernel weighting and adjustment."""

import numpy as np
import pytest

from lfgibbs.abc import (
    AbcOutput,
    ReferenceTable,
    SimulatorModel,
    abc_importance,
    regression_adjust,
    simulate_reference_table,
)
from lfgibbs.kernels import DistanceScaling, KernelSpec, knn_bandwidth


def identity_model():
    return SimulatorModel(
        name="identity",
        dim_theta=1,
        dim_summary=1,
        prior_sample=lambda rng: rng.normal(size=1),
        prior_logpdf=lambda th: float(-0.5 * th[0] ** 2 - 0.5 * np.log(2 * np.pi)),
        simulate_data=lambda th, rng: th,
        summary=lambda data: np.asarray(data, dtype=float),
    )


def gaussian_mean_model(n_obs=10):
    """Scalar theta ~ N(0,1), data are n_obs draws N(theta, 1), summary = mean."""
    return SimulatorModel(
        name=f"gaussian-mean-{n_obs}",
        dim_theta=1,
        dim_summary=1,
        prior_sample=lambda rng: rng.normal(size=1),
        prior_logpdf=lambda th: float(-0.5 * th[0] ** 2 - 0.5 * np.log(2 * np.pi)),
        simulate_data=lambda th, rng: th[0] + rng.standard_normal(n_obs),
        summary=lambda data: np.array([np.mean(data)]),
    )


class TestReferenceTable:
    def test_identity_simulator(self):
        table = simulate_reference_table(identity_model(), 3, seed=42)
        assert len(table) == 3
        np.testing.assert_array_equal(table.summaries, table.theta)
        np.testing.assert_array_equal(table.weights, np.ones(3))

    def test_fixed_seed_reproducible(self):
        a = simulate_reference_table(identity_model(), 20, seed=7)
        b = simulate_reference_table(identity_model(), 20, seed=7)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.summaries, b.summaries)

    def test_rows_stable_under_table_growth(self):
        # per-row sub-seeds: the first rows of a longer table are unchanged
        small = simulate_reference_table(identity_model(), 5, seed=7)
        large = simulate_reference_table(identity_model(), 10, seed=7)
        np.testing.assert_array_equal(small.theta, large.theta[:5])

    def test_failed_draws_retry(self):
        model = identity_model()

        def flaky(th, rng):
            if rng.random() < 0.5:
                raise ArithmeticError("simulated failure")
            return th

        model.simulate_data = flaky
        table = simulate_reference_table(model, 50, seed=3)
        assert len(table) == 50
        assert table.retries > 0
        again = simulate_reference_table(model, 50, seed=3)
        np.testing.assert_array_equal(table.theta, again.theta)

    def test_always_failing_aborts(self):
        model = identity_model()

        def broken(th, rng):
            raise ArithmeticError("always down")

        model.simulate_data = broken
        with pytest.raises(ArithmeticError, match="11 times"):
            simulate_reference_table(model, 2, seed=0)

    def test_prior_monte_carlo_mean(self):
        table = simulate_reference_table(identity_model(), 10 ** 4, seed=11)
        assert abs(table.theta[:, 0].mean()) < 4.0 / np.sqrt(10 ** 4)

    def test_npz_roundtrip_checks_fingerprint(self, tmp_path):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 10, seed=9)
        path = str(tmp_path / "table.npz")
        table.to_npz(path)
        back = ReferenceTable.from_npz(path, expected_fingerprint=model.fingerprint())
        np.testing.assert_array_equal(back.theta, table.theta)
        assert back.seed == 9
        with pytest.raises(ValueError, match="different model"):
            ReferenceTable.from_npz(path,
                                    expected_fingerprint=identity_model().fingerprint())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_weights_must_be_finite_and_non_negative(self, bad, tmp_path):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            ReferenceTable(np.zeros((3, 1)), np.zeros((3, 1)), [1.0, bad, 1.0])
        # a file is checked as it is read
        table = simulate_reference_table(identity_model(), 3, seed=9)
        table.weights[1] = bad
        path = str(tmp_path / "table.npz")
        table.to_npz(path)
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            ReferenceTable.from_npz(path)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            simulate_reference_table(identity_model(), 0, seed=1)


class TestAbcImportance:
    def test_infinite_bandwidth_prior_proposal(self):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 100, seed=13)
        out = abc_importance(model, table, np.array([0.0]),
                             KernelSpec("uniform", np.inf))
        np.testing.assert_allclose(out.weights, np.full(100, 0.01), atol=1e-15)
        assert out.ess == pytest.approx(100.0)

    def test_conjugate_posterior_mean(self):
        model = gaussian_mean_model(n_obs=10)
        table = simulate_reference_table(model, 10 ** 5, seed=19)
        s_obs = np.array([0.7])
        scaling = DistanceScaling.identity(1)
        dist = np.abs(table.summaries[:, 0] - 0.7)
        h = knn_bandwidth(dist, 2000)
        out = abc_importance(model, table, s_obs, KernelSpec("uniform", h), scaling)
        post_mean = 10 * 0.7 / 11.0  # N(0,1) prior, mean of 10 unit-noise obs
        got = float(out.weights @ table.theta[:, 0])
        assert abs(got - post_mean) < 0.05
        assert 1.0 <= out.ess <= len(table)

    def test_all_zero_weights_error(self):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 50, seed=23)
        with pytest.raises(ArithmeticError, match="bandwidth"):
            abc_importance(model, table, np.array([1e6]),
                           KernelSpec("uniform", 1e-6), DistanceScaling.identity(1))

    def test_bad_observed_summary_rejected(self):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 50, seed=23)
        for s_obs in ([np.nan], [np.inf], [0.1, 0.2]):
            with pytest.raises(ValueError, match="s_obs"):
                abc_importance(model, table, np.array(s_obs), KernelSpec())

    @staticmethod
    def _nan_table():
        summaries = np.array([[0.0], [0.1], [np.nan], [0.2], [5.0], [0.3]])
        return ReferenceTable(np.arange(6.0)[:, None], summaries, np.ones(6))

    def test_a_nan_summary_gets_weight_zero(self):
        # Epanechnikov weighs a NaN distance 1 - NaN^2 over the whole table
        out = abc_importance(None, self._nan_table(), np.zeros(1),
                             KernelSpec("epanechnikov", 1.0), DistanceScaling.identity(1))
        np.testing.assert_allclose(out.weights, [0.2591, 0.2565, 0.0, 0.2487, 0.0, 0.2358],
                                   atol=5e-5)
        assert out.weights[2] == 0.0
        assert np.isfinite(out.ess)

    def test_default_scaling_skips_a_nan_row(self):
        # the scale comes from the five finite rows, and the NaN row gets
        # weight 0 as under an explicit scaling
        table = self._nan_table()
        out = abc_importance(None, table, np.zeros(1), KernelSpec("epanechnikov", 1.0))
        finite = np.delete(np.arange(6), 2)
        scaling = DistanceScaling.from_samples(table.summaries[finite])
        expected = abc_importance(None, table, np.zeros(1),
                                  KernelSpec("epanechnikov", 1.0), scaling)
        np.testing.assert_array_equal(out.weights, expected.weights)
        assert out.weights[2] == 0.0
        assert np.count_nonzero(out.weights) == 4

    def test_default_scaling_needs_a_finite_row(self):
        table = ReferenceTable(np.zeros((3, 1)), [[np.nan, 0.0], [1.0, np.inf], [np.nan] * 2],
                               np.ones(3))
        with pytest.raises(ValueError, match="no row of the reference table"):
            abc_importance(None, table, np.zeros(2), KernelSpec("epanechnikov", 1.0))

    @pytest.mark.parametrize("kind", ["uniform", "epanechnikov"])
    def test_a_nan_summary_keeps_its_weight_at_an_infinite_bandwidth(self, kind):
        out = abc_importance(None, self._nan_table(), np.zeros(1), KernelSpec(kind),
                             DistanceScaling.identity(1))
        np.testing.assert_array_equal(out.weights, np.full(6, 1.0 / 6.0))

    def test_discrepancy_shrinks_with_bandwidth(self):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 5000, seed=29)
        s_obs = np.array([0.3])
        scaling = DistanceScaling.identity(1)
        dist = np.abs(table.summaries[:, 0] - s_obs[0])
        means = []
        for h in [np.inf, 2.0, 1.0, 0.5, 0.25, 0.1]:
            out = abc_importance(model, table, s_obs,
                                 KernelSpec("uniform", h), scaling)
            means.append(float(out.weights @ dist))
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_infinite_bandwidth_recovers_prior_moments(self):
        model = gaussian_mean_model()
        table = simulate_reference_table(model, 10 ** 4, seed=31)
        out = abc_importance(model, table, np.array([0.0]),
                             KernelSpec("uniform", np.inf))
        mean = float(out.weights @ table.theta[:, 0])
        var = float(out.weights @ (table.theta[:, 0] - mean) ** 2)
        assert abs(mean) < 4.0 / np.sqrt(10 ** 4)
        assert abs(var - 1.0) < 0.06


class TestRegressionAdjust:
    @staticmethod
    def _output(theta, summaries, weights=None):
        n = theta.shape[0]
        w = np.full(n, 1.0 / n) if weights is None else weights
        table = ReferenceTable(theta, summaries, w)
        return AbcOutput(samples=table, ess=float(n), entropy=0.0)

    def test_zero_slope_leaves_samples_unchanged(self):
        # symmetric layout: the weighted covariance cancels exactly
        theta = np.array([[2.0], [2.0], [5.0], [5.0]])
        summaries = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        out = self._output(theta, summaries)
        adj = regression_adjust(out, np.array([0.5]))
        np.testing.assert_array_equal(adj.samples.theta, theta)

    def test_no_discrepancy_leaves_samples_unchanged(self):
        theta = np.array([[1.0], [2.0], [3.0]])
        summaries = np.full((3, 1), 0.4)
        out = self._output(theta, summaries)
        adj = regression_adjust(out, np.array([0.4]))
        np.testing.assert_array_equal(adj.samples.theta, theta)
        np.testing.assert_array_equal(adj.weights, out.weights)

    def test_conjugate_variance_improvement(self):
        # adjusted posterior variance beats unadjusted in >= 19/20 replicates
        model = gaussian_mean_model(n_obs=10)
        post_var = 1.0 / 11.0
        wins = 0
        for seed in range(20):
            table = simulate_reference_table(model, 2 * 10 ** 4, seed=100 + seed)
            s_obs = np.array([0.7])
            # wide window: the raw variance is visibly inflated there, which
            # is exactly the regime the linear adjustment corrects
            dist = np.abs(table.summaries[:, 0] - s_obs[0])
            h = knn_bandwidth(dist, 5000)
            out = abc_importance(model, table, s_obs, KernelSpec("uniform", h),
                                 DistanceScaling.identity(1))
            adj = regression_adjust(out, s_obs)

            def wvar(tab, w):
                m = float(w @ tab.theta[:, 0])
                return float(w @ (tab.theta[:, 0] - m) ** 2)

            raw_err = abs(wvar(out.samples, out.weights) - post_var)
            adj_err = abs(wvar(adj.samples, adj.weights) - post_var)
            wins += adj_err < raw_err
        assert wins >= 19

    def test_independent_summaries_keep_weighted_mean(self):
        rng = np.random.default_rng(37)
        n = 5000
        theta = rng.normal(size=(n, 1))
        summaries = rng.normal(size=(n, 1))  # independent of theta
        w = np.full(n, 1.0 / n)
        out = self._output(theta, summaries, w)
        adj = regression_adjust(out, np.array([0.2]))
        before = float(w @ theta[:, 0])
        after = float(w @ adj.samples.theta[:, 0])
        assert abs(after - before) < 0.02

    def test_duplicated_summary_gets_slope_zero(self):
        rng = np.random.default_rng(41)
        base = rng.normal(size=(30, 1))
        summaries = np.column_stack([base, base])  # duplicated summary column
        theta = rng.normal(size=(30, 2))
        adj = regression_adjust(self._output(theta, summaries), np.array([0.3, 0.3]))
        single = regression_adjust(self._output(theta, base), np.array([0.3]))
        np.testing.assert_array_equal(adj.samples.theta, single.samples.theta)
        assert not np.array_equal(adj.samples.theta, theta)
        assert adj.dropped == (1,) and single.dropped == ()

    def test_observed_summary_outside_the_span_raises(self):
        # summary 1 copies summary 0, so (0.3, 5.0) has no unique
        # adjustment; it used to be read as (0.3, 0.3)
        rng = np.random.default_rng(41)
        base = rng.normal(size=(30, 1))
        out = self._output(rng.normal(size=(30, 2)), np.column_stack([base, base]))
        with pytest.raises(ArithmeticError, match=r"outside the span .* summaries \[1\]"):
            regression_adjust(out, np.array([0.3, 5.0]))

    def test_linear_combination_of_summaries_gets_slope_zero(self):
        # the hierarchy's mean of the group means, here with an offset
        rng = np.random.default_rng(42)
        groups = rng.normal(size=(40, 3))
        summaries = np.column_stack([groups, groups.mean(axis=1) + 2.0])
        theta = groups @ np.array([[1.0], [-0.5], [0.25]]) + 0.1 * rng.normal(size=(40, 1))
        s_obs = np.array([0.2, -0.1, 0.4, 0.5 / 3.0 + 2.0])
        adj = regression_adjust(self._output(theta, summaries), s_obs)
        single = regression_adjust(self._output(theta, groups), s_obs[:3])
        np.testing.assert_allclose(adj.samples.theta, single.samples.theta,
                                   rtol=0, atol=1e-12)

    def test_ill_conditioned_summaries_error(self):
        # full rank, but the Gram matrix is numerically singular
        rng = np.random.default_rng(41)
        base = rng.normal(size=(30, 1))
        summaries = np.column_stack([base, base + 1e-9 * rng.normal(size=(30, 1))])
        out = self._output(rng.normal(size=(30, 1)), summaries)
        with pytest.raises(ArithmeticError, match="ill-conditioned"):
            regression_adjust(out, np.array([0.0, 0.0]))

    @pytest.mark.parametrize("s_obs", [[0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, 0.5, 0.5]])
    def test_bad_observed_summary_rejected(self, s_obs):
        rng = np.random.default_rng(43)
        out = self._output(rng.normal(size=(30, 1)), rng.normal(size=(30, 2)))
        with pytest.raises(ValueError, match="s_obs"):
            regression_adjust(out, np.array(s_obs))
