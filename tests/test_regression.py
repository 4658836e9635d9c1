"""Tests for the weighted regression families."""

import re

import numpy as np
import pytest

from lfgibbs.regression import (
    FlexibleFit,
    LinearFit,
    LogisticFit,
    fit_flexible_heteroscedastic,
    fit_weighted_linear,
    fit_weighted_logistic,
    full_interactions,
    interaction_names,
    sample_flexible,
    sample_linear_parametric,
    sample_linear_residual,
)


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-eta))


class TestWeightedLinear:
    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
        beta = np.array([0.5, -1.25, 2.0])
        fit = fit_weighted_linear(x, x @ beta, np.ones(40))
        np.testing.assert_allclose(fit.beta, beta, atol=1e-8)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-16)

    def test_two_point_line(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_weighted_linear(x, np.array([1.0, 3.0]), np.ones(2))
        np.testing.assert_allclose(fit.beta, [1.0, 2.0], atol=1e-8)

    def test_hand_solved_weighted_system(self):
        # X'WX = [[4,3],[3,3]], X'Wy = [10,9]  ->  beta = [1, 2]; the test
        # solves the jittered normal equations directly as the oracle
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        w = np.array([1.0, 3.0])
        fit = fit_weighted_linear(x, y, w)
        wn = w / w.sum()
        gram = x.T @ (x * wn[:, None]) + 1e-10 * np.eye(2)
        oracle = np.linalg.solve(gram, x.T @ (wn * y))
        np.testing.assert_allclose(fit.beta, oracle, atol=1e-12)
        np.testing.assert_allclose(fit.beta, [1.0, 2.0], atol=1e-8)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        w = rng.uniform(0.1, 2.0, size=30)
        a = fit_weighted_linear(x, y, w)
        b = fit_weighted_linear(x, y, 4.0 * w)  # power of two: exact scaling
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.sigma2 == b.sigma2

    def test_normalized_weights_and_residual_identity(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(25), rng.normal(size=25)])
        y = rng.normal(size=25)
        fit = fit_weighted_linear(x, y, rng.uniform(0.0, 1.0, size=25))
        assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fit.residuals, y - fit.fitted, atol=1e-12)
        assert fit.sigma2 == pytest.approx(
            float(np.sum(fit.weights * fit.residuals ** 2)), abs=1e-14)

    def test_rank_deficient_drops_dependent_column(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(20, 2))
        x = np.column_stack([np.ones(20), base, base[:, 0]])  # col 3 = col 1
        y = rng.normal(size=20)
        fit = fit_weighted_linear(x, y, np.ones(20))
        three = fit_weighted_linear(x[:, :3], y, np.ones(20))
        assert fit.dropped == (3,)
        np.testing.assert_array_equal(fit.beta, np.append(three.beta, 0.0))
        # the residuals are formed from x as given: a strided slice here
        assert fit.sigma2 == pytest.approx(three.sigma2, rel=1e-14)
        assert three.dropped == ()

    def test_constant_columns_dropped_but_the_intercept(self):
        # on the positive-weight rows column 2 is constant and column 4 is
        # zero; QR on the raw design would name column 0 instead
        rng = np.random.default_rng(5)
        n = 30
        t = rng.normal(size=n)
        x = np.column_stack([np.ones(n), t, np.full(n, 3.0), 0.5 * t, np.zeros(n)])
        x[:4, 2] = 7.0
        w = np.ones(n)
        w[:4] = 0.0
        y = rng.normal(size=n)
        fit = fit_weighted_linear(x, y, w)
        assert fit.dropped == (2, 3, 4)
        two = fit_weighted_linear(x[:, :2], y, w)
        np.testing.assert_array_equal(fit.beta, np.r_[two.beta, 0.0, 0.0, 0.0])
        assert fit.predict([1.0, 0.5, 3.0, 0.25, 0.0]) == two.predict([1.0, 0.5])

    def test_query_outside_the_kept_span_raises(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=25)
        x = np.column_stack([np.ones(25), t, t])
        fit = fit_weighted_linear(x, rng.normal(size=25), np.ones(25))
        assert fit.dropped == (2,)
        assert fit.outside_span([1.0, 0.3, 0.3 * (1 + 1e-12)]) == []
        assert fit.outside_span([1.0, 0.3, 0.31]) == [2]
        with pytest.raises(ArithmeticError, match=r"outside the span .* columns \[2\]"):
            fit.predict([1.0, 0.3, 0.31])

    def test_ill_conditioned_full_rank_says_so(self):
        # full rank, but the Gram eigenvalue test flags it: pivoted QR
        # drops no column, so the error gives the Gram condition number
        # and the weakest pivot instead of an empty column list
        rng = np.random.default_rng(0)
        n = 500
        t, u = rng.uniform(size=n), rng.normal(size=n)
        x = np.column_stack([np.ones(n), t, t + 1e-9 * u])
        assert np.linalg.cond(x) == pytest.approx(2e9, rel=0.1)
        with pytest.raises(ArithmeticError, match="ill-conditioned") as err:
            fit_weighted_linear(x, rng.normal(size=n), np.ones(n))
        cond = float(re.search(r"Gram condition number (\S+);", str(err.value)).group(1))
        want = np.linalg.cond(x.T @ (x / n))
        assert cond == pytest.approx(want, rel=1e-2)
        assert re.search(r"smallest pivot is column [12]$", str(err.value))
        assert "offending" not in str(err.value)

    def test_raises_where_the_gram_rank_test_fails(self):
        # the message changed, the cases did not: it raises exactly when
        # the eigenvalue rank of the weighted Gram falls short
        rng = np.random.default_rng(1)
        n = 500
        t, u = rng.uniform(size=n), rng.normal(size=n)
        for eps in 10.0 ** -np.arange(4.0, 12.0, 0.5):
            x = np.column_stack([np.ones(n), t, t + eps * u])
            gram = x.T @ (x * np.full(n, 1.0 / n)[:, None])
            short = np.linalg.matrix_rank(gram, hermitian=True) < 3
            try:
                fit_weighted_linear(x, u, np.ones(n))
                raised = False
            except ArithmeticError:
                raised = True
            assert raised == short, eps

    def test_zero_weights_rejected(self):
        x = np.ones((5, 1))
        with pytest.raises(ValueError):
            fit_weighted_linear(x, np.zeros(5), np.zeros(5))


def masked_linear_fit(x, y, weights):
    """The masked computation: zero-weight rows dropped by copies, always."""
    w = weights / weights.sum()
    active = w > 0
    xa, ya, wa = x[active], y[active], w[active]
    xw = xa * wa[:, None]
    beta = np.linalg.solve(xa.T @ xw + 1e-10 * np.eye(x.shape[1]), xw.T @ ya)
    fitted = x @ beta
    resid = y - fitted
    return beta, float(np.sum(w * resid * resid)), fitted, resid, w


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestUnmaskedLinearFit:
    """With every weight positive the fit reads x and y without a masked copy."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_all_positive_weights_match_the_masked_path(self, layout):
        rng = np.random.default_rng(30)
        for n, p in [(7, 2), (60, 4), (500, 6), (2001, 7)]:
            values = rng.normal(size=(n, 2 * p)) * rng.lognormal(size=2 * p)
            x = values[:, ::2] if layout == "strided" else np.asarray(values[:, :p], order=layout)
            y = np.asfortranarray(rng.normal(size=(n, 2)))[:, 1]  # a strided column
            w = rng.uniform(0.01, 2.0, size=n)
            fit = fit_weighted_linear(x, y, w)
            for got, want in zip((fit.beta, fit.sigma2, fit.fitted, fit.residuals, fit.weights),
                                 masked_linear_fit(x, y, w)):
                np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"n={n}")

    def test_a_zero_weight_row_is_still_dropped(self):
        rng = np.random.default_rng(31)
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = rng.normal(size=50)
        w = rng.uniform(0.5, 1.5, size=50)
        x[17], y[17], w[17] = [1.0, 1e150, -1e150], 1e150, 0.0
        fit = fit_weighted_linear(x, y, w)
        for got, want in zip((fit.beta, fit.sigma2, fit.fitted, fit.residuals, fit.weights),
                             masked_linear_fit(x, y, w)):
            np.testing.assert_array_equal(bits(got), bits(want))
        keep = np.arange(50) != 17
        clean = fit_weighted_linear(x[keep], y[keep], w[keep])
        np.testing.assert_allclose(fit.beta, clean.beta, rtol=1e-12)


class TestLinearSampling:
    @staticmethod
    def _fit(seed=5, n=200):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = x @ np.array([1.0, -0.5]) + 0.7 * rng.standard_normal(n)
        return fit_weighted_linear(x, y, rng.uniform(0.2, 1.0, size=n))

    def test_parametric_degenerate(self):
        fit = LinearFit(beta=np.array([1.0, 2.0]), sigma2=0.0,
                        fitted=np.array([1.0, 3.0]), residuals=np.zeros(2),
                        weights=np.full(2, 0.5))
        rng = np.random.default_rng(0)
        assert sample_linear_parametric(fit, [1.0, 2.0], rng) == 5.0

    def test_parametric_monte_carlo_mean(self):
        fit = self._fit()
        rng = np.random.default_rng(6)
        x_new = np.array([1.0, 0.3])
        draws = np.array([sample_linear_parametric(fit, x_new, rng)
                          for _ in range(10 ** 5)])
        tol = 4.0 * np.sqrt(fit.sigma2) / np.sqrt(10 ** 5)
        assert abs(draws.mean() - fit.predict(x_new)) < tol

    def test_parametric_reproducible(self):
        fit = self._fit()
        a = sample_linear_parametric(fit, [1.0, 0.3], np.random.default_rng(7))
        b = sample_linear_parametric(fit, [1.0, 0.3], np.random.default_rng(7))
        assert a == b

    def test_residual_perfect_fit(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_weighted_linear(x, np.array([1.0, 3.0]), np.ones(2))
        rng = np.random.default_rng(8)
        x_new = [1.0, 5.0]
        assert sample_linear_residual(fit, x_new, rng) == pytest.approx(
            fit.predict(x_new), abs=1e-8)

    def test_residual_single_positive_weight(self):
        fit = self._fit()
        w = np.zeros_like(fit.weights)
        w[3] = 1.0
        point = LinearFit(beta=fit.beta, sigma2=fit.sigma2, fitted=fit.fitted,
                          residuals=fit.residuals, weights=w)
        rng = np.random.default_rng(9)
        for _ in range(5):
            got = sample_linear_residual(point, [1.0, 0.0], rng)
            assert got == point.predict([1.0, 0.0]) + point.residuals[3]

    def test_residual_law_matches_weighted_cdf(self):
        fit = self._fit(seed=10, n=40)
        rng = np.random.default_rng(11)
        x_new = np.array([1.0, 0.0])
        mu = fit.predict(x_new)
        draws = np.sort([sample_linear_residual(fit, x_new, rng)
                         for _ in range(10 ** 5)])
        order = np.argsort(fit.residuals)
        # evaluate both CDFs at mu + r computed exactly as the sampler does
        grid = np.array([mu + float(r) for r in fit.residuals[order]])
        target = np.cumsum(fit.weights[order])
        empirical = np.searchsorted(draws, grid, side="right") / draws.size
        assert np.max(np.abs(empirical - target)) < 0.01

    def test_residual_zero_weights_error(self):
        fit = self._fit()
        broken = LinearFit(beta=fit.beta, sigma2=fit.sigma2, fitted=fit.fitted,
                           residuals=fit.residuals,
                           weights=np.zeros_like(fit.weights))
        with pytest.raises(ValueError):
            sample_linear_residual(broken, [1.0, 0.0], np.random.default_rng(0))

    def test_parametric_and_residual_agree_in_mean(self):
        fit = self._fit(seed=12)
        x_new = np.array([1.0, -0.4])
        rng = np.random.default_rng(13)
        par = np.array([sample_linear_parametric(fit, x_new, rng)
                        for _ in range(2 * 10 ** 4)])
        res = np.array([sample_linear_residual(fit, x_new, rng)
                        for _ in range(2 * 10 ** 4)])
        se = np.sqrt(fit.sigma2 / 2e4)
        assert abs(par.mean() - res.mean()) < 8 * se


class TestWeightedLogistic:
    def test_zero_coefficients_give_half(self):
        fit = LogisticFit(beta=np.zeros(3), converged=True, n_iter=0)
        for x in ([1.0, 0.0, 0.0], [1.0, 5.0, -2.0]):
            assert fit.predict_prob(x) == pytest.approx(0.5, abs=1e-15)

    def test_balanced_intercept_only(self):
        y = np.array([0.0, 1.0] * 50)
        fit = fit_weighted_logistic(np.ones((100, 1)), y, np.ones(100))
        assert abs(fit.beta[0]) < 1e-6
        assert fit.converged

    def test_monte_carlo_recovery_within_3se(self):
        rng = np.random.default_rng(14)
        n = 10 ** 5
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
        beta = np.array([0.3, -0.7, 1.1])
        y = (rng.random(n) < _sigmoid(x @ beta)).astype(float)
        fit = fit_weighted_logistic(x, y, np.ones(n))
        assert fit.converged
        p = _sigmoid(x @ fit.beta)
        info = x.T @ (x * (p * (1 - p))[:, None])
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(fit.beta - beta) < 3 * se)

    def test_probabilities_monotone_in_coefficient_direction(self):
        rng = np.random.default_rng(15)
        n = 2000
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.random(n) < _sigmoid(x @ np.array([0.2, 1.5]))).astype(float)
        fit = fit_weighted_logistic(x, y, np.ones(n))
        assert fit.beta[1] > 0
        grid = np.linspace(-3, 3, 25)
        probs = [fit.predict_prob([1.0, t]) for t in grid]
        assert np.all(np.diff(probs) > 0)
        assert all(0.0 < p < 1.0 for p in probs)

    def test_separation_hits_cap(self):
        x = np.column_stack([np.ones(40), np.r_[-np.ones(20), np.ones(20)]])
        y = np.r_[np.zeros(20), np.ones(20)]
        fit = fit_weighted_logistic(x, y, np.ones(40))
        assert not fit.converged
        assert np.max(np.abs(fit.beta)) == pytest.approx(30.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_weighted_logistic(np.ones((10, 1)), np.ones(10), np.ones(10))

    def test_zero_weight_rows_cannot_carry_a_class(self):
        # the only 0-responses have zero weight, so this is single-class
        x = np.ones((10, 1))
        y = np.r_[np.zeros(2), np.ones(8)]
        w = np.r_[np.zeros(2), np.ones(8)]
        with pytest.raises(ValueError):
            fit_weighted_logistic(x, y, w)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            fit_weighted_logistic(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 1.0]),
                                  np.ones(4))


class TestFullInteractions:
    def test_count_for_five_variables_order_three(self):
        row = full_interactions(np.arange(5.0), max_order=3)
        assert row.size == 1 + 5 + 10 + 10

    def test_values_on_known_vector(self):
        row = full_interactions([2.0, 3.0], max_order=2)
        np.testing.assert_array_equal(row, [1.0, 2.0, 3.0, 6.0])

    def test_names_align_with_terms(self):
        names = interaction_names(["a", "b", "c"], max_order=2)
        assert names == ["1", "a", "b", "c", "a*b", "a*c", "b*c"]
        assert len(names) == full_interactions(np.ones(3), max_order=2).size

    def test_mains_only(self):
        row = full_interactions([4.0, 5.0], max_order=1)
        np.testing.assert_array_equal(row, [1.0, 4.0, 5.0])


class TestFlexibleHeteroscedastic:
    def test_homoscedastic_linear_oracle(self):
        rng = np.random.default_rng(16)
        n = 5000
        x = rng.uniform(-2.0, 2.0, size=(n, 1))
        y = 1.0 + 2.0 * x[:, 0] + 0.3 * rng.standard_normal(n)
        fit = fit_flexible_heteroscedastic(x, y, np.ones(n),
                                           rng=np.random.default_rng(17))
        grid = np.linspace(-1.8, 1.8, 200)[:, None]
        pred = fit.mean_net.predict(grid)
        rmse = np.sqrt(np.mean((pred - (1.0 + 2.0 * grid[:, 0])) ** 2))
        assert rmse < 0.05
        interior = np.linspace(-1.0, 1.0, 50)[:, None]
        scales = np.array([fit.scale(r) for r in interior])
        assert np.all(np.abs(scales - 0.3) < 0.3 * 0.3)
        assert abs(fit.zeta_mean) < 0.1

    def test_noiseless_quadratic(self):
        grid = np.linspace(-1.0, 1.0, 400)[:, None]
        y = grid[:, 0] ** 2
        fit = fit_flexible_heteroscedastic(grid, y, np.ones(400),
                                           rng=np.random.default_rng(18))
        pred = fit.mean_net.predict(grid)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    def test_constant_response(self):
        x = np.linspace(0.0, 1.0, 100)[:, None]
        fit = fit_flexible_heteroscedastic(x, np.full(100, 2.5), np.ones(100),
                                           rng=np.random.default_rng(19))
        assert fit.mean(np.array([0.5])) == pytest.approx(2.5, abs=0.01)
        assert fit.scale(np.array([0.5])) == pytest.approx(1e-4, abs=2e-4)

    def test_near_linear_reduction(self):
        rng = np.random.default_rng(20)
        n = 2000
        x = rng.uniform(-1.5, 1.5, size=(n, 1))
        y = 0.5 - 1.2 * x[:, 0] + 0.4 * rng.standard_normal(n)
        fit = fit_flexible_heteroscedastic(x, y, np.ones(n),
                                           rng=np.random.default_rng(21))
        design = np.column_stack([np.ones(n), x[:, 0]])
        lin = fit_weighted_linear(design, y, np.ones(n))
        pred = fit.mean_net.predict(x)
        rmse = np.sqrt(np.mean((pred - design @ lin.beta) ** 2))
        assert rmse < 0.1 * y.std()

    def test_too_few_rows(self):
        x = np.ones((30, 1))
        with pytest.raises(ValueError):
            fit_flexible_heteroscedastic(x, np.ones(30), np.ones(30))

    def test_positive_response_link(self):
        rng = np.random.default_rng(22)
        n = 1000
        x = rng.uniform(0.0, 2.0, size=(n, 1))
        y = np.exp(0.5 + 0.8 * x[:, 0]) * rng.lognormal(0.0, 0.1, size=n)
        fit = fit_flexible_heteroscedastic(x, y, np.ones(n), positive_response=True,
                                           rng=np.random.default_rng(23))
        pred = fit.mean_net.predict(np.array([[1.0]]))
        assert pred[0] > 0
        assert abs(np.log(pred[0]) - (0.5 + 0.8 + 0.005)) < 0.15


class _StubNet:
    """Predicts a fixed affine function; stands in for a trained net."""

    def __init__(self, intercept, slope):
        self.intercept = intercept
        self.slope = slope

    def predict(self, x):
        x = np.atleast_2d(x)
        return self.intercept + self.slope * x[:, 0]


class TestSampleFlexible:
    def test_reduction_to_residual_resampling(self):
        # constant scale: flexible sampling must coincide pathwise with
        # weighted residual resampling around the same mean
        rng = np.random.default_rng(24)
        zeta = rng.standard_normal(20)
        weights = rng.uniform(0.1, 1.0, size=20)
        weights /= weights.sum()
        scale = 0.6
        flex = FlexibleFit(mean_net=_StubNet(1.0, 2.0),
                           var_net=_StubNet(scale ** 2, 0.0),
                           zeta=zeta, weights=weights, zeta_mean=0.0)
        lin = LinearFit(beta=np.array([1.0, 2.0]), sigma2=scale ** 2,
                        fitted=np.zeros(20), residuals=scale * zeta,
                        weights=weights)
        x_new = np.array([1.0, 0.7])  # -> mean 1 + 2*0.7 for the linear fit
        a = [sample_flexible(flex, np.array([0.7]), np.random.default_rng(s))
             for s in range(200)]
        b = [sample_linear_residual(lin, x_new, np.random.default_rng(s))
             for s in range(200)]
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_residuals_return_mean(self):
        flex = FlexibleFit(mean_net=_StubNet(3.0, 0.0), var_net=_StubNet(4.0, 0.0),
                           zeta=np.zeros(5), weights=np.full(5, 0.2),
                           zeta_mean=0.0)
        got = sample_flexible(flex, np.array([0.0]), np.random.default_rng(25))
        assert got == 3.0

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(26)
        zeta = rng.standard_normal(50)
        zeta -= zeta.mean()
        flex = FlexibleFit(mean_net=_StubNet(2.0, 0.0), var_net=_StubNet(1.0, 0.0),
                           zeta=zeta, weights=np.full(50, 0.02), zeta_mean=0.0)
        draws = np.array([sample_flexible(flex, np.array([0.0]), rng)
                          for _ in range(10 ** 5)])
        # weights are uniform and zeta is centered, so the draw mean is 2
        assert abs(draws.mean() - 2.0) < 4.0 / np.sqrt(10 ** 5)
