"""Oracle tests for the sign-flip mixture model.

The closed-form conditionals are checked against brute-force evaluations
of the joint log density (quadratic fits for the location conditionals,
log density ratios for the sign conditionals), so no expected value below
is copied out of the implementation.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from lfgibbs.abc import ReferenceTable, simulate_reference_table
from lfgibbs.gibbs import ConditionalSpec, GibbsConfig, run_exact_gibbs
from lfgibbs.models.mixture import (
    MIXTURE_STATE_NAMES,
    MixtureSpec,
    mixture_analytic_theta1_coefficients,
    mixture_conditional_b1,
    mixture_conditional_b2,
    mixture_conditional_theta1,
    mixture_conditional_theta2,
    mixture_engine_specs,
    mixture_exact_specs,
    mixture_feature_names,
    mixture_initial_state,
    mixture_joint_logpdf,
    mixture_model,
    mixture_simulate,
    simulate_given_signs,
    truncated_normal_draw,
)
from lfgibbs.regression import fit_weighted_linear, fit_weighted_logistic, full_interactions

SPEC = MixtureSpec()


def quadratic_conditional(logpdf, lo=-20.0, hi=40.0):
    """Mean/scale of exp(quadratic) from three point evaluations."""
    f_m, f_0, f_p = logpdf(-1.0), logpdf(0.0), logpdf(1.0)
    a = 0.5 * (f_p + f_m - 2.0 * f_0)
    b = 0.5 * (f_p - f_m)
    assert a < 0
    return -b / (2.0 * a), np.sqrt(-1.0 / (2.0 * a))


class TestSpec:
    def test_defaults(self):
        assert SPEC.omega == 0.3 and SPEC.rho == 0.7
        assert (SPEC.lower, SPEC.upper) == (-20.0, 40.0)
        assert SPEC.s_obs == (2.5, 2.5)
        np.testing.assert_allclose(SPEC.sigma, [[1.0, 0.7], [0.7, 1.0]])

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            MixtureSpec(rho=1.0)
        with pytest.raises(ValueError):
            MixtureSpec(rho=-1.0)
        MixtureSpec(rho=-0.99)  # inside the positive definite range

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            MixtureSpec(omega=1.5)


class TestSimulate:
    def test_omega_one_never_flips(self):
        spec = MixtureSpec(omega=1.0)
        rng = np.random.default_rng(1)
        theta = np.array([30.0, -15.0])
        draws = np.array([mixture_simulate(theta, spec, rng) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), theta, atol=0.1)

    def test_omega_zero_always_flips(self):
        spec = MixtureSpec(omega=0.0)
        rng = np.random.default_rng(2)
        theta = np.array([30.0, -15.0])
        draws = np.array([mixture_simulate(theta, spec, rng) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), -theta, atol=0.1)

    def test_sign_frequency(self):
        # with theta_1 = 30 the sign of s_1 identifies b_1 almost surely,
        # so the positive fraction estimates P(b_1 = 0) = omega
        rng = np.random.default_rng(3)
        theta = np.array([30.0, 30.0])
        n = 100_000
        positive = sum(mixture_simulate(theta, SPEC, rng)[0] > 0 for _ in range(n))
        assert abs(positive / n - 0.3) < 0.006

    def test_noise_correlation(self):
        spec = MixtureSpec(omega=1.0)
        rng = np.random.default_rng(4)
        draws = np.array([mixture_simulate(np.zeros(2), spec, rng)
                          for _ in range(20_000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr - 0.7) < 0.03
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)


class TestConditionalTheta:
    def test_substitution_no_flip(self):
        mean, scale, lo, hi = mixture_conditional_theta1(
            2.5, (0.0, 0.0), (2.5, 2.5), SPEC)
        assert abs(mean - 2.5) < 1e-12
        assert abs(scale - np.sqrt(1.0 - 0.49)) < 1e-12
        assert (lo, hi) == (-20.0, 40.0)

    def test_substitution_single_flip(self):
        # term by term: 2.5 - 1.75 + 1.75 - 5 + 3.5 - 3.5 = -2.5, confirmed
        # by the quadratic oracle below
        mean, _, _, _ = mixture_conditional_theta1(
            2.5, (1.0, 0.0), (2.5, 2.5), SPEC)
        assert abs(mean - (-2.5)) < 1e-12

    def test_rho_zero_decouples(self):
        spec = MixtureSpec(rho=0.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s1 = rng.normal()
            b1 = float(rng.integers(2))
            mean, _, _, _ = mixture_conditional_theta1(
                rng.normal(scale=5), (b1, float(rng.integers(2))),
                (s1, rng.normal()), spec)
            assert abs(mean - s1 * (1.0 - 2.0 * b1)) < 1e-12

    def test_sign_factored_form(self):
        # the expanded mean collapses to c_1 (s_1 - rho s_2 + rho c_2 theta_2)
        # with c_i = 1 - 2 b_i
        rng = np.random.default_rng(6)
        for _ in range(300):
            theta2 = rng.uniform(-20, 40)
            b = (float(rng.integers(2)), float(rng.integers(2)))
            s = (rng.normal(scale=3), rng.normal(scale=3))
            c1, c2 = 1.0 - 2.0 * b[0], 1.0 - 2.0 * b[1]
            expected = c1 * (s[0] - SPEC.rho * s[1] + SPEC.rho * c2 * theta2)
            mean, _, _, _ = mixture_conditional_theta1(theta2, b, s, SPEC)
            assert abs(mean - expected) < 1e-12

    def test_quadratic_oracle_theta1(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = MixtureSpec(rho=rng.uniform(-0.9, 0.9))
            theta2 = rng.uniform(-5, 5)
            b = np.array([float(rng.integers(2)), float(rng.integers(2))])
            s = rng.normal(scale=3, size=2)

            def logpdf(t1):
                return mixture_joint_logpdf(s, np.array([t1, theta2]), b, spec)

            oracle_mean, oracle_scale = quadratic_conditional(logpdf)
            mean, scale, _, _ = mixture_conditional_theta1(theta2, tuple(b), tuple(s), spec)
            assert abs(mean - oracle_mean) < 1e-8 * max(1.0, abs(oracle_mean))
            assert abs(scale - oracle_scale) < 1e-8

    def test_quadratic_oracle_theta2(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta1 = rng.uniform(-5, 5)
            b = np.array([float(rng.integers(2)), float(rng.integers(2))])
            s = rng.normal(scale=3, size=2)

            def logpdf(t2):
                return mixture_joint_logpdf(s, np.array([theta1, t2]), b, SPEC)

            oracle_mean, oracle_scale = quadratic_conditional(logpdf)
            mean, scale, _, _ = mixture_conditional_theta2(theta1, tuple(b), tuple(s), SPEC)
            assert abs(mean - oracle_mean) < 1e-8 * max(1.0, abs(oracle_mean))
            assert abs(scale - oracle_scale) < 1e-8


class TestConditionalSigns:
    def test_origin_gives_prior_weight(self):
        p = mixture_conditional_b1((0.0, 3.7), 1.0, (2.5, 2.5), SPEC)
        assert abs(p - 0.7) < 1e-12

    def test_large_theta_forces_sign(self):
        p = mixture_conditional_b1((1000.0, 0.0), 0.0, (2.5, 2.5), SPEC)
        assert p < 1e-8

    def test_density_ratio_full_numeric(self):
        theta = np.array([2.5, 2.5])
        s = np.array([2.5, 2.5])
        l0 = mixture_joint_logpdf(s, theta, np.array([0.0, 0.0]), SPEC)
        l1 = mixture_joint_logpdf(s, theta, np.array([1.0, 0.0]), SPEC)
        oracle = 1.0 / (1.0 + np.exp(l0 - l1))
        p = mixture_conditional_b1(tuple(theta), 0.0, tuple(s), SPEC)
        assert abs(p - oracle) < 1e-10 * max(p, 1e-300)

    def test_density_ratio_random_sweep(self):
        # the returned probability must equal the logistic of the
        # brute-force log-density difference; compared on the probability
        # scale because the odds lose digits to cancellation once the
        # probability saturates
        rng = np.random.default_rng(9)
        for _ in range(1000):
            spec = MixtureSpec(omega=rng.uniform(0.05, 0.95),
                               rho=rng.uniform(-0.9, 0.9))
            theta = rng.uniform(-3, 3, size=2)
            s = rng.normal(scale=3, size=2)
            b_other = float(rng.integers(2))

            l0 = mixture_joint_logpdf(s, theta, np.array([0.0, b_other]), spec)
            l1 = mixture_joint_logpdf(s, theta, np.array([1.0, b_other]), spec)
            p = mixture_conditional_b1(tuple(theta), b_other, tuple(s), spec)
            assert abs(p - expit(l1 - l0)) < 1e-12

            l0 = mixture_joint_logpdf(s, theta, np.array([b_other, 0.0]), spec)
            l1 = mixture_joint_logpdf(s, theta, np.array([b_other, 1.0]), spec)
            p = mixture_conditional_b2(tuple(theta), b_other, tuple(s), spec)
            assert abs(p - expit(l1 - l0)) < 1e-12

    def test_degenerate_weight_rejected(self):
        for omega in (0.0, 1.0):
            spec = MixtureSpec(omega=omega)
            with pytest.raises(ValueError):
                mixture_conditional_b1((1.0, 1.0), 0.0, (2.5, 2.5), spec)


class TestTruncatedDraw:
    def test_respects_bounds(self):
        rng = np.random.default_rng(10)
        draws = [truncated_normal_draw(5.0, 1.0, 0.0, 1.0, rng) for _ in range(1000)]
        assert all(0.0 < d < 1.0 for d in draws)

    def test_matches_truncnorm(self):
        rng = np.random.default_rng(11)
        mean, scale, lo, hi = 1.0, 2.0, -1.0, 4.0
        draws = [truncated_normal_draw(mean, scale, lo, hi, rng) for _ in range(4000)]
        dist = stats.truncnorm((lo - mean) / scale, (hi - mean) / scale,
                               loc=mean, scale=scale)
        assert stats.kstest(draws, dist.cdf).pvalue > 1e-3

    def test_seed_determinism(self):
        a = truncated_normal_draw(0.0, 1.0, -2.0, 2.0, np.random.default_rng(12))
        b = truncated_normal_draw(0.0, 1.0, -2.0, 2.0, np.random.default_rng(12))
        assert a == b


class TestModelInterface:
    def test_prior_sample_support_and_logpdf(self):
        model = mixture_model(SPEC)
        rng = np.random.default_rng(13)
        for _ in range(200):
            state = model.prior_sample(rng)
            assert state.shape == (4,)
            assert np.all(state[:2] >= -20) and np.all(state[:2] <= 40)
            assert state[2] in (0.0, 1.0) and state[3] in (0.0, 1.0)
            n_flip = state[2] + state[3]
            expected = (-2.0 * np.log(60.0) + (2 - n_flip) * np.log(0.3)
                        + n_flip * np.log(0.7))
            assert abs(model.prior_logpdf(state) - expected) < 1e-12
        assert model.prior_logpdf(np.array([50.0, 0.0, 0.0, 0.0])) == -np.inf

    def test_prior_sign_frequency(self):
        model = mixture_model(SPEC)
        rng = np.random.default_rng(14)
        n = 100_000
        zeros = sum(model.prior_sample(rng)[2] == 0.0 for _ in range(n))
        assert abs(zeros / n - 0.3) < 0.006

    def test_simulate_respects_given_signs(self):
        model = mixture_model(SPEC)
        rng = np.random.default_rng(15)
        state = np.array([30.0, 30.0, 1.0, 0.0])
        draws = np.array([model.simulate_data(state, rng) for _ in range(2000)])
        np.testing.assert_allclose(draws.mean(axis=0), [-30.0, 30.0], atol=0.15)

    def test_fingerprint_stable(self):
        assert mixture_model(SPEC).fingerprint() == mixture_model(SPEC).fingerprint()

    def test_fingerprint_tells_configurations_apart(self, tmp_path):
        a = mixture_model(MixtureSpec(omega=0.3))
        b = mixture_model(MixtureSpec(omega=0.9, rho=0.1))
        assert a.fingerprint() != b.fingerprint()
        path = str(tmp_path / "table.npz")
        simulate_reference_table(b, 5, seed=1).to_npz(path)
        ReferenceTable.from_npz(path, expected_fingerprint=b.fingerprint())
        with pytest.raises(ValueError, match="different model"):
            ReferenceTable.from_npz(path, expected_fingerprint=a.fingerprint())


class TestFeatureDesign:
    def test_names_follow_interaction_order(self):
        names = mixture_feature_names(0)
        assert len(names) == 26
        assert names[0] == "1"
        assert "s_1*b_1" in names and "theta_2*b_1*b_2" in names
        # b_1's own design never contains b_1 itself
        assert all("b_1" not in nm for nm in mixture_feature_names(2))

    def test_batch_matches_full_interactions(self):
        specs = mixture_engine_specs(SPEC)
        rng = np.random.default_rng(16)
        s = rng.normal(size=2)
        state = np.array([rng.normal(), rng.normal(),
                          float(rng.integers(2)), float(rng.integers(2))])
        row = specs[0].feature_map_batch(s[None, :], state[None, :], 0)[0]
        direct = full_interactions(
            np.array([s[0], s[1], state[1], state[2], state[3]]), max_order=3)
        np.testing.assert_allclose(row, direct, atol=1e-14)

    def test_analytic_coefficients_reproduce_mean(self):
        coef = mixture_analytic_theta1_coefficients(SPEC)
        specs = mixture_engine_specs(SPEC)
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = rng.normal(scale=3, size=2)
            state = np.array([0.0, rng.uniform(-10, 10),
                              float(rng.integers(2)), float(rng.integers(2))])
            row = specs[0].feature_map_batch(s[None, :], state[None, :], 0)[0]
            mean, _, _, _ = mixture_conditional_theta1(
                state[1], (state[2], state[3]), tuple(s), SPEC)
            assert abs(row @ coef - mean) < 1e-10

    def test_analytic_coefficient_values(self):
        names = mixture_feature_names(0)
        coef = dict(zip(names, mixture_analytic_theta1_coefficients(SPEC)))
        expected = {"s_1": 1.0, "s_2": -0.7, "theta_2": 0.7,
                    "s_1*b_1": -2.0, "s_2*b_1": 1.4, "theta_2*b_1": -1.4,
                    "theta_2*b_2": -1.4, "theta_2*b_1*b_2": 2.8}
        for nm, value in coef.items():
            assert abs(value - expected.get(nm, 0.0)) < 1e-12


class TestExactGibbs:
    def test_within_basin_posterior(self):
        # with the signs clamped at (0, 0) the location draws are the
        # standard bivariate-normal conditionals of theta | s ~ N(s, Sigma)
        # (box truncation is 20 sigma away), so the chain moments are known
        specs = mixture_exact_specs(SPEC)
        clamped = [specs[0], specs[1],
                   ConditionalSpec(name="b_1", members=(2,),
                                   exact=lambda st, m, rng: st[m]),
                   ConditionalSpec(name="b_2", members=(3,),
                                   exact=lambda st, m, rng: st[m])]
        config = GibbsConfig(n_iterations=20_000, initial=[2.5, 2.5, 0.0, 0.0],
                             burn_in=500)
        out = run_exact_gibbs(clamped, config, np.random.default_rng(18),
                              names=MIXTURE_STATE_NAMES)
        assert np.all(out.states[:, 2:] == 0.0)
        np.testing.assert_allclose(out.states[:, :2].mean(axis=0),
                                   [2.5, 2.5], atol=0.06)
        np.testing.assert_allclose(np.cov(out.states[:, :2].T), SPEC.sigma,
                                   atol=0.08)

    def test_basin_weights_match_sign_prior(self):
        # integrating the Gaussian over the flat location box gives the
        # same constant for every sign pattern, so the posterior basin
        # weights collapse to the prior ones: omega^(zeros) (1-omega)^(ones)
        specs = mixture_exact_specs(SPEC)
        config = GibbsConfig(n_iterations=120_000,
                             initial=[2.5, 2.5, 0.0, 0.0], burn_in=2000)
        out = run_exact_gibbs(specs, config, np.random.default_rng(28),
                              names=MIXTURE_STATE_NAMES)
        b = out.states[:, 2:]
        switches = np.sum(np.any(np.diff(b, axis=0) != 0, axis=1))
        assert switches > 100    # the weight estimate needs real mixing
        freq_00 = np.mean((b[:, 0] == 0) & (b[:, 1] == 0))
        freq_11 = np.mean((b[:, 0] == 1) & (b[:, 1] == 1))
        freq_mixed = np.mean(b[:, 0] != b[:, 1])
        assert abs(freq_00 - 0.09) < 0.06
        assert abs(freq_11 - 0.49) < 0.10
        assert abs(freq_mixed - 0.42) < 0.10

    def test_stays_in_support_and_reproducible(self):
        specs = mixture_exact_specs(SPEC)
        config = GibbsConfig(n_iterations=500, initial=mixture_initial_state())
        a = run_exact_gibbs(specs, config, np.random.default_rng(19))
        b = run_exact_gibbs(specs, config, np.random.default_rng(19))
        np.testing.assert_array_equal(a.states, b.states)
        assert np.all(a.states[:, :2] > -20) and np.all(a.states[:, :2] < 40)
        assert set(np.unique(a.states[:, 2:])) <= {0.0, 1.0}


def joint_prior_table(n, seed, theta_halfwidth=None):
    """(summaries, states) drawn jointly so conditionals match the model."""
    rng = np.random.default_rng(seed)
    lo, hi = SPEC.lower, SPEC.upper
    if theta_halfwidth is not None:
        lo, hi = -theta_halfwidth, theta_halfwidth
    theta = rng.uniform(lo, hi, size=(n, 2))
    b = (rng.random((n, 2)) >= SPEC.omega).astype(float)
    summ = np.array([simulate_given_signs(theta[i], b[i], SPEC, rng)
                     for i in range(n)])
    return summ, np.column_stack([theta, b])


class TestEngineRecovery:
    def test_linear_fit_recovers_theta1_coefficients(self):
        summ, states = joint_prior_table(30_000, seed=20)
        specs = mixture_engine_specs(SPEC)
        x = specs[0].feature_map_batch(summ, states, 0)
        fit = fit_weighted_linear(x, states[:, 0], np.ones(len(x)))
        target = mixture_analytic_theta1_coefficients(SPEC)
        assert np.max(np.abs(fit.beta - target)) < 0.1
        assert abs(np.sqrt(fit.sigma2) - np.sqrt(0.51)) < 0.02

    def test_logistic_fit_switch_probability_at_origin(self):
        # informative draws concentrate near the origin; evaluated at
        # theta_1 = 0 the true switch probability is 1 - omega = 0.7
        summ, states = joint_prior_table(20_000, seed=21, theta_halfwidth=2.0)
        specs = mixture_engine_specs(SPEC)
        x = specs[2].feature_map_batch(summ, states, 2)
        fit = fit_weighted_logistic(x, states[:, 2], np.ones(len(x)))
        query = np.array([[2.5, 2.5]]), np.array([[0.0, 0.0, 0.0, 0.0]])
        row = specs[2].feature_map_batch(query[0], query[1], 2)[0]
        p = fit.predict_prob(row)
        assert abs(p - 0.7) < 0.05
