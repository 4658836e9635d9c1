"""Tests for the seasonal state-space model and its approximate sampler."""

import copy
import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lfgibbs.diagnostics import effective_sample_size
from lfgibbs.gibbs import save_chain
from lfgibbs.gk import GKParams, gk_sample, link_parameters, unlink_parameters
from lfgibbs.kernels import KernelSpec, scaled_distance
from lfgibbs.statespace import (
    N_SERIES,
    STATE_DIM,
    ChainConfig,
    DlmSpec,
    PhiContext,
    PhiHypercube,
    SeasonCalendar,
    SweepOperator,
    TrainingConfig,
    TrainingSet,
    block_kalman_smoother,
    block_transition,
    generate_phi_training_set,
    innovation_precision_conditional,
    kalman_smoother_init,
    observation_block,
    observation_matrix,
    run_state_space_gibbs,
    sample_lambda_conditional,
    summarize_observations,
    transition_matrix,
    trend_block,
    weekly_seasonal_block,
)
from lfgibbs import gk
from lfgibbs.statespace import conditionals, training
from lfgibbs.statespace.training import _linear_bayes, _localize


def kron_obs(summer):
    return np.kron(observation_block(summer)[:, None], np.eye(N_SERIES))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def whitened_draw(phi_star, s_obs, ts, kernel, m, rng, timings=None):
    """Oracle of the earlier predictor draw, a drop-in for
    sample_lambda_conditional: the resampled residual is whitened by the
    Cholesky root of the floored linear Bayes covariance and mapped back
    by the same root, which cancels up to rounding."""
    s_obs = np.asarray(s_obs, dtype=float).reshape(4)
    omega, pool, probs = _localize(ts, phi_star, kernel, m)
    gain, cov = _linear_bayes(omega)
    mean = phi_star.mean + gain @ (s_obs - phi_star.mean)
    root = np.linalg.cholesky(cov)
    k = pool[training._choice_index(probs, rng)]
    fitted = ts.phi_means[k] + gain @ (ts.summaries[k] - ts.phi_means[k])
    residual = solve_triangular(root, ts.predictors[k] - fitted, lower=True)
    return mean + root @ residual


@dataclass(frozen=True)
class StateUpdate:
    """Conditional Gaussian of one state given its neighbours and predictor.

    predictor_mean and predictor_var are the one-step moments (f, q) of
    the linear predictor before conditioning; q is treated as diagonal
    and the discarded off-diagonal mass is recorded.
    """

    mean: np.ndarray
    cov: np.ndarray
    predictor_mean: np.ndarray
    predictor_var: np.ndarray
    off_diagonal_max: float


def state_given_predictor_conditional(theta_prev, theta_next, w, g_mat, f_mat,
                                      predictor) -> StateUpdate:
    """Condition the two-sided state prior on its linear predictor.

    The test oracle of SweepOperator, written out with dense inverses.
    The prior given both neighbours is N(a, R) with
    R = (G' W^-1 G + W^-1)^-1 and a = R (W^-1 G theta_prev +
    G' W^-1 theta_next), for the diagonal W = diag(w); conditioning on
    predictor = F' theta gives mean a + R F q^-1 (predictor - f) and
    covariance R - R F q^-1 F' R with f = F' a and q = diag(F' R F).
    """
    g = np.asarray(g_mat, dtype=float)
    f = np.asarray(f_mat, dtype=float)
    w_inv = np.diag(1.0 / np.asarray(w, dtype=float))
    r_cov = np.linalg.inv(g.T @ w_inv @ g + w_inv)
    r_cov = 0.5 * (r_cov + r_cov.T)
    a = r_cov @ (w_inv @ (g @ theta_prev) + g.T @ (w_inv @ theta_next))
    u = r_cov @ f
    q_full = f.T @ u
    q_diag = np.diag(q_full).copy()
    off = q_full - np.diag(q_diag)
    if np.any(q_diag <= 0) or not np.all(np.isfinite(q_diag)):
        raise np.linalg.LinAlgError("predictor variance is not positive")
    gain = u / q_diag
    f_mean = f.T @ a
    cov = r_cov - gain @ u.T
    return StateUpdate(mean=a + gain @ (predictor - f_mean), cov=0.5 * (cov + cov.T),
                       predictor_mean=f_mean, predictor_var=q_diag,
                       off_diagonal_max=float(np.max(np.abs(off))))


class TestSystemMatrices:
    def test_trend_block_square(self):
        j2 = trend_block()
        assert np.array_equal(j2 @ j2, np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_seasonal_block_period_seven(self):
        p6 = weekly_seasonal_block()
        np.testing.assert_allclose(np.linalg.matrix_power(p6, 7), np.eye(6),
                                   atol=1e-12)
        for k in range(1, 7):
            assert not np.allclose(np.linalg.matrix_power(p6, k), np.eye(6))
        eigs = np.linalg.eigvals(p6)
        np.testing.assert_allclose(np.abs(eigs), np.ones(6), atol=1e-12)
        np.testing.assert_allclose(eigs ** 7, np.ones(6), atol=1e-10)
        assert np.all(np.abs(eigs - 1.0) > 0.5)

    def test_block_transition_layout(self):
        g9 = block_transition()
        assert g9.shape == (9, 9)
        assert np.array_equal(g9[:2, :2], trend_block())
        assert np.array_equal(g9[2:8, 2:8], weekly_seasonal_block())
        assert g9[8, 8] == 1.0
        assert np.all(g9[:2, 2:] == 0) and np.all(g9[2:, :2] == 0)
        assert np.all(g9[2:8, 8] == 0) and np.all(g9[8, :8] == 0)

    def test_observation_block(self):
        f = observation_block(False)
        assert np.array_equal(np.flatnonzero(f), [0, 2])
        f = observation_block(True)
        assert np.array_equal(np.flatnonzero(f), [0, 2, 8])
        assert f[8] == 1.0

    def test_kronecker_identity(self):
        rng = np.random.default_rng(0)
        g = transition_matrix()
        g9 = block_transition()
        x = rng.normal(size=9)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_allclose(g @ np.kron(x, e), np.kron(g9 @ x, e),
                                       atol=1e-14)

    def test_build_matrices_shapes_and_summer(self):
        cal = SeasonCalendar(n_days=10, summer_start=4, summer_end=11)
        f, g = observation_matrix(cal.is_summer(5)), transition_matrix()
        assert f.shape == (36, 4) and g.shape == (36, 36)
        for v in range(4):
            assert np.array_equal(np.flatnonzero(f[:, v]),
                                  [v, 8 + v, 32 + v])
        f_off = observation_matrix(cal.is_summer(1))
        for v in range(4):
            assert np.array_equal(np.flatnonzero(f_off[:, v]), [v, 8 + v])
        # the indicator extends one step past the data
        f_last = observation_matrix(cal.is_summer(11))
        assert f_last[32, 0] == 1.0
        for bad in (0, 12, -3):
            with pytest.raises(ValueError):
                cal.is_summer(bad)

    def test_full_year_parameter_count(self):
        assert STATE_DIM * 365 == 13140

    def test_calendar_validation_and_phase(self):
        with pytest.raises(ValueError):
            SeasonCalendar(n_days=0)
        with pytest.raises(ValueError):
            SeasonCalendar(n_days=5, summer_start=0)
        cal = SeasonCalendar(n_days=14, summer_start=3, summer_end=6)
        assert not cal.is_summer(2) and cal.is_summer(3)
        assert cal.is_summer(6) and not cal.is_summer(7)
        with pytest.raises(ValueError):
            cal.is_summer(16)

    def test_spec_defaults_and_validation(self):
        spec = DlmSpec()
        assert spec.p == 36
        assert np.array_equal(spec.m0, np.zeros(36))
        assert np.all(spec.c0_diag == 1e6)
        assert spec.alpha == 1e-10 and spec.nu == 1e-10
        with pytest.raises(ValueError):
            DlmSpec(alpha=0.0)
        with pytest.raises(ValueError):
            DlmSpec(m0=np.zeros(7))
        with pytest.raises(ValueError):
            DlmSpec(c0_diag=np.full(36, -1.0))


class TestInitialStateConditional:
    def test_unit_everything_halves(self):
        prior = conditionals.initial_prior_terms(np.zeros(3), np.ones(3))
        mean, cov = conditionals._initial_moments(np.ones(3), np.ones(3), np.eye(3), prior)
        np.testing.assert_allclose(mean, 0.5 * np.ones(3), atol=1e-12)
        np.testing.assert_allclose(cov, 0.5 * np.eye(3), atol=1e-12)

    def test_scalar_hand_case(self):
        # g=2, w=1, c0=4, m0=1, theta1=3: precision 4 + 1/4, shift 1/4 + 6
        prior = conditionals.initial_prior_terms(np.array([1.0]), np.array([4.0]))
        mean, cov = conditionals._initial_moments(
            np.array([3.0]), np.array([1.0]), np.array([[2.0]]), prior)
        assert cov[0, 0] == pytest.approx(4.0 / 17.0, rel=1e-12)
        assert mean[0] == pytest.approx(25.0 / 17.0, rel=1e-12)

    def test_diagonal_inverse_is_the_lu_inverse(self):
        # variances are inverted entry by entry, bit for bit what
        # np.linalg.inv gives for positive variances of any size
        gen = np.random.default_rng(12)
        for case in range(2000):
            p = int(gen.integers(1, 40))
            w = 10.0 ** gen.uniform(-300, 300, size=p) if case % 2 \
                else gen.uniform(1e-9, 10.0, size=p)
            m0 = gen.normal(size=p)
            want = np.linalg.inv(np.diag(w))
            got = np.diag(conditionals._inverse_variances(w))
            c0_inv, c0_inv_m0 = conditionals.initial_prior_terms(m0, w)
            for inverse in (got, c0_inv):
                assert np.array_equal(inverse, want)
                assert np.array_equal(np.signbit(inverse), np.signbit(want))
            assert np.array_equal(c0_inv_m0, want @ m0)
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            conditionals._inverse_variances(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            conditionals._initial_moments(np.ones(3), np.array([1.0, 0.0, 2.0]), np.eye(3),
                                          conditionals.initial_prior_terms(np.zeros(3),
                                                                           np.ones(3)))

    def test_diagonal_variances_scale_the_columns_bit_for_bit(self):
        # vector variances w give the moments of the dense product
        # g.T @ diag(1/w) @ g, bit for bit, on dense and block-sparse g
        gen = np.random.default_rng(13)
        for case in range(200):
            p = 36 if case % 2 else int(gen.integers(1, 12))
            g = gen.normal(size=(p, p))
            if case % 4 == 1:
                g = np.kron(gen.normal(size=(9, 9)), np.eye(4))
            w = gen.uniform(1e-3, 10.0, size=p)
            theta = gen.normal(size=p)
            m0, c0 = gen.normal(size=p), gen.uniform(1.0, 5.0, size=p)
            w_inv, c0_inv = np.diag(1.0 / w), np.diag(1.0 / c0)
            info = g.T @ w_inv @ g + c0_inv
            shift = g.T @ (w_inv @ theta) + c0_inv @ m0
            want = np.linalg.inv(info)
            want = 0.5 * (want + want.T)
            mean, got = conditionals._initial_moments(
                theta, w, g, conditionals.initial_prior_terms(m0, c0))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(mean.view(np.uint64),
                                          (want @ shift).view(np.uint64))


def terminal_mean(g, w, theta, seed):
    """The forward-predictive draw G theta + sqrt(w) z of a SweepOperator
    less its noise, replayed from the same generator."""
    draw = SweepOperator(g, w, {}).draw_terminal(theta, np.random.default_rng(seed))
    return draw - np.sqrt(w) * np.random.default_rng(seed).standard_normal(w.size)


class TestDrawTerminal:
    def test_identity_transition(self):
        theta = np.array([1.0, 2.0])
        w = np.array([0.3, 0.7])
        draw = SweepOperator(np.eye(2), w, {}).draw_terminal(theta, np.random.default_rng(3))
        z = np.random.default_rng(3).standard_normal(2)
        assert np.array_equal(draw, theta + np.sqrt(w) * z)

    def test_trend_hand_case(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        mean = terminal_mean(g, np.full(2, 1e-6), np.array([2.0, 0.5]), 4)
        np.testing.assert_allclose(mean, [2.5, 0.5])

    def test_trend_subblock_multiplication(self):
        theta = np.random.default_rng(1).normal(size=36)
        mean = terminal_mean(transition_matrix(), np.ones(36), theta, 5)
        for v in range(4):
            trend = theta[[v, 4 + v]]
            np.testing.assert_allclose(mean[[v, 4 + v]],
                                       trend_block() @ trend, atol=1e-14)


class TestPrecisionConditional:
    def test_zero_innovations(self):
        shape, rates = innovation_precision_conditional(np.zeros((7, 3)),
                                                        1e-10, 1e-10)
        assert shape == pytest.approx(1e-10 + 3.5)
        np.testing.assert_allclose(rates, np.full(3, 1e-10))

    def test_hand_case(self):
        shape, rates = innovation_precision_conditional(
            np.array([[1.0], [2.0]]), 1.0, 1.0)
        assert shape == pytest.approx(2.0)
        assert rates[0] == pytest.approx(3.5)

    def test_vague_limit_matches_moment_precision(self):
        rng = np.random.default_rng(2)
        innov = rng.normal(size=(9, 4))
        shape, rates = innovation_precision_conditional(innov, 1e-14, 1e-14)
        np.testing.assert_allclose(shape / rates,
                                   9.0 / (innov ** 2).sum(axis=0), rtol=1e-9)

    def test_draw_moments(self):
        shape, rates = innovation_precision_conditional(
            np.array([[1.0], [2.0]]), 1.0, 1.0)
        rng = np.random.default_rng(3)
        draws = rng.gamma(shape, 1.0 / rates[0], size=20000)
        target = shape / rates[0]
        mcse = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * mcse


def line_conditioned_moments(g, w, theta_prev, theta_next, f_vec, lam):
    """Numerical conditioning of the two-sided state prior on f'theta = lam.

    The prior restricted to the line is evaluated on a dense grid; for a
    Gaussian integrand the trapezoid sums converge far below the 1e-10
    comparison tolerance.
    """
    w_inv = np.diag(1.0 / w)
    th0 = f_vec * (lam / (f_vec @ f_vec))
    d = np.array([-f_vec[1], f_vec[0]])
    d = d / np.linalg.norm(d)
    u = np.linspace(-40.0, 40.0, 20001)
    pts = th0 + u[:, None] * d
    r1 = pts - g @ theta_prev
    r2 = theta_next - pts @ g.T
    logw = -0.5 * (np.einsum("ti,ij,tj->t", r1, w_inv, r1)
                   + np.einsum("ti,ij,tj->t", r2, w_inv, r2))
    wgt = np.exp(logw - logw.max())
    wgt /= wgt.sum()
    mu_u = wgt @ u
    var_u = wgt @ (u - mu_u) ** 2
    return th0 + mu_u * d, var_u * np.outer(d, d)


class TestStatePredictorConditional:
    def test_unit_system_midpoint(self):
        op = SweepOperator(np.eye(3), np.ones(3),
                           {False: np.array([[1.0], [0.0], [1.0]])})
        np.testing.assert_allclose(op.r_cov, 0.5 * np.eye(3), atol=1e-12)
        a = op.two_sided_mean(np.array([1.0, 2.0, 3.0]),
                              np.array([3.0, 4.0, 5.0]))
        np.testing.assert_allclose(a, [2.0, 3.0, 4.0], atol=1e-12)

    def test_zero_innovation_keeps_two_sided_mean(self):
        rng = np.random.default_rng(4)
        g = trend_block()
        w = np.array([0.7, 1.3])
        tp, tn = rng.normal(size=2), rng.normal(size=2)
        f_mat = np.array([[1.0], [0.5]])
        w_inv = np.diag(1.0 / w)
        r = np.linalg.inv(g.T @ w_inv @ g + w_inv)
        a = r @ (w_inv @ g @ tp + g.T @ w_inv @ tn)
        upd = state_given_predictor_conditional(tp, tn, w, g, f_mat,
                                                f_mat.T @ a)
        np.testing.assert_allclose(upd.mean, a, atol=1e-12)

    def test_brute_force_line_conditioning(self):
        rng = np.random.default_rng(5)
        g = trend_block()
        w = np.array([0.7, 1.3])
        f_vec = np.array([1.0, 0.5])
        for _ in range(5):
            tp, tn = rng.normal(size=2), rng.normal(size=2)
            lam = rng.normal()
            upd = state_given_predictor_conditional(
                tp, tn, w, g, f_vec[:, None], np.array([lam]))
            mean_o, cov_o = line_conditioned_moments(g, w, tp, tn, f_vec, lam)
            np.testing.assert_allclose(upd.mean, mean_o, atol=1e-10)
            np.testing.assert_allclose(upd.cov, cov_o, atol=1e-10)

    def test_two_block_case(self):
        rng = np.random.default_rng(6)
        g1, g2 = trend_block(), np.array([[0.9, 0.0], [0.3, 1.0]])
        g = np.block([[g1, np.zeros((2, 2))], [np.zeros((2, 2)), g2]])
        w = np.array([0.5, 1.5, 0.8, 1.1])
        f1, f2 = np.array([1.0, 0.4]), np.array([0.7, 1.2])
        f_mat = np.zeros((4, 2))
        f_mat[:2, 0] = f1
        f_mat[2:, 1] = f2
        tp, tn = rng.normal(size=4), rng.normal(size=4)
        lam = rng.normal(size=2)
        upd = state_given_predictor_conditional(tp, tn, w, g, f_mat, lam)
        assert upd.off_diagonal_max < 1e-15
        m1, c1 = line_conditioned_moments(g1, w[:2], tp[:2], tn[:2], f1,
                                          lam[0])
        m2, c2 = line_conditioned_moments(g2, w[2:], tp[2:], tn[2:], f2,
                                          lam[1])
        np.testing.assert_allclose(upd.mean, np.concatenate([m1, m2]),
                                   atol=1e-10)
        np.testing.assert_allclose(upd.cov[:2, :2], c1, atol=1e-10)
        np.testing.assert_allclose(upd.cov[2:, 2:], c2, atol=1e-10)
        np.testing.assert_allclose(upd.cov[:2, 2:], 0.0, atol=1e-10)

    def test_singular_predictor_errors(self):
        f_mat = np.zeros((2, 1))
        with pytest.raises(np.linalg.LinAlgError):
            state_given_predictor_conditional(
                np.zeros(2), np.zeros(2), np.ones(2), trend_block(), f_mat,
                np.array([0.0]))

    def test_off_diagonal_recorded(self):
        g = trend_block()
        w = np.array([1.0, 2.0])
        w_inv = np.diag(1.0 / w)
        r = np.linalg.inv(g.T @ w_inv @ g + w_inv)
        f_mat = np.array([[1.0, 0.3], [0.2, 1.0]])
        q = f_mat.T @ r @ f_mat
        upd = state_given_predictor_conditional(
            np.zeros(2), np.zeros(2), w, g, f_mat, np.zeros(2))
        assert upd.off_diagonal_max == pytest.approx(abs(q[0, 1]), rel=1e-12)
        np.testing.assert_allclose(upd.predictor_var, np.diag(q), rtol=1e-12)


class TestSweepOperator:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        cal = SeasonCalendar(n_days=5, summer_start=3, summer_end=6)
        self.f_on, self.g = observation_matrix(cal.is_summer(3)), transition_matrix()
        self.f_off = observation_matrix(cal.is_summer(1))
        self.w = self.rng.uniform(0.5, 2.0, size=36)
        self.op = SweepOperator(self.g, self.w,
                                {False: self.f_off, True: self.f_on})

    def test_matches_plain_function(self):
        tp, tn = self.rng.normal(size=36), self.rng.normal(size=36)
        lam = self.rng.normal(size=4)
        upd = state_given_predictor_conditional(tp, tn, self.w, self.g,
                                                self.f_on, lam)
        a = self.op.two_sided_mean(tp, tn)
        f_mean, q_diag = self.op.predictor_moments(a, True)
        np.testing.assert_allclose(f_mean, upd.predictor_mean, atol=1e-12)
        np.testing.assert_allclose(q_diag, upd.predictor_var, atol=1e-12)
        draws = np.array([self.op.draw_state(a, f_mean, lam, True,
                                             np.random.default_rng(i))
                          for i in range(400)])
        # with an exactly diagonal q the draw lies in the conditioned
        # subspace: the predictor of every draw reproduces lam
        np.testing.assert_allclose(draws @ self.f_on,
                                   np.tile(lam, (400, 1)), atol=1e-10)
        np.testing.assert_allclose(self.op.off_diagonal_max, 0.0, atol=1e-15)

    def test_draw_moments_two_dim(self):
        g = trend_block()
        w = np.array([0.7, 1.3])
        f_mat = np.array([[1.0], [0.5]])
        op = SweepOperator(g, w, {False: f_mat})
        tp, tn, lam = np.array([0.4, -0.2]), np.array([1.0, 0.3]), np.array([0.8])
        upd = state_given_predictor_conditional(tp, tn, w, g, f_mat, lam)
        a = op.two_sided_mean(tp, tn)
        fa = op.predictor_moments(a, False)[0]
        rng = np.random.default_rng(8)
        draws = np.array([op.draw_state(a, fa, lam, False, rng)
                          for _ in range(20000)])
        se = np.sqrt(np.diag(upd.cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - upd.mean) < 4 * se + 1e-12)
        cov_emp = np.cov(draws.T)
        scale = max(np.diag(upd.cov).max(), 1e-12)
        assert np.abs(cov_emp - upd.cov).max() < 5 * scale * math.sqrt(2.0 / draws.shape[0])

    def test_initial_and_terminal_draw_moments(self):
        rng = np.random.default_rng(9)
        op = SweepOperator(trend_block(), np.array([0.5, 0.8]),
                           {False: np.array([[1.0], [0.0]])})
        theta1 = np.array([1.0, -0.5])
        m0, c0 = np.array([0.2, 0.1]), np.array([2.0, 3.0])
        prior = conditionals.initial_prior_terms(m0, c0)
        mean, cov = conditionals._initial_moments(theta1, np.array([0.5, 0.8]),
                                                  trend_block(), prior)
        draws = np.array([op.draw_initial(theta1, prior, rng)
                          for _ in range(20000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
        term = np.array([op.draw_terminal(theta1, rng) for _ in range(20000)])
        t_mean = trend_block() @ theta1
        t_se = np.sqrt(np.array([0.5, 0.8]) / term.shape[0])
        assert np.all(np.abs(term.mean(axis=0) - t_mean) < 4 * t_se)


class TestLinkRoundTrip:
    def test_linear_components_bit_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            p = GKParams(float(rng.normal(0, 100)),
                         float(rng.uniform(0.01, 20.0)),
                         float(rng.normal(0, 50)),
                         float(rng.uniform(-0.49, 5.0)))
            q = unlink_parameters(link_parameters(p))
            assert q.A == p.A and q.g == p.g

    def test_exponential_components_one_ulp_on_unit_log_band(self):
        # within a factor e of 1 the log image keeps full resolution, so
        # the round trip through the log scale costs at most one ulp
        rng = np.random.default_rng(10)
        lo, hi = math.exp(-1), math.exp(1)
        for _ in range(300):
            p = GKParams(0.0, float(rng.uniform(lo, hi)), 0.0,
                         float(rng.uniform(lo, hi)) - 0.5)
            q = unlink_parameters(link_parameters(p))
            assert abs(q.B - p.B) <= np.spacing(p.B)
            assert abs(q.k - p.k) <= np.spacing(p.k + 0.5)

    def test_exponential_components_track_log_magnitude(self):
        # away from 1 the log image loses about one bit per unit of
        # |log x|: neighbouring doubles share a rounded log, so no
        # inverse can do better than this envelope
        rng = np.random.default_rng(10)
        for _ in range(300):
            p = GKParams(0.0, float(rng.uniform(1e-4, 1e4)), 0.0,
                         float(rng.uniform(-0.499, 1e3)))
            q = unlink_parameters(link_parameters(p))
            b_ulps = 1.0 + abs(math.log(p.B))
            assert abs(q.B - p.B) <= b_ulps * np.spacing(p.B)
            k_ulps = 1.0 + abs(math.log(p.k + 0.5))
            assert abs(q.k - p.k) <= k_ulps * np.spacing(p.k + 0.5)


class TestPhiContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhiContext(np.zeros(4), np.array([1.0, -1.0, 1.0, 1.0]), 10)
        with pytest.raises(ValueError):
            PhiContext(np.zeros(4), np.ones(4), 0)
        with pytest.raises(ValueError):
            PhiContext(np.zeros(3), np.ones(3), 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 20.5])
    def test_n_obs_must_be_whole(self, bad):
        with pytest.raises(ValueError,
                           match=rf"^n_obs must be a whole number, got {re.escape(repr(bad))}$"):
            PhiContext(np.zeros(4), np.ones(4), bad)

    def test_n_obs_takes_numpy_integers(self):
        assert PhiContext(np.zeros(4), np.ones(4), np.int64(20)).n_obs == 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300])
    @pytest.mark.parametrize("slot", [0, 3])
    def test_variances_positive_and_finite(self, bad, slot):
        var = np.full(4, 1e-6)
        var[slot] = bad
        with pytest.raises(ValueError,
                           match=r"^prior variances must be positive and finite$"):
            PhiContext(np.zeros(4), var, 20)

    def test_accepted_fields(self):
        # the smallest positive double and the largest finite one pass;
        # lists are taken as float arrays
        phi = PhiContext([0, 1, 2, 3], [5e-324, 1.0, 2.0, np.finfo(float).max], 20)
        assert phi.mean.dtype == float and phi.variance.dtype == float
        assert phi.variance[0] == 5e-324 and phi.n_obs == 20

    def test_embed_layout(self):
        phi = PhiContext(np.array([1.0, 2.0, 3.0, 4.0]),
                         np.array([1e-6, 1e-5, 1e-4, 1e-3]), 500)
        e = phi.embed()
        assert e.shape == (13,)
        np.testing.assert_allclose(e[:4], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(e[4:8], np.log([1e-6, 1e-5, 1e-4, 1e-3]))
        assert e[8] == pytest.approx(math.log(500))
        assert np.all(e[9:] == 0.0)


class TestPhiHypercube:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhiHypercube(np.zeros(4), np.zeros(4), q_low=1e-5, q_high=1e-5)
        with pytest.raises(ValueError):
            PhiHypercube(np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            PhiHypercube(np.zeros(4), np.ones(4), n_low=1)
        with pytest.raises(ValueError):
            PhiHypercube(np.full(4, np.inf), np.ones(4))

    @pytest.mark.parametrize("bad", [20.5, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["n_low", "n_high"])
    def test_sizes_must_be_whole(self, name, bad):
        sizes = dict(n_low=10, n_high=30)
        sizes[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            PhiHypercube(np.zeros(4), np.ones(4), **sizes)

    def test_from_observed_spans_data(self):
        s = np.array([[0.0, -2.0, 0.1, -0.6], [1.0, -1.0, 0.3, -0.4]])
        n = np.array([200, 900])
        cube = PhiHypercube.from_observed(s, n)
        np.testing.assert_allclose(cube.f_low, s.min(axis=0))
        np.testing.assert_allclose(cube.f_high, s.max(axis=0))
        assert cube.n_low == 200 and cube.n_high == 900
        assert cube.q_high == 1e-5


class TestTrainingSet:
    def test_construction_and_views(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(20, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((20, 4), 1e-6),
                         phi_n=np.full(20, 300), predictors=f + 0.1,
                         summaries=f - 0.1)
        assert ts.n_pairs == 20
        assert ts.embedded.shape == (20, 13)
        np.testing.assert_allclose(ts.centered_pairs,
                                   np.hstack([np.full((20, 4), 0.1),
                                              np.full((20, 4), -0.1)]))
        # spare embedding coordinates are constant, so their scale is
        # floored and they contribute nothing to distances
        assert np.all(ts.scaling.scales[9:] <= 1e-12)
        # the distance reads a contiguous copy of the 9 live columns and
        # their scales from the 13-column scaling
        assert ts.live_embedded.flags.c_contiguous
        assert np.array_equal(ts.live_embedded, ts.embedded[:, :9])
        assert np.array_equal(ts.live_scaling.scales, ts.scaling.scales[:9])

    def test_validation(self):
        f = np.zeros((5, 4))
        with pytest.raises(ValueError):
            TrainingSet(phi_means=f, phi_variances=np.zeros((5, 4)),
                        phi_n=np.full(5, 10), predictors=f, summaries=f)
        with pytest.raises(ValueError):
            TrainingSet(phi_means=f, phi_variances=np.full((5, 4), 1e-6),
                        phi_n=np.full(5, 10), predictors=f,
                        summaries=np.full((5, 4), np.nan))
        # a size is a whole number
        for bad in (np.nan, np.inf, -np.inf, 2.5, 0.0):
            n = np.full(5, 10.0)
            n[2] = bad
            with pytest.raises(ValueError, match="phi_n"):
                TrainingSet(phi_means=f, phi_variances=np.full((5, 4), 1e-6),
                            phi_n=n, predictors=f, summaries=f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["phi_means", "phi_variances",
                                      "predictors", "summaries"])
    def test_non_finite_pairs_rejected(self, name, bad):
        f = np.random.default_rng(11).normal(size=(20, 4))
        cols = dict(phi_means=f, phi_variances=np.full((20, 4), 1e-6),
                    phi_n=np.full(20, 300), predictors=f + 0.1,
                    summaries=f - 0.1)
        cols[name] = cols[name].copy()
        cols[name][3, 2] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainingSet(**cols)


class TestGenerateTrainingSet:
    def test_degenerate_variance_pins_predictors(self):
        cube = PhiHypercube(np.array([0.8, -1.5, 0.1, -0.7]),
                            np.array([1.2, -1.2, 0.3, -0.4]),
                            q_low=1e-60, q_high=2e-60, n_low=200, n_high=300)
        ts = generate_phi_training_set(25, cube, np.random.default_rng(12))
        assert np.array_equal(ts.predictors, ts.phi_means)
        assert np.all(ts.phi_n >= 200) and np.all(ts.phi_n <= 300)
        assert np.all(np.isfinite(ts.summaries))

    def test_large_n_consistency(self):
        cube = PhiHypercube(np.array([0.8, -1.5, 0.1, -0.7]),
                            np.array([1.2, -1.2, 0.3, -0.4]),
                            q_low=1e-9, q_high=1e-8,
                            n_low=100000, n_high=100000)
        ts = generate_phi_training_set(12, cube, np.random.default_rng(13))
        err = np.abs(ts.summaries - ts.predictors).max(axis=1)
        assert np.median(err) < 0.05

    # The redraw counts, messages and generator states below were recorded
    # with per-attempt scalar fits (estimate_gk on each sample as it is
    # drawn), before the batch fit; the digest holds the profiled (g, k)
    # fits.
    _CUBE = dict(f_low=np.array([0.8, -1.5, 0.1, -0.7]),
                 f_high=np.array([1.2, -1.2, 0.3, -0.4]),
                 q_low=1e-8, q_high=1e-6, n_high=60)

    def test_draw_identities_over_seeds(self):
        # the training set draws f_low + span * random(4) and
        # f + sqrt(q) * standard_normal(4) for rng.uniform(f_low, f_high)
        # and rng.normal(f, sqrt(q)): the same numbers and the same
        # generator state on every seed, or a numpy upgrade fails here
        for seed in range(1000):
            bounds = np.random.default_rng((seed, 1))
            lo = bounds.normal(size=4) * 10.0 ** bounds.integers(-3, 4)
            hi = lo + bounds.lognormal(size=4)
            scale = np.sqrt(bounds.uniform(0.0, 10.0 ** bounds.integers(-8, 2), size=4))
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            f_old, f_new = old.uniform(lo, hi), lo + (hi - lo) * new.random(4)
            lam_old = old.normal(f_old, scale)
            lam_new = f_new + scale * new.standard_normal(4)
            assert f_old.tobytes() == f_new.tobytes(), seed
            assert lam_old.tobytes() == lam_new.tobytes(), seed
            assert old.bit_generator.state == new.bit_generator.state

    def test_default_summaries_pinned(self):
        # n_low < 20 makes some samples too small to fit, so rounds repeat
        rng = np.random.default_rng(31)
        ts = generate_phi_training_set(40, PhiHypercube(n_low=16, **self._CUBE), rng)
        assert digest(ts.phi_means, ts.phi_variances, ts.phi_n, ts.predictors,
                      ts.summaries) == "e5b55eac8d56cb73"
        assert ts.redraw_count == 3
        # the generator is left where the one-at-a-time loop left it
        assert rng.random() == 0.9887202316992949
        assert ts.simulate_seconds > 0 and ts.estimate_seconds > 0

    @pytest.mark.parametrize("n_pairs", [40, 5000])
    def test_default_summaries_abort_pinned(self, n_pairs, monkeypatch):
        fitted = []

        def counting(targets):
            fitted.append(len(targets))
            return gk.estimate_gk_batch(targets)

        monkeypatch.setattr(training, "estimate_gk_batch", counting)
        cube = PhiHypercube(n_low=5, **dict(self._CUBE, n_high=30))
        rng = np.random.default_rng(32)
        with pytest.raises(ValueError) as err:
            generate_phi_training_set(n_pairs, cube, rng)
        assert str(err.value) == (
            "summary estimation failed for 24 of 50 context draws; widen the "
            "sample-size range or narrow the hypercube")
        # the samples too small to fit end the round at the abort, so
        # nothing past attempt 50 is drawn or fitted, whatever n_pairs is
        assert sum(fitted) == 50
        assert rng.random() == 0.2558447014943296

    def test_non_finite_summary_counts_as_failure(self, monkeypatch):
        rounds = []

        def nan_in_row_4(targets):
            out = gk.estimate_gk_batch(targets)
            if not rounds:
                out[4] = np.nan
            rounds.append(len(targets))
            return out

        monkeypatch.setattr(training, "estimate_gk_batch", nan_in_row_4)
        cube = PhiHypercube(n_low=40, **self._CUBE)
        ts = generate_phi_training_set(10, cube, np.random.default_rng(16))
        assert ts.redraw_count == 1
        assert rounds == [10, 1]
        assert np.all(np.isfinite(ts.summaries))


class TestLocalizedCovariance:
    def test_point_mass(self):
        rng = np.random.default_rng(18)
        f = rng.normal(size=(50, 4))
        v1 = np.array([0.3, -0.2, 0.5, 0.1])
        v2 = np.array([-0.1, 0.4, 0.0, 0.2])
        ts = TrainingSet(phi_means=f, phi_variances=np.full((50, 4), 1e-4),
                         phi_n=np.full(50, 100), predictors=f + v1,
                         summaries=f + v2)
        phi = PhiContext(f[0], np.full(4, 1e-4), 100)
        omega = _localize(ts, phi, KernelSpec("epanechnikov"), 20)[0]
        v = np.concatenate([v1, v2])
        np.testing.assert_allclose(omega, np.outer(v, v), atol=1e-12)

    def test_monte_carlo_covariance_oracle(self):
        rng = np.random.default_rng(19)
        n = 100000
        base = 0.5 ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
        scale = np.sqrt(np.array([1.0, 0.5, 2.0, 0.8, 1.2, 0.6, 1.5, 0.9]))
        sigma = base * np.outer(scale, scale)
        z = rng.multivariate_normal(np.zeros(8), sigma, size=n)
        f = rng.normal(size=(n, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((n, 4), 1e-6),
                         phi_n=np.full(n, 100), predictors=f + z[:, :4],
                         summaries=f + z[:, 4:])
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 100)
        # m = n with a uniform kernel weights every pair equally
        omega = _localize(ts, phi, KernelSpec("uniform"), n)[0]
        mcse = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma))
                        + sigma ** 2) / n)
        assert np.all(np.abs(omega - sigma) < 5 * mcse)

    def test_exactly_m_positive_weights(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(400, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((400, 4), 1e-6),
                         phi_n=np.full(400, 100), predictors=f, summaries=f)
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 100)
        _, pool, w = _localize(ts, phi, KernelSpec("epanechnikov"), 37)
        assert pool.size == 37 and np.all(w > 0)

    def test_too_few_positive_weights_errors(self):
        rng = np.random.default_rng(21)
        f = rng.normal(size=(30, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((30, 4), 1e-6),
                         phi_n=np.full(30, 100), predictors=f, summaries=f)
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 100)
        with pytest.raises(ValueError, match="positive"):
            _localize(ts, phi, KernelSpec("epanechnikov"), 5)


def linear_bayes_mean(gain, f, s):
    """The predictor's mean given its summary, as the sampler forms it."""
    return f + gain @ (s - f)


class TestLinearBayes:
    def test_uncorrelated_blocks(self):
        omega = np.zeros((8, 8))
        omega[:4, :4] = np.diag([1.0, 2.0, 3.0, 4.0])
        omega[4:, 4:] = np.eye(4)
        f = np.array([0.1, 0.2, 0.3, 0.4])
        s = np.array([5.0, -5.0, 5.0, -5.0])
        gain, cov = _linear_bayes(omega)
        mean = linear_bayes_mean(gain, f, s)
        np.testing.assert_allclose(mean, f, atol=1e-8)
        np.testing.assert_allclose(cov, omega[:4, :4], atol=1e-8)

    def test_zero_innovation(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(8, 8))
        omega = a @ a.T + np.eye(8)
        f = rng.normal(size=4)
        mean = linear_bayes_mean(_linear_bayes(omega)[0], f, f)
        np.testing.assert_allclose(mean, f, atol=1e-12)

    def test_scalar_hand_case_replicated(self):
        # per coordinate: omega = ((2,1),(1,1)), f=0, s=2 -> mean 2, var 1
        omega = np.block([[2 * np.eye(4), np.eye(4)],
                          [np.eye(4), np.eye(4)]])
        gain, cov = _linear_bayes(omega)
        mean = linear_bayes_mean(gain, np.zeros(4), np.full(4, 2.0))
        np.testing.assert_allclose(mean, np.full(4, 2.0), rtol=1e-8)
        np.testing.assert_allclose(np.diag(cov), np.ones(4), rtol=1e-8)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0,
                                   atol=1e-10)

    def test_floor_keeps_cholesky_viable(self):
        # an indefinite pseudo-covariance must come out factorable
        omega = np.zeros((8, 8))
        omega[:4, :4] = 1e-13 * np.eye(4)
        omega[4:, 4:] = np.eye(4)
        omega[:4, 4:] = 0.5 * np.eye(4)
        omega[4:, :4] = 0.5 * np.eye(4)
        _, cov = _linear_bayes(omega)
        np.linalg.cholesky(cov)
        assert np.linalg.eigvalsh(cov).min() >= 1e-13


class TestSampleLambda:
    def test_degenerate_residual_pool_returns_mean(self):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(200, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((200, 4), 1e-6),
                         phi_n=np.full(200, 400), predictors=f, summaries=f)
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 400)
        out = sample_lambda_conditional(phi, np.full(4, 0.3), ts,
                                        KernelSpec("epanechnikov"), 50, rng)
        np.testing.assert_allclose(out, phi.mean, atol=1e-12)

    def test_conjugate_gaussian_end_to_end(self):
        rng = np.random.default_rng(24)
        n, m, k_draws = 10000, 2000, 3000
        q0, n0 = 2e-6, 400
        vdiag = np.array([0.08, 0.05, 0.3, 0.12])
        f = rng.uniform([-1, -4, 0, -0.8], [1, -3, 0.5, -0.5], size=(n, 4))
        lam = f + math.sqrt(q0) * rng.normal(size=(n, 4))
        s = lam + np.sqrt(vdiag / n0) * rng.normal(size=(n, 4))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((n, 4), q0),
                         phi_n=np.full(n, n0), predictors=lam, summaries=s)
        f_star = np.array([0.2, -3.5, 0.25, -0.65])
        s_obs = f_star + np.array([0.002, -0.001, 0.003, -0.002])
        phi = PhiContext(f_star, np.full(4, q0), n0)
        true_var = 1.0 / (1.0 / q0 + n0 / vdiag)
        true_mean = true_var * (f_star / q0 + s_obs * n0 / vdiag)
        kern = KernelSpec("epanechnikov")
        draws = np.array([sample_lambda_conditional(phi, s_obs, ts, kern, m,
                                                    rng)
                          for _ in range(k_draws)])
        # two Monte Carlo error sources: the resampling of k_draws
        # residuals, and the finite weighted pool whose mean residual is
        # an O(1/sqrt(m_eff)) offset shared by every draw
        omega, _, w_pos = _localize(ts, phi, kern, m)
        _, cov = _linear_bayes(omega)
        pool_var = (w_pos ** 2).sum() / w_pos.sum() ** 2 * np.diag(cov)
        tol = 3 * np.sqrt(draws.var(axis=0) / k_draws + pool_var)
        assert np.all(np.abs(draws.mean(axis=0) - true_mean) < tol)
        m_eff = w_pos.sum() ** 2 / (w_pos ** 2).sum()
        var_tol = 3 * true_var * math.sqrt(2.0 / k_draws + 2.0 / m_eff)
        assert np.all(np.abs(draws.var(axis=0) - true_var) < var_tol)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(25)
        f = rng.normal(size=(500, 4))
        z = 0.01 * rng.normal(size=(500, 8))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((500, 4), 1e-6),
                         phi_n=np.full(500, 400), predictors=f + z[:, :4],
                         summaries=f + z[:, 4:])
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 400)
        a = sample_lambda_conditional(phi, np.full(4, 0.01), ts,
                                      KernelSpec("epanechnikov"), 100,
                                      np.random.default_rng(9))
        b = sample_lambda_conditional(phi, np.full(4, 0.01), ts,
                                      KernelSpec("epanechnikov"), 100,
                                      np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_observed_summaries_enter_as_four_values(self):
        # a list or an integer array gives the float array's draw; a
        # shape other than (4,) is refused before the table is localized
        rng = np.random.default_rng(26)
        f = rng.normal(size=(200, 4))
        z = 0.01 * rng.normal(size=(200, 8))
        ts = TrainingSet(phi_means=f, phi_variances=np.full((200, 4), 1e-6),
                         phi_n=np.full(200, 400), predictors=f + z[:, :4],
                         summaries=f + z[:, 4:])
        phi = PhiContext(np.zeros(4), np.full(4, 1e-6), 400)
        kern = KernelSpec("epanechnikov")
        want = sample_lambda_conditional(phi, np.array([1.0, 0.0, -1.0, 2.0]), ts, kern,
                                         50, np.random.default_rng(3))
        for s_obs in ([1, 0, -1, 2], np.array([1, 0, -1, 2])):
            got = sample_lambda_conditional(phi, s_obs, ts, kern, 50, np.random.default_rng(3))
            assert got.tobytes() == want.tobytes()
        for s_obs in (np.ones(3), np.ones((1, 4)), np.ones((4, 1)), np.ones(8)):
            with pytest.raises(ValueError):
                sample_lambda_conditional(phi, s_obs, ts, kern, 50, rng)

    def test_choice_index_replays_generator_choice(self):
        # the same index as Generator.choice from the same one double, so
        # the generators stay in step afterwards
        gen = np.random.default_rng(40)
        for case in range(2000):
            n = int(gen.integers(1, 80))
            w = gen.random(n) ** gen.uniform(0.5, 6.0)
            w[gen.random(n) < gen.uniform(0.0, 0.6)] = 0.0
            if not w.any():
                w[gen.integers(n)] = gen.random()
            probs = w / w.sum()
            pool = np.sort(gen.choice(5000, size=n, replace=False))
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            assert pool[training._choice_index(probs, ours)] == theirs.choice(pool, p=probs)
            assert ours.random() == theirs.random()

    def test_draw_adds_the_resampled_residual(self):
        # the linear Bayes mean plus the resampled pair's residual about
        # its fitted value, exactly, from one double of the generator
        gen = np.random.default_rng(42)
        f = gen.normal(size=(60, 4))
        ts = TrainingSet(phi_means=f,
                         phi_variances=gen.uniform(0.5e-6, 2e-6, size=(60, 4)),
                         phi_n=gen.integers(100, 1000, size=60),
                         predictors=f + 0.05 * gen.normal(size=(60, 4)),
                         summaries=f + 0.1 * gen.normal(size=(60, 4)))
        kern = KernelSpec("epanechnikov")
        for case in range(20):
            phi = PhiContext(f[case] + 0.1 * gen.normal(size=4),
                             np.full(4, 1e-6), 400)
            s_obs = phi.mean + 0.05 * gen.normal(size=4)
            rng = np.random.default_rng(case)
            replay = copy.deepcopy(rng)
            out = sample_lambda_conditional(phi, s_obs, ts, kern, 30, rng)
            omega, pool, probs = _localize(ts, phi, kern, 30)
            gain = _linear_bayes(omega)[0]
            k = pool[training._choice_index(probs, replay)]
            fitted = ts.phi_means[k] + gain @ (ts.summaries[k] - ts.phi_means[k])
            assert np.array_equal(
                out, phi.mean + gain @ (s_obs - phi.mean) + (ts.predictors[k] - fitted))
            assert rng.random() == replay.random()


class TestKalman:
    def test_constant_summaries_settle(self):
        t_len = 60
        rows = np.tile(observation_block(False), (t_len, 1))
        y = np.full(t_len, 1.7)
        sm = block_kalman_smoother(y, rows, 1e-8, block_transition(), 1e-12,
                                   np.zeros(9), np.full(9, 1e8))
        assert np.abs(sm[50:, 0] - 1.7).max() < 1e-6
        assert np.abs(sm[50:, 1]).max() < 1e-6
        assert np.abs(sm[50:, 2:8]).max() < 1e-6

    def test_noiseless_observations_interpolate(self):
        rng = np.random.default_rng(26)
        t_len = 40
        rows = np.tile(observation_block(False), (t_len, 1))
        y = 1.0 + 0.05 * rng.normal(size=t_len).cumsum()
        sm = block_kalman_smoother(y, rows, 1e-14, block_transition(), 1e-2,
                                   np.zeros(9), np.full(9, 1e6))
        fitted = np.einsum("ti,ti->t", rows, sm[1:])
        assert np.abs(fitted - y).max() < 1e-6

    def test_init_shape_and_block_isolation(self):
        rng = np.random.default_rng(27)
        cal = SeasonCalendar(n_days=30, summer_start=10, summer_end=20)
        spec = DlmSpec()
        s = 0.02 * rng.normal(size=(30, 4)) + np.array([1.0, -3.5, 0.2, -0.6])
        path = kalman_smoother_init(s, cal, spec, obs_variance=5e-6)
        assert path.shape == (31, 36)
        assert np.all(np.isfinite(path))
        s2 = s.copy()
        s2[:, 1] += 0.3
        path2 = kalman_smoother_init(s2, cal, spec, obs_variance=5e-6)
        assert np.array_equal(path[:, 0::4], path2[:, 0::4])
        assert np.abs(path[:, 1::4] - path2[:, 1::4]).max() > 1e-3

    def test_validation(self):
        cal = SeasonCalendar(n_days=5)
        with pytest.raises(ValueError):
            kalman_smoother_init(np.zeros((4, 4)), cal, DlmSpec(),
                                 obs_variance=1e-5)
        with pytest.raises(ValueError):
            kalman_smoother_init(np.full((5, 4), np.nan), cal, DlmSpec(),
                                 obs_variance=1e-5)
        with pytest.raises(ValueError):
            kalman_smoother_init(np.zeros((5, 4)), cal, DlmSpec(),
                                 obs_variance=-1.0)
        with pytest.raises(ValueError):
            block_kalman_smoother(np.zeros(3), np.zeros((2, 9)), 1e-5,
                                  block_transition(), 1e-4, np.zeros(9),
                                  np.ones(9))


class TestSamplerValidation:
    def setup_method(self):
        self.cal = SeasonCalendar(n_days=3)
        self.spec = DlmSpec()
        self.s = np.tile([1.0, -1.4, 0.2, -0.6], (3, 1))
        self.n = np.full(3, 300)
        self.stub = lambda phi, s_t, rng: s_t

    def test_requires_exactly_one_data_argument(self):
        with pytest.raises(ValueError):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0),
                                  observations=[np.ones(10)], summaries=self.s,
                                  n_obs=self.n)
        with pytest.raises(ValueError):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0),
                                  summaries=self.s)

    def test_calendar_mismatch(self):
        with pytest.raises(ValueError):
            run_state_space_gibbs(self.spec, SeasonCalendar(n_days=4),
                                  TrainingConfig(), ChainConfig(2),
                                  np.random.default_rng(0), summaries=self.s,
                                  n_obs=self.n)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(n_pairs=100, m_neighbours=200)
        for name, bad in (("n_pairs", 300.5), ("n_pairs", True), ("m_neighbours", 2.5),
                          ("m_neighbours", True), ("m_neighbours", np.inf)):
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                TrainingConfig(**{"n_pairs": 300, "m_neighbours": 30, name: bad})
        config = TrainingConfig(n_pairs=np.int64(300), m_neighbours=30.0)
        assert (config.n_pairs, config.m_neighbours) == (300, 30)
        assert type(config.n_pairs) is int and type(config.m_neighbours) is int
        with pytest.raises(ValueError):
            ChainConfig(0)
        with pytest.raises(ValueError):
            ChainConfig(10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(10, thinning=0)
        assert ChainConfig(10, burn_in=2, thinning=2).n_retained == 4

    def test_thinning_keeps_the_gibbs_engines_sweeps(self):
        # sweep m (1-based) is kept when m > burn_in and
        # (m - burn_in) % thinning == 0: sweeps 3, 6 and 9 of ten
        def chain(config):
            return run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                         config, np.random.default_rng(4),
                                         summaries=self.s, n_obs=self.n,
                                         lambda_sampler=self.stub, fix_tau=100.0)

        thinned = ChainConfig(10, burn_in=0, thinning=3)
        every = chain(ChainConfig(10)).states
        kept = chain(thinned).states
        assert kept.shape[0] == thinned.n_retained == 3
        np.testing.assert_array_equal(kept, every[[2, 5, 8]])

    def test_non_finite_predictor_aborts_with_location(self):
        bad = lambda phi, s_t, rng: np.full(4, np.inf)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="day 1, sweep 0"):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0),
                                  summaries=self.s, n_obs=self.n,
                                  lambda_sampler=bad, fix_tau=100.0)

    def test_fix_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0),
                                  summaries=self.s, n_obs=self.n,
                                  lambda_sampler=self.stub, fix_tau=0.0)

    @pytest.mark.parametrize("path", ["training", "lambda_sampler"])
    @pytest.mark.parametrize("bad", [0.0, -1e-6, np.nan, np.inf])
    def test_forced_bad_predictor_variance_raises(self, bad, path, monkeypatch):
        # the sweep checks q once per season and sweep, where it takes it
        # from the operator; a bad q from the second sweep on still raises
        original = SweepOperator.predictor_moments
        calls = []

        def moments(op, a, season):
            f_mean, q_diag = original(op, a, season)
            calls.append(season)
            if len(calls) > self.cal.n_days:
                q_diag = q_diag.copy()
                q_diag[2] = bad
            return f_mean, q_diag

        monkeypatch.setattr(SweepOperator, "predictor_moments", moments)
        kwargs = (dict(lambda_sampler=self.stub, fix_tau=100.0) if path == "lambda_sampler"
                  else {})
        with pytest.raises(ValueError, match="prior variances must be positive and finite"):
            run_state_space_gibbs(self.spec, self.cal,
                                  TrainingConfig(n_pairs=60, m_neighbours=30),
                                  ChainConfig(3), np.random.default_rng(0),
                                  summaries=self.s, n_obs=self.n, **kwargs)
        assert len(calls) == self.cal.n_days + 1

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, 0])
    def test_n_obs_must_be_positive_whole_sizes(self, bad):
        n = self.n.astype(float)
        n[1] = bad
        with pytest.raises(ValueError, match="n_obs"):
            run_state_space_gibbs(self.spec, self.cal, TrainingConfig(),
                                  ChainConfig(2), np.random.default_rng(0),
                                  summaries=self.s, n_obs=n,
                                  lambda_sampler=self.stub, fix_tau=100.0)


class TestSamplerGaussianCase:
    """Exact-conditional special case against the smoother oracle.

    With Gaussian summary observations and the conjugate predictor draw
    substituted, every sweep move is an exact conditional draw, so the
    chain must reproduce the linear-Gaussian posterior computed by the
    Kalman smoother.  This is the module's master correctness property.
    """

    def test_chain_means_match_smoother(self):
        t_len = 12
        rng = np.random.default_rng(5)
        cal = SeasonCalendar(n_days=t_len, summer_start=5, summer_end=9)
        spec = DlmSpec(c0_diag=np.full(36, 1.0))
        tau_true = 100.0
        g9 = block_transition()
        g = np.kron(g9, np.eye(4))
        theta = np.zeros((t_len + 1, 36))
        theta[0] = 0.1 * rng.normal(size=36)
        for t in range(1, t_len + 1):
            theta[t] = g @ theta[t - 1] + 0.1 * rng.normal(size=36)
        vdiag = np.array([0.05, 0.04, 0.10, 0.06]) ** 2
        n_obs = rng.integers(200, 1000, size=t_len)
        s_obs = np.empty((t_len, 4))
        for t in range(1, t_len + 1):
            fm = kron_obs(cal.is_summer(t))
            noise = np.sqrt(vdiag / n_obs[t - 1]) * rng.normal(size=4)
            s_obs[t - 1] = fm.T @ theta[t] + noise

        def conjugate(phi, s_t, rng_):
            var = 1.0 / (1.0 / phi.variance + phi.n_obs / vdiag)
            mean = var * (phi.mean / phi.variance + s_t * phi.n_obs / vdiag)
            return mean + np.sqrt(var) * rng_.standard_normal(4)

        out = run_state_space_gibbs(
            spec, cal, TrainingConfig(), ChainConfig(30000, 3000, 30),
            np.random.default_rng(1), summaries=s_obs, n_obs=n_obs,
            lambda_sampler=conjugate, fix_tau=tau_true)

        oracle = np.empty((t_len + 2, 36))
        rows = np.stack([observation_block(cal.is_summer(t))
                         for t in range(1, t_len + 1)])
        for v in range(4):
            idx = np.arange(v, 36, 4)
            oracle[:t_len + 1, idx] = block_kalman_smoother(
                s_obs[:, v], rows, vdiag[v] / n_obs, g9, 1.0 / tau_true,
                spec.m0[idx], spec.c0_diag[idx])
        oracle[t_len + 1] = g @ oracle[t_len]

        n_state = (t_len + 2) * 36
        means = out.mean()[:n_state].reshape(t_len + 2, 36)
        sd = out.states.std(axis=0)[:n_state].reshape(t_len + 2, 36)
        ess = out.ess[:n_state].reshape(t_len + 2, 36)
        z = np.abs(means - oracle) / (sd / np.sqrt(ess))
        assert np.nanmax(z) < 3.0
        assert np.nanmin(ess) > 10
        # with per-variable blocks and diagonal W the predictor
        # covariance is exactly diagonal
        assert out.diagnostics["q_off_diagonal_max"] == 0.0
        assert out.states.shape[1] == n_state + 36
        assert len(out.names) == out.states.shape[1]
        assert out.diagnostics["predictor_residuals"].shape == (t_len, 4)

    def test_sampled_precisions_concentrate_with_shared_truth(self):
        # free-precision smoke run on the same exact-conditional model:
        # the chain stays finite and the precisions stay positive
        t_len = 6
        rng = np.random.default_rng(6)
        cal = SeasonCalendar(n_days=t_len, summer_start=3, summer_end=4)
        spec = DlmSpec(c0_diag=np.full(36, 1.0))
        vdiag = np.full(4, 0.003 ** 2)
        g = np.kron(block_transition(), np.eye(4))
        theta = np.zeros((t_len + 1, 36))
        for t in range(1, t_len + 1):
            theta[t] = g @ theta[t - 1] + 0.03 * rng.normal(size=36)
        n_obs = np.full(t_len, 500)
        s_obs = np.empty((t_len, 4))
        for t in range(1, t_len + 1):
            fm = kron_obs(cal.is_summer(t))
            s_obs[t - 1] = fm.T @ theta[t] + np.sqrt(vdiag / 500) * rng.normal(size=4)

        def conjugate(phi, s_t, rng_):
            var = 1.0 / (1.0 / phi.variance + phi.n_obs / vdiag)
            mean = var * (phi.mean / phi.variance + s_t * phi.n_obs / vdiag)
            return mean + np.sqrt(var) * rng_.standard_normal(4)

        out = run_state_space_gibbs(
            spec, cal, TrainingConfig(), ChainConfig(400, 100),
            np.random.default_rng(2), summaries=s_obs, n_obs=n_obs,
            lambda_sampler=conjugate)
        assert np.all(np.isfinite(out.states))
        assert np.all(out.states[:, -36:] > 0)


class TestSamplerTrainingPath:
    def _simulate(self, seed=17):
        rng = np.random.default_rng(seed)
        t_len = 10
        cal = SeasonCalendar(n_days=t_len, summer_start=6, summer_end=11)
        g = np.kron(block_transition(), np.eye(4))
        theta = np.zeros((t_len + 1, 36))
        theta[0][:4] = [1.0, math.log(0.25), 0.2, math.log(0.62)]
        theta[0][32:36] = 0.03
        for t in range(1, t_len + 1):
            theta[t] = g @ theta[t - 1] + 1e-3 * rng.normal(size=36)
        observations = []
        for t in range(1, t_len + 1):
            fm = kron_obs(cal.is_summer(t))
            lam = fm.T @ theta[t]
            n_t = int(rng.integers(200, 1001))
            observations.append(gk_sample(n_t, unlink_parameters(lam), rng))
        return cal, observations

    def test_end_to_end_run(self):
        cal, observations = self._simulate()
        tcfg = TrainingConfig(n_pairs=400, m_neighbours=150)
        out = run_state_space_gibbs(DlmSpec(), cal, tcfg, ChainConfig(150, 50),
                                    np.random.default_rng(3),
                                    observations=observations)
        assert np.all(np.isfinite(out.states))
        assert np.all(out.states[:, -36:] > 0)
        res = out.diagnostics["predictor_residuals"]
        assert res.shape == (10, 4)
        # residuals live on the scale of the summary estimation noise
        assert np.abs(res).max() < 0.5
        assert np.median(np.abs(res)) < 0.15
        units = 400 + out.diagnostics["training_redraws"]
        assert out.timings.pre_sim_units == units
        assert out.timings.pre_fit_count == units
        assert out.timings.in_sim_units == 0.0

    def _short_chain(self, kernel=KernelSpec("epanechnikov"), config=ChainConfig(20, 5)):
        """A 6-day chain on an 80-pair training table, by default 20 sweeps."""
        rng = np.random.default_rng(33)
        cal = SeasonCalendar(n_days=6, summer_start=3, summer_end=5)
        g = np.kron(block_transition(), np.eye(4))
        theta = np.zeros((7, 36))
        theta[0][:4] = [1.0, math.log(0.25), 0.2, math.log(0.62)]
        for t in range(1, 7):
            theta[t] = g @ theta[t - 1] + 1e-3 * rng.normal(size=36)
        observations = [
            gk_sample(int(rng.integers(100, 400)),
                      unlink_parameters(kron_obs(cal.is_summer(t)).T @ theta[t]), rng)
            for t in range(1, 7)]
        return run_state_space_gibbs(DlmSpec(), cal,
                                     TrainingConfig(n_pairs=80, m_neighbours=40,
                                                    kernel=kernel),
                                     config, np.random.default_rng(34),
                                     observations=observations)

    def test_short_chain_pinned(self):
        # recorded with the draw that adds the resampled residual as it is
        out = self._short_chain()
        assert out.states.shape == (15, 324)
        assert digest(out.states) == "79fbdaf1cac84bae"
        # simulation and estimation are timed apart
        t = out.timings
        assert t.pre_sim_seconds > 0 and t.pre_fit_seconds > 0
        assert t.pre_sim_seconds != t.pre_fit_seconds

    def test_retained_chain_ess_pinned(self):
        # 100 kept sweeps, the fewest the closing ESS pass takes: the
        # chain and every column's ESS are pinned, and each ESS is the
        # one-column estimator's, bit for bit
        out = self._short_chain(config=ChainConfig(110, 10))
        assert out.states.shape == (100, 324)
        assert digest(out.states) == "03bb1441e3ba3fe6"
        assert digest(out.ess) == "317657a66e69d796"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one_d = [effective_sample_size(out.states[:, j]) for j in range(324)]
        np.testing.assert_array_equal(out.ess.view(np.uint64),
                                      np.array(one_d).view(np.uint64))

    def test_short_chain_uniform_kernel_pinned(self):
        # the uniform kernel gives every kept pair weight 1, so the
        # resampled pair is drawn uniformly among exactly m neighbours
        out = self._short_chain(KernelSpec("uniform"))
        assert out.states.shape == (15, 324)
        assert digest(out.states) == "8b72a0d9b46a2529"

    @pytest.mark.parametrize("kernel, oracle_digest",
                             [("epanechnikov", "e4ffb8fb562ce2f8"),
                              ("uniform", "3da64503b1c6f2c9")])
    def test_short_chain_matches_whitened_draw(self, kernel, oracle_digest,
                                               monkeypatch):
        # the whitening cancels up to rounding, so dropping it moves the
        # chain by rounding only; the oracle gives the whitened draw's
        # chains bit for bit
        new = self._short_chain(KernelSpec(kernel)).states
        monkeypatch.setattr("lfgibbs.statespace.sampler.sample_lambda_conditional",
                            whitened_draw)
        old = self._short_chain(KernelSpec(kernel)).states
        assert digest(old) == oracle_digest
        assert np.all(np.abs(new - old) <= 1e-6 * old.std(axis=0))

    def test_live_distance_is_the_full_embedding_distance(self, monkeypatch):
        # on every context a short chain visits, the distance over the 9
        # live coordinates is bit for bit the one over all 13
        seen = []

        def spy(phi, s_obs, ts, *args):
            seen.append((phi, ts))
            return sample_lambda_conditional(phi, s_obs, ts, *args)

        monkeypatch.setattr("lfgibbs.statespace.sampler.sample_lambda_conditional", spy)
        assert digest(self._short_chain().states) == "79fbdaf1cac84bae"
        assert len(seen) == 6 * 20
        for phi, ts in seen:
            live = scaled_distance(ts.live_embedded, phi.embed()[:9], ts.live_scaling)
            full = scaled_distance(ts.embedded, phi.embed(), ts.scaling)
            assert live.tobytes() == full.tobytes()

    def test_live_coordinates_are_the_public_embedding(self, monkeypatch):
        # the sweep builds each context from coordinates it caches per
        # sweep and per run; each day's distance query, and each context
        # after the chain has ended, are bit for bit the 9 live
        # coordinates the public constructor embeds
        seen, queries = [], []

        def spy(phi, *args):
            seen.append(phi)
            return sample_lambda_conditional(phi, *args)

        def spy_distance(a, b, scaling):
            queries.append(b.copy())
            return scaled_distance(a, b, scaling)

        monkeypatch.setattr("lfgibbs.statespace.sampler.sample_lambda_conditional", spy)
        monkeypatch.setattr(training, "scaled_distance", spy_distance)
        assert digest(self._short_chain().states) == "79fbdaf1cac84bae"
        assert len(seen) == len(queries) == 6 * 20

        def bits(a):
            return np.asarray(a, dtype=float).view(np.uint64)

        for phi, query in zip(seen, queries):
            public = PhiContext(phi.mean, phi.variance, phi.n_obs)
            np.testing.assert_array_equal(bits(query), bits(public.embed()[:9]))
            np.testing.assert_array_equal(bits(phi.embed()), bits(public.embed()))
            assert type(phi) is PhiContext and type(phi.n_obs) is int

    def test_outside_share_by_part_counts_each_context(self, monkeypatch):
        # the shares against a count of the visited contexts, one at a time
        seen = []

        def spy(phi, *args):
            seen.append(phi)
            return sample_lambda_conditional(phi, *args)

        monkeypatch.setattr("lfgibbs.statespace.sampler.sample_lambda_conditional", spy)
        cal, observations = self._simulate()
        s_obs = summarize_observations(observations)
        n_obs = np.array([len(d) for d in observations])
        box = PhiHypercube.from_observed(s_obs, n_obs)
        # a size range that leaves out the smallest day's sample size
        cube = PhiHypercube(box.f_low, box.f_high, n_low=box.n_low + 1, n_high=box.n_high)
        out = run_state_space_gibbs(
            DlmSpec(), cal, TrainingConfig(n_pairs=100, m_neighbours=50, hypercube=cube),
            ChainConfig(8, 2), np.random.default_rng(5), summaries=s_obs, n_obs=n_obs)
        parts = [[np.all((cube.f_low <= p.mean) & (p.mean <= cube.f_high)),
                  np.all((cube.q_low <= p.variance) & (p.variance <= cube.q_high)),
                  cube.n_low <= p.n_obs <= cube.n_high] for p in seen]
        inside = np.array(parts)
        outside = (~inside).sum(axis=0) / len(seen)
        assert out.diagnostics["phi_outside_by_part"] == dict(zip("fqn", outside))
        assert out.diagnostics["phi_outside_fraction"] == (~inside.all(axis=1)).sum() / len(seen)
        assert outside[2] == 0.1 and 0.0 < outside[0] < 1.0 and 0.0 < outside[1] < 1.0

    def test_out_of_envelope_fraction(self, tmp_path):
        cal, observations = self._simulate()
        s_obs = summarize_observations(observations)
        n_obs = np.array([len(d) for d in observations])

        def run(cube, n_iterations):
            tcfg = TrainingConfig(n_pairs=100, m_neighbours=50, hypercube=cube)
            return run_state_space_gibbs(DlmSpec(), cal, tcfg, ChainConfig(n_iterations, 2),
                                         np.random.default_rng(5), summaries=s_obs,
                                         n_obs=n_obs)

        # a hypercube one unit above the observed summaries in every
        # coordinate: no sweep context lies inside it
        box = PhiHypercube.from_observed(s_obs, n_obs)
        above = PhiHypercube(box.f_low + 1.0, box.f_high + 1.0, n_low=box.n_low,
                             n_high=box.n_high)
        assert run(above, 6).diagnostics["phi_outside_fraction"] == 1.0
        # the default box spans the observed summaries; the diagnostics
        # keep their shapes whatever the chain length, and the fraction
        # reaches the sidecar as one number
        shapes = []
        for n_iterations in (6, 30):
            out = run(None, n_iterations)
            assert 0.0 <= out.diagnostics["phi_outside_fraction"] < 1.0
            shapes.append({k: np.shape(v) for k, v in out.diagnostics.items()})
            save_chain(out, str(tmp_path / "chain.csv"), str(tmp_path / "chain.json"))
            with open(tmp_path / "chain.json") as fh:
                saved = json.load(fh)["diagnostics"]
            assert saved["phi_outside_fraction"] == out.diagnostics["phi_outside_fraction"]
            # the share by part: three numbers, whatever the chain length,
            # none above the combined share and together not below it
            parts = out.diagnostics["phi_outside_by_part"]
            assert saved["phi_outside_by_part"] == parts and sorted(parts) == ["f", "n", "q"]
            assert max(parts.values()) <= out.diagnostics["phi_outside_fraction"]
            assert out.diagnostics["phi_outside_fraction"] <= sum(parts.values())
            # the posterior-mean predictor path and its residuals reach the
            # sidecar too, sized by the days
            for key in ("predictor_means", "predictor_residuals"):
                assert saved[key] == out.diagnostics[key].tolist()
        assert shapes[0] == shapes[1]

    def test_summaries_then_run_reproducible(self):
        cal, observations = self._simulate()
        s_obs = summarize_observations(observations)
        assert s_obs.shape == (10, 4)
        n_obs = np.array([len(d) for d in observations])
        tcfg = TrainingConfig(n_pairs=300, m_neighbours=100)
        runs = [run_state_space_gibbs(DlmSpec(), cal, tcfg, ChainConfig(60, 20),
                                      np.random.default_rng(4),
                                      summaries=s_obs, n_obs=n_obs)
                for _ in range(2)]
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_day_failure_names_the_day(self):
        cal, observations = self._simulate()
        observations[4] = observations[4][:3]
        with pytest.raises(ArithmeticError, match="day 5"):
            summarize_observations(observations)
