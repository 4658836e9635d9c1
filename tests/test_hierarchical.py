import math

import numpy as np
import pytest
from scipy import stats

from lfgibbs.abc import simulate_reference_table
from lfgibbs.gibbs import (
    GibbsConfig,
    PassParamSpec,
    run_abc_pass,
    run_exact_gibbs,
    run_global_gibbs,
    run_local_gibbs,
)
from lfgibbs.kernels import DistanceScaling
from lfgibbs.models.hierarchical import (
    HierarchicalSpec,
    hierarchical_engine_specs,
    hierarchical_exact_specs,
    hierarchical_initial_state,
    hierarchical_model,
    hierarchical_pass_specs,
    hierarchical_simulate,
    hierarchical_state_names,
    hierarchical_summaries,
    mu_conditional,
    mu_u_conditional,
    parameter_summaries,
    tau_mu_conditional,
    tau_x_conditional,
)

SPEC = HierarchicalSpec()


def exact_chain(data, m, rng, burn_in):
    """Exact Gibbs over (mu, tau_mu, tau_x, mu_1..mu_U) from the default start."""
    config = GibbsConfig(n_iterations=m, initial=hierarchical_initial_state(SPEC, data),
                         burn_in=burn_in)
    return run_exact_gibbs(hierarchical_exact_specs(SPEC, data), config, rng,
                           names=hierarchical_state_names(SPEC))


def synthetic_data(seed, tau_x=1.0):
    """Data from the experiment truth: mu = 0, tau_mu = 1, given tau_x."""
    rng = np.random.default_rng(seed)
    mu_u = rng.normal(0.0, 1.0, size=SPEC.u_groups)
    state = np.concatenate([[0.0, 1.0, tau_x], mu_u])
    data, _ = hierarchical_simulate(SPEC, state, rng)
    return data, mu_u


class TestSpec:
    def test_defaults(self):
        assert SPEC.u_groups == 10 and SPEC.l_obs == 10
        assert SPEC.dim_theta == 13
        assert SPEC.dim_summary == 24

    def test_rejects_bad_shapes_and_hyperparameters(self):
        with pytest.raises(ValueError):
            HierarchicalSpec(u_groups=1)
        with pytest.raises(ValueError):
            HierarchicalSpec(l_obs=0)
        with pytest.raises(ValueError):
            HierarchicalSpec(alpha_x=0.0)

    def test_state_names(self):
        names = hierarchical_state_names(SPEC)
        assert names[:3] == ["mu", "tau_mu", "tau_x"]
        assert names[3] == "mu_1" and names[-1] == "mu_10"


class TestSummaries:
    def test_hand_computed_example(self):
        data = np.array([[0.0, 2.0], [10.0, 14.0]])
        s = hierarchical_summaries(data)
        np.testing.assert_allclose(s.group_means, [1.0, 12.0])
        np.testing.assert_allclose(s.group_precisions, [0.5, 0.125])
        assert s.grand_mean == 6.5
        np.testing.assert_allclose(s.mean_precision, 1.0 / 60.5, rtol=1e-15)
        np.testing.assert_allclose(s.precision_mean, 0.3125, rtol=1e-15)
        np.testing.assert_allclose(s.precision_precision, 1.0 / 0.0703125,
                                   rtol=1e-15)

    def test_array_layout_interleaves_pairs(self):
        data = np.array([[0.0, 2.0], [10.0, 14.0]])
        arr = hierarchical_summaries(data).as_array()
        assert arr.shape == (8,)
        np.testing.assert_allclose(arr[:4], [1.0, 0.5, 12.0, 0.125])

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            hierarchical_summaries(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            hierarchical_summaries(np.zeros((5, 1)))

    def test_within_group_permutation_is_exactly_invariant(self):
        # integer data keeps every pre-division sum exact, so reordering
        # observations inside a group cannot change any statistic
        rng = np.random.default_rng(1)
        data = rng.integers(0, 7, size=(8, 8)).astype(float)
        base = hierarchical_summaries(data).as_array()
        shuffled = data.copy()
        for u in range(8):
            rng.shuffle(shuffled[u])
        np.testing.assert_array_equal(
            hierarchical_summaries(shuffled).as_array(), base)

    def test_group_permutation_relocates_pairs(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(8, 8))
        perm = rng.permutation(8)
        base = hierarchical_summaries(data)
        permuted = hierarchical_summaries(data[perm])
        np.testing.assert_array_equal(permuted.group_means,
                                      base.group_means[perm])
        np.testing.assert_array_equal(permuted.group_precisions,
                                      base.group_precisions[perm])
        sym = lambda s: s.as_array()[16:]
        np.testing.assert_allclose(sym(permuted), sym(base), rtol=1e-13)

    def test_parameter_summaries(self):
        mean, prec = parameter_summaries([1.0, 3.0])
        assert mean == 2.0 and prec == 0.5


class TestSimulate:
    def test_noiseless_limit_recovers_group_means(self):
        rng = np.random.default_rng(3)
        mu_u = rng.normal(size=SPEC.u_groups)
        state = np.concatenate([[0.0, 1.0, 1e12], mu_u])
        _, summ = hierarchical_simulate(SPEC, state, rng)
        np.testing.assert_allclose(summ.group_means, mu_u, atol=1e-5)

    def test_grand_mean_centers_on_truth(self):
        rng = np.random.default_rng(4)
        state = np.concatenate([[0.0, 1.0, 1.0], np.zeros(SPEC.u_groups)])
        draws = [hierarchical_simulate(SPEC, state, rng)[1].grand_mean
                 for _ in range(300)]
        # grand mean of 100 unit-variance points has sd 0.1
        assert abs(np.mean(draws)) < 0.025

    def test_rejects_nonpositive_precisions(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            hierarchical_simulate(
                SPEC, np.concatenate([[0.0, 1.0, 0.0], np.zeros(10)]), rng)
        with pytest.raises(ValueError):
            hierarchical_simulate(
                SPEC, np.concatenate([[0.0, -1.0, 1.0], np.zeros(10)]), rng)

    def test_deterministic_under_seed(self):
        state = np.concatenate([[0.0, 1.0, 1.0], np.zeros(SPEC.u_groups)])
        a, _ = hierarchical_simulate(SPEC, state, np.random.default_rng(6))
        b, _ = hierarchical_simulate(SPEC, state, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", [SPEC, HierarchicalSpec(u_groups=3, l_obs=7)])
    def test_data_are_the_broadcast_normal_draw(self, spec):
        # the data equal rng.normal(mu_u[:, None], 1/sqrt(tau_x), (U, L))
        # bit for bit, and leave the stream where that draw leaves it
        meta = np.random.default_rng(8)
        u = spec.u_groups
        for k in range(2000):
            tau_x = 10.0 ** meta.uniform(-8.5, 8.5)
            if k % 4 == 0:
                tau_x = meta.choice([1e-8, 1e8]) * meta.uniform(0.9, 1.1)
            mu_u = meta.normal(0.0, 10.0 ** meta.uniform(-3, 3), size=u)
            state = np.concatenate([[meta.normal(), meta.gamma(1.0), tau_x], mu_u])
            seed = int(meta.integers(2 ** 63))
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            data, _ = hierarchical_simulate(spec, state, rng)
            expected = old.normal(mu_u[:, None], 1.0 / math.sqrt(tau_x),
                                  size=(u, spec.l_obs))
            np.testing.assert_array_equal(data, expected)
            assert rng.random() == old.random()


class TestConditionals:
    def test_location_update_substitution(self):
        mean, var = mu_conditional(1.0, 1.0, 10)
        np.testing.assert_allclose([mean, var], [10.0 / 11.0, 1.0 / 11.0],
                                   rtol=1e-15)

    def test_location_update_vague_limit(self):
        # huge between-group precision pins mu to the group-mean average
        mean, var = mu_conditional(1e12, 2.0, 10)
        assert abs(mean - 2.0) < 1e-10 and var < 1e-12

    def test_between_precision_update(self):
        small = HierarchicalSpec(u_groups=2, l_obs=2)
        shape, rate = tau_mu_conditional(small, np.array([2.0, 2.0]), 1.0)
        assert shape == 2.0 and rate == 2.0

    def test_noise_precision_update(self):
        data = np.zeros((10, 10))
        shape, rate = tau_x_conditional(SPEC, data, np.zeros(10))
        assert shape == 51.0 and rate == 1.0
        shape, rate = tau_x_conditional(SPEC, data, np.ones(10))
        assert rate == 1.0 + 50.0

    def test_group_mean_update(self):
        mean, var = mu_u_conditional(0.0, 1.0, 1.0, 1.0, 10)
        np.testing.assert_allclose([mean, var], [10.0 / 11.0, 1.0 / 11.0],
                                   rtol=1e-15)
        # vanishing between-group precision decouples the group entirely
        mean, var = mu_u_conditional(5.0, 0.0, 2.0, 1.5, 10)
        np.testing.assert_allclose([mean, var], [1.5, 1.0 / 20.0], rtol=1e-15)

    def test_gamma_draw_parameterization(self):
        # the conditional is shape/rate; a scale/rate mix-up shifts the
        # mean by rate^2, which 20k draws detect easily
        data = np.zeros((10, 10))
        specs = hierarchical_exact_specs(SPEC, data)
        state = np.concatenate([[0.0, 1.0, 1.0], np.ones(10)])
        rng = np.random.default_rng(7)
        draws = [specs[2].exact(state, 2, rng) for _ in range(20_000)]
        shape, rate = tau_x_conditional(SPEC, data, np.ones(10))
        expect = shape / rate
        mcse = math.sqrt(shape / rate ** 2 / len(draws))
        assert abs(np.mean(draws) - expect) < 4 * mcse


class TestExactGibbs:
    def test_fixed_precision_submodel_matches_analytic_posterior(self):
        # fixing both precisions leaves a conjugate Gaussian model whose
        # posterior is available in closed form
        data, _ = synthetic_data(8)
        means = data.mean(axis=1)
        grand = means.mean()
        l, u = SPEC.l_obs, SPEC.u_groups
        tau_tilde = 1.0 / (1.0 + 1.0 / l)
        post_prec = 1.0 + u * tau_tilde
        mu_mean = u * tau_tilde * grand / post_prec
        mu_var = 1.0 / post_prec

        specs = hierarchical_exact_specs(SPEC, data, fixed_tau_mu=1.0,
                                         fixed_tau_x=1.0)
        config = GibbsConfig(n_iterations=20_000,
                             initial=hierarchical_initial_state(SPEC, data),
                             burn_in=1000)
        out = run_exact_gibbs(specs, config, np.random.default_rng(9),
                              names=hierarchical_state_names(SPEC))
        assert np.all(out.states[:, 1] == 1.0)
        assert np.all(out.states[:, 2] == 1.0)

        sd = out.states.std(axis=0, ddof=1)
        mcse = sd / np.sqrt(out.ess)
        assert abs(out.states[:, 0].mean() - mu_mean) < 3 * mcse[0]
        np.testing.assert_allclose(out.states[:, 0].var(ddof=1), mu_var,
                                   rtol=0.1)
        for g in range(u):
            target = (mu_mean + l * means[g]) / (1.0 + l)
            assert abs(out.states[:, 3 + g].mean() - target) < 3 * mcse[3 + g]

    def test_full_chain_behaves(self):
        data, _ = synthetic_data(10)
        out = exact_chain(data, 4000, np.random.default_rng(11), burn_in=500)
        assert out.states.shape == (3500, 13)
        assert np.all(out.states[:, 1:3] > 0)
        # true tau_x is 1; the posterior at 100 observations is well inside
        # this band
        assert 0.4 < out.states[:, 2].mean() < 2.5
        again = exact_chain(data, 4000, np.random.default_rng(11), burn_in=500)
        np.testing.assert_array_equal(out.states, again.states)


def concatenated_prior_sample(spec, rng):
    """The prior draw as it was written before, one concatenation per row."""
    mu = rng.normal()
    tau_mu = rng.gamma(spec.alpha_mu, 1.0 / spec.nu_mu)
    tau_x = rng.gamma(spec.alpha_x, 1.0 / spec.nu_x)
    mu_u = rng.normal(mu, 1.0 / math.sqrt(tau_mu), size=spec.u_groups)
    return np.concatenate([[mu, tau_mu, tau_x], mu_u])


class TestModelInterface:
    @pytest.mark.parametrize("spec", [SPEC, HierarchicalSpec(u_groups=3, l_obs=2, alpha_mu=2.5,
                                                             nu_mu=0.5, alpha_x=0.7, nu_x=3.0)])
    def test_prior_sample_fills_the_row_the_concatenation_gave(self, spec):
        model = hierarchical_model(spec)
        for seed in range(1000):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            state = model.prior_sample(rng)
            assert state.dtype == np.float64 and state.shape == (spec.dim_theta,)
            np.testing.assert_array_equal(state.view(np.uint64),
                                          concatenated_prior_sample(spec, old).view(np.uint64))
            assert rng.bit_generator.state == old.bit_generator.state

    def test_prior_sample_shape_and_support(self):
        model = hierarchical_model(SPEC)
        rng = np.random.default_rng(12)
        for _ in range(50):
            state = model.prior_sample(rng)
            assert state.shape == (13,)
            assert state[1] > 0 and state[2] > 0
            assert np.isfinite(model.prior_logpdf(state))

    def test_prior_logpdf_matches_reference_densities(self):
        model = hierarchical_model(SPEC)
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = model.prior_sample(rng)
            expect = (stats.norm.logpdf(state[0])
                      + stats.gamma.logpdf(state[1], a=1.0, scale=1.0)
                      + stats.gamma.logpdf(state[2], a=1.0, scale=1.0)
                      + stats.norm.logpdf(state[3:], state[0],
                                          1.0 / math.sqrt(state[1])).sum())
            np.testing.assert_allclose(model.prior_logpdf(state), expect,
                                       rtol=1e-12)

    def test_prior_logpdf_rejects_nonpositive_precisions(self):
        model = hierarchical_model(SPEC)
        state = np.concatenate([[0.0, -1.0, 1.0], np.zeros(10)])
        assert model.prior_logpdf(state) == -math.inf

    def test_simulate_and_summary_round_trip(self):
        model = hierarchical_model(SPEC)
        rng = np.random.default_rng(14)
        state = model.prior_sample(rng)
        data = model.simulate_data(state, rng)
        assert data.shape == (10, 10)
        assert model.summary(data).shape == (24,)

    def test_simulate_data_draws_what_hierarchical_simulate_draws(self):
        model = hierarchical_model(SPEC)
        state = model.prior_sample(np.random.default_rng(16))
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        data = model.simulate_data(state, rng_a)
        full, summaries = hierarchical_simulate(SPEC, state, rng_b)
        np.testing.assert_array_equal(data, full)
        np.testing.assert_array_equal(model.summary(data), summaries.as_array())
        assert rng_a.random() == rng_b.random()

    def test_reference_table_generation(self):
        table = simulate_reference_table(hierarchical_model(SPEC), 200, seed=15)
        assert table.theta.shape == (200, 13)
        assert table.summaries.shape == (200, 24)
        assert np.all(np.isfinite(table.summaries))


class TestEngineSpecs:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            hierarchical_engine_specs(SPEC, family="quadratic")

    def test_family_and_positivity_flags(self):
        linear = hierarchical_engine_specs(SPEC, family="linear")
        flexible = hierarchical_engine_specs(SPEC, family="flexible")
        assert [s.name for s in linear] == ["mu", "tau_mu", "tau_x", "mu_u"]
        assert linear[0].is_exact and linear[1].is_exact
        assert not linear[2].is_exact and not linear[3].is_exact
        assert linear[2].family == "linear" and not linear[2].positive_response
        assert flexible[2].family == "flexible" and flexible[2].positive_response
        assert not flexible[3].positive_response
        assert linear[3].members == tuple(range(3, 13))

    def test_noise_precision_features(self):
        spec = hierarchical_engine_specs(SPEC)[2]
        rng = np.random.default_rng(16)
        summ = rng.normal(size=(5, 24))
        states = np.column_stack([rng.normal(size=(5, 3)),
                                  rng.normal(size=(5, 10))])
        x = spec.feature_map_batch(summ, states, 2)
        assert x.shape == (5, 7)
        for i in range(5):
            mean, prec = parameter_summaries(states[i, 3:])
            np.testing.assert_allclose(
                x[i], np.concatenate([[1.0, mean, prec], summ[i, 20:24]]),
                rtol=1e-12)

    def test_group_mean_features(self):
        spec = hierarchical_engine_specs(SPEC)[3]
        rng = np.random.default_rng(17)
        summ = rng.normal(size=(4, 24))
        states = rng.normal(size=(4, 13))
        for member in (3, 7, 12):
            x = spec.feature_map_batch(summ, states, member)
            g = member - 3
            for i in range(4):
                np.testing.assert_allclose(
                    x[i], [1.0, states[i, 0], states[i, 1], states[i, 2],
                           summ[i, 2 * g], summ[i, 2 * g + 1]], rtol=1e-12)

    def test_feature_maps_exclude_own_coordinate(self):
        # perturbing the member's own coordinate must not move its features
        specs = hierarchical_engine_specs(SPEC)
        rng = np.random.default_rng(18)
        summ = rng.normal(size=(1, 24))
        state = rng.normal(size=(1, 13))
        for spec in specs[2:]:
            for member in spec.members:
                bumped = state.copy()
                bumped[0, member] += 10.0
                np.testing.assert_array_equal(
                    spec.feature_map_batch(summ, state, member),
                    spec.feature_map_batch(summ, bumped, member))


class TestLocalGibbsRecovery:
    def test_noise_precision_tracks_exact_chain(self):
        # full-protocol desk run: the localized sampler's tau_x posterior
        # mean should agree with the exact Gibbs answer within combined
        # Monte Carlo error at table scale
        data, _ = synthetic_data(19)
        s_obs = hierarchical_summaries(data).as_array()
        model = hierarchical_model(SPEC)
        table = simulate_reference_table(model, 10_000, seed=20)

        # pre-localize on the symmetric statistics, then localize per sweep
        d = np.linalg.norm(table.summaries[:, 20:24] - s_obs[20:24], axis=1)
        keep = np.argsort(d)[:5000]
        local_table = table.subset(keep)

        config = GibbsConfig(n_iterations=2000,
                             initial=hierarchical_initial_state(SPEC, data),
                             burn_in=200, m_neighbours=500)
        out = run_local_gibbs(model, hierarchical_engine_specs(SPEC),
                              local_table, s_obs, config,
                              np.random.default_rng(21),
                              names=hierarchical_state_names(SPEC))
        exact = exact_chain(data, 20_000, np.random.default_rng(22), burn_in=1000)

        def mcse(chain, j):
            return chain.states[:, j].std(ddof=1) / math.sqrt(chain.ess[j])

        err = abs(out.states[:, 2].mean() - exact.states[:, 2].mean())
        band = 3 * math.hypot(mcse(out, 2), mcse(exact, 2))
        assert err < max(band, 0.15)
        assert out.timings.in_fit_count == 2 * 2000


class TestGlobalGibbsRecovery:
    def test_flexible_run_is_sane_and_counts_fits(self):
        data, _ = synthetic_data(23)
        s_obs = hierarchical_summaries(data).as_array()
        model = hierarchical_model(SPEC)
        table = simulate_reference_table(model, 4000, seed=24)
        config = GibbsConfig(n_iterations=1500,
                             initial=hierarchical_initial_state(SPEC, data),
                             burn_in=200, global_m=2000,
                             global_weight_indices=(20, 21, 22, 23),
                             global_scaling=DistanceScaling.identity(4))
        out = run_global_gibbs(model, hierarchical_engine_specs(SPEC, "flexible"),
                               table, s_obs, config, np.random.default_rng(25),
                               names=hierarchical_state_names(SPEC))
        assert out.timings.pre_fit_count == 2
        assert out.timings.in_fit_count == 0
        # residual resampling is not truncated at zero, so a few negative
        # noise-precision draws are legitimate; the bulk must stay positive
        assert np.mean(out.states[:, 2] > 0) > 0.9
        assert 0.2 < out.states[:, 2].mean() < 4.0


class TestPassSpecs:
    def test_dataset_accounting(self):
        data, _ = synthetic_data(26)
        specs, dataset_obs = hierarchical_pass_specs(SPEC, data)
        assert dataset_obs == 100
        config = GibbsConfig(n_iterations=50,
                             initial=hierarchical_initial_state(SPEC, data))
        out = run_abc_pass(hierarchical_model(SPEC), specs,
                           hierarchical_summaries(data).as_array(), config,
                           np.random.default_rng(27), dataset_obs=dataset_obs)
        # per sweep: ten group updates at 10 observations plus one noise
        # precision update at 100, i.e. two dataset equivalents
        assert out.timings.in_sim_units == 2 * 50
        assert out.timings.setup_sim_units == 2.0

    def test_acceptance_rates_and_kernel_diagnostics(self):
        # single-replicate rates scatter widely (the study averages them);
        # this only pins the operating point's order of magnitude
        data, _ = synthetic_data(28)
        specs, dataset_obs = hierarchical_pass_specs(SPEC, data)
        config = GibbsConfig(n_iterations=600,
                             initial=hierarchical_initial_state(SPEC, data),
                             burn_in=100)
        out = run_abc_pass(hierarchical_model(SPEC), specs,
                           hierarchical_summaries(data).as_array(), config,
                           np.random.default_rng(29), dataset_obs=dataset_obs)
        assert 0.02 < out.acceptance_rates["mu_u"] < 0.65
        assert 0.02 < out.acceptance_rates["tau_x"] < 0.65
        assert np.all(out.states[:, 2] > 0)
        kernels = out.diagnostics["kernels"]
        assert kernels["mu_u"] == {"kernel": "uniform", "bandwidth": 0.5,
                                   "scales": [1.0, 1.0]}
        assert kernels["tau_x"]["bandwidth"] == 2.0

    def test_all_exact_classes_replay_exact_gibbs(self):
        data, _ = synthetic_data(30)
        exact_specs = hierarchical_exact_specs(SPEC, data)
        as_pass = [PassParamSpec(name=s.name, members=s.members, exact=s.exact)
                   for s in exact_specs]
        config = GibbsConfig(n_iterations=300,
                             initial=hierarchical_initial_state(SPEC, data))
        reference = run_exact_gibbs(exact_specs, config,
                                    np.random.default_rng(31))
        replay = run_abc_pass(hierarchical_model(SPEC), as_pass,
                              hierarchical_summaries(data).as_array(), config,
                              np.random.default_rng(31), dataset_obs=100)
        np.testing.assert_array_equal(reference.states, replay.states)
        assert replay.timings.in_sim_units == 0.0
