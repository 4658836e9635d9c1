"""Tests for the approximate Gibbs engines and the ABC-MCMC comparator."""

import json
import math

import numpy as np
import pytest

from lfgibbs.abc import ReferenceTable, SimulatorModel, simulate_reference_table
from lfgibbs.diagnostics import split_rhat
from lfgibbs.gibbs import (
    ChainOutput,
    ConditionalSpec,
    GibbsConfig,
    PassParamSpec,
    TimingBreakdown,
    run_abc_pass,
    run_exact_gibbs,
    run_global_gibbs,
    run_local_gibbs,
    save_chain,
)
from lfgibbs.kernels import KernelSpec


RHO = 0.8


def bivariate_normal_specs():
    """Exact full conditionals of N(0, [[1, rho], [rho, 1]])."""
    sd = np.sqrt(1.0 - RHO ** 2)

    def cond(theta, member, rng):
        other = theta[1 - member]
        return RHO * other + sd * rng.standard_normal()

    return [ConditionalSpec(name="theta_1", members=(0,), exact=cond),
            ConditionalSpec(name="theta_2", members=(1,), exact=cond)]


def dummy_table(n=10, dim_theta=2, dim_s=1, seed=0):
    rng = np.random.default_rng(seed)
    return ReferenceTable(rng.normal(size=(n, dim_theta)),
                          rng.normal(size=(n, dim_s)), np.ones(n))


class TestSpecValidation:
    def test_spec_needs_feature_map_or_exact(self):
        with pytest.raises(ValueError, match="feature map"):
            ConditionalSpec(name="broken", members=(0,))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            ConditionalSpec(name="x", members=(0,), family="cubist",
                            exact=lambda t, m, r: 0.0)

    def test_duplicate_member_rejected(self):
        specs = [ConditionalSpec(name="a", members=(0,), exact=lambda t, m, r: 0.0),
                 ConditionalSpec(name="b", members=(0, 1), exact=lambda t, m, r: 0.0)]
        config = GibbsConfig(n_iterations=5, initial=np.zeros(2))
        with pytest.raises(ValueError, match="more than one"):
            run_exact_gibbs(specs, config, np.random.default_rng(0))

    def test_uncovered_coordinate_rejected(self):
        specs = [ConditionalSpec(name="a", members=(0,), exact=lambda t, m, r: 0.0)]
        config = GibbsConfig(n_iterations=5, initial=np.zeros(2))
        with pytest.raises(ValueError, match="no conditional"):
            run_exact_gibbs(specs, config, np.random.default_rng(0))

    def test_config_burn_in_bounds(self):
        with pytest.raises(ValueError):
            GibbsConfig(n_iterations=10, initial=np.zeros(1), burn_in=10)
        with pytest.raises(ValueError):
            GibbsConfig(n_iterations=10, initial=np.zeros(1), thinning=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.5])
    @pytest.mark.parametrize("name", ["n_iterations", "burn_in", "thinning"])
    def test_schedule_must_be_whole(self, name, bad):
        sizes = dict(n_iterations=10, burn_in=1, thinning=1)
        sizes[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            GibbsConfig(initial=np.zeros(1), **sizes)

    def test_schedule_takes_numpy_integers(self):
        config = GibbsConfig(n_iterations=np.int64(10), burn_in=np.int32(2),
                             thinning=np.uint8(2), initial=np.zeros(1))
        assert (config.n_iterations, config.burn_in, config.thinning) == (10, 2, 2)
        specs = [ConditionalSpec(name="a", members=(0,), exact=lambda t, m, r: 1.0)]
        out = run_exact_gibbs(specs, config, np.random.default_rng(0))
        assert out.states.shape == (4, 1)


class TestExactGibbs:
    def test_bivariate_normal_moments(self):
        config = GibbsConfig(n_iterations=6000, initial=np.zeros(2), burn_in=500)
        out = run_exact_gibbs(bivariate_normal_specs(), config,
                              np.random.default_rng(1))
        assert out.states.shape == (5500, 2)
        np.testing.assert_allclose(out.mean(), [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(np.var(out.states, axis=0), [1.0, 1.0], atol=0.12)
        corr = np.corrcoef(out.states.T)[0, 1]
        assert abs(corr - RHO) < 0.05
        assert np.all(out.ess >= 1.0)

    def test_retention_rule(self):
        # exact sampler returns the sweep index, so retained rows show
        # exactly which iterations were kept
        counter = {"m": 0}

        def stamp(theta, member, rng):
            if member == 0:
                counter["m"] += 1
            return float(counter["m"])

        specs = [ConditionalSpec(name="t", members=(0,), exact=stamp)]
        config = GibbsConfig(n_iterations=10, initial=np.zeros(1),
                             burn_in=3, thinning=2)
        out = run_exact_gibbs(specs, config, np.random.default_rng(0))
        assert config.n_retained == 3
        np.testing.assert_array_equal(out.states[:, 0], [5.0, 7.0, 9.0])

    def test_requires_exact_samplers(self):
        specs = [ConditionalSpec(name="t", members=(0,),
                                 feature_map_batch=lambda s, th, m: np.ones((len(s), 1)))]
        config = GibbsConfig(n_iterations=5, initial=np.zeros(1))
        with pytest.raises(ValueError, match="exact"):
            run_exact_gibbs(specs, config, np.random.default_rng(0))


class TestPureOverrideReduction:
    def test_all_engines_share_the_trajectory(self):
        specs = bivariate_normal_specs()
        config = GibbsConfig(n_iterations=200, initial=np.array([1.0, -1.0]))
        table = dummy_table()
        s_obs = np.zeros(1)

        exact = run_exact_gibbs(specs, config, np.random.default_rng(42))
        local = run_local_gibbs(None, specs, table, s_obs, config,
                                np.random.default_rng(42))
        glob = run_global_gibbs(None, specs, table, s_obs, config,
                                np.random.default_rng(42))
        np.testing.assert_array_equal(local.states, exact.states)
        np.testing.assert_array_equal(glob.states, exact.states)
        assert local.timings.in_fit_count == 0
        assert glob.timings.pre_fit_count == 0

    def test_pass_accept_all_replays_exact_gibbs(self):
        # uniform prior on a box, proposals equal to the prior conditional,
        # deterministic statistics: every Metropolis ratio is exactly one,
        # acceptance consumes no randomness, so the trajectory must be
        # bit-identical to the plain Gibbs sweep
        def draw(theta, member, rng):
            return 10.0 * rng.random() - 5.0

        gibbs_specs = [
            ConditionalSpec(name="a", members=(0,), exact=draw),
            ConditionalSpec(name="b", members=(1,), exact=draw),
        ]
        model = SimulatorModel(
            name="uniform-box",
            dim_theta=2,
            dim_summary=1,
            prior_sample=lambda rng: 10.0 * rng.random(2) - 5.0,
            prior_logpdf=lambda th: 0.0 if np.all(np.abs(th) <= 5.0) else -np.inf,
            simulate_data=lambda th, rng: th,
            summary=lambda data: np.zeros(1),
        )
        pass_specs = [
            PassParamSpec(
                name=nm, members=(d,),
                stat_indices=(0,),
                simulate_stats=lambda th, m, rng: np.zeros(1),
                obs_cost=1,
                proposal_sample=draw,
                proposal_logpdf=lambda th, m, v: 0.0,
                kernel=KernelSpec("uniform", np.inf),
            )
            for d, nm in ((0, "a"), (1, "b"))
        ]
        config = GibbsConfig(n_iterations=300, initial=np.zeros(2))
        exact = run_exact_gibbs(gibbs_specs, config, np.random.default_rng(9))
        mh = run_abc_pass(model, pass_specs, np.zeros(1), config,
                          np.random.default_rng(9))
        np.testing.assert_array_equal(mh.states, exact.states)
        assert mh.acceptance_rates == {"a": 1.0, "b": 1.0}


def linear_gaussian_setup(n_table=20000, seed=3):
    """theta ~ N(0, I2), s = theta_1 + theta_2 + N(0, 0.25); s_obs = 1.

    Posterior precision [[5,4],[4,5]] gives mean (4/9, 4/9).
    """
    model = SimulatorModel(
        name="linear-gaussian",
        dim_theta=2,
        dim_summary=1,
        prior_sample=lambda rng: rng.normal(size=2),
        prior_logpdf=lambda th: float(-0.5 * th @ th),
        simulate_data=lambda th, rng: th[0] + th[1] + 0.5 * rng.standard_normal(),
        summary=lambda data: np.array([data]),
    )
    table = simulate_reference_table(model, n_table, seed=seed)
    specs = [
        ConditionalSpec(name="theta_1", members=(0,),
                        feature_map_batch=lambda s, th, m: np.column_stack(
                            (np.ones(len(s)), s[:, 0], th[:, 1]))),
        ConditionalSpec(name="theta_2", members=(1,),
                        feature_map_batch=lambda s, th, m: np.column_stack(
                            (np.ones(len(s)), s[:, 0], th[:, 0]))),
    ]
    return model, table, specs


class TestGlobalGibbs:
    def test_gaussian_oracle_and_fit_count(self):
        model, table, specs = linear_gaussian_setup()
        config = GibbsConfig(n_iterations=2500, initial=np.zeros(2), burn_in=500,
                             kernel=KernelSpec("uniform", np.inf),
                             global_m=10000)
        out = run_global_gibbs(model, specs, table, np.array([1.0]), config,
                               np.random.default_rng(5))
        assert out.timings.pre_fit_count == 2
        assert out.timings.in_fit_count == 0
        post_mean = 4.0 / 9.0
        for j in range(2):
            mcse = np.sqrt(np.var(out.states[:, j]) / out.ess[j])
            assert abs(out.states[:, j].mean() - post_mean) < 3 * mcse

    def test_reproducible_under_seed(self):
        model, table, specs = linear_gaussian_setup(n_table=2000)
        config = GibbsConfig(n_iterations=300, initial=np.zeros(2),
                             kernel=KernelSpec("uniform", np.inf))
        a = run_global_gibbs(model, specs, table, np.array([1.0]), config,
                             np.random.default_rng(7))
        b = run_global_gibbs(model, specs, table, np.array([1.0]), config,
                             np.random.default_rng(7))
        np.testing.assert_array_equal(a.states, b.states)

    def test_all_zero_weights_error(self):
        model, table, specs = linear_gaussian_setup(n_table=500)
        config = GibbsConfig(n_iterations=10, initial=np.zeros(2),
                             kernel=KernelSpec("uniform", 1e-9))
        with pytest.raises(ArithmeticError, match="widen"):
            run_global_gibbs(model, specs, table, np.array([50.0]), config,
                             np.random.default_rng(0))

    def test_bad_observed_summary_rejected(self):
        model, table, specs = linear_gaussian_setup(n_table=500)
        config = GibbsConfig(n_iterations=10, initial=np.zeros(2), global_m=100)
        for s_obs in ([np.nan], [np.inf], [1.0, 1.0]):
            with pytest.raises(ValueError, match="s_obs"):
                run_global_gibbs(model, specs, table, np.array(s_obs), config,
                                 np.random.default_rng(0))

    def test_query_outside_the_kept_span_names_the_conditional(self):
        # the second summary is 2 on every row, so each fit drops its
        # column, and an observed value of 3 lies outside the fitted span
        model, table, _ = linear_gaussian_setup(n_table=500)
        summaries = np.column_stack([table.summaries, np.full(len(table), 2.0)])
        table = ReferenceTable(table.theta, summaries, table.weights)
        specs = [ConditionalSpec(name=f"theta_{j + 1}", members=(j,),
                                 feature_map_batch=lambda s, th, m: np.column_stack(
                                     (np.ones(len(s)), s, th[:, 1 - m])))
                 for j in range(2)]
        config = GibbsConfig(n_iterations=10, initial=np.zeros(2), global_weight_indices=(0,))
        out = run_global_gibbs(model, specs, table, np.array([1.0, 2.0]), config,
                               np.random.default_rng(0))
        assert [fit.dropped for fit in out.fits.values()] == [(2,), (2,)]
        with pytest.raises(ArithmeticError, match=r"'theta_1' at sweep 1: query lies "
                                                  r"outside the span .* columns \[2\]"):
            run_global_gibbs(model, specs, table, np.array([1.0, 3.0]), config,
                             np.random.default_rng(0))


class TestLocalGibbs:
    def test_gaussian_posterior_and_fit_count(self):
        model, table, specs = linear_gaussian_setup(n_table=5000)
        config = GibbsConfig(n_iterations=400, initial=np.zeros(2), burn_in=100,
                             kernel=KernelSpec("uniform"), m_neighbours=1000)
        out = run_local_gibbs(model, specs, table, np.array([1.0]), config,
                              np.random.default_rng(11))
        assert out.timings.in_fit_count == 400 * 2
        assert out.timings.pre_fit_count == 0
        post_mean = 4.0 / 9.0
        np.testing.assert_allclose(out.mean(), [post_mean, post_mean], atol=0.1)

    def test_localization_error_reports_context(self):
        model, table, specs = linear_gaussian_setup(n_table=3)
        config = GibbsConfig(n_iterations=5, initial=np.zeros(2),
                             kernel=KernelSpec("uniform"), m_neighbours=2)
        with pytest.raises(ArithmeticError, match="neighbour"):
            run_local_gibbs(model, specs, table, np.array([1.0]), config,
                            np.random.default_rng(0))

    def test_timing_fields_nonnegative(self):
        model, table, specs = linear_gaussian_setup(n_table=2000)
        config = GibbsConfig(n_iterations=120, initial=np.zeros(2),
                             kernel=KernelSpec("uniform"), m_neighbours=500)
        out = run_local_gibbs(model, specs, table, np.array([1.0]), config,
                              np.random.default_rng(13))
        t = out.timings
        assert t.in_fit_seconds >= 0 and t.sampler_seconds >= 0
        assert t.in_fit_count == 240

    def test_bad_observed_summary_rejected(self):
        model, table, specs = linear_gaussian_setup(n_table=500)
        config = GibbsConfig(n_iterations=10, initial=np.zeros(2), m_neighbours=100)
        for s_obs in ([np.nan], [np.inf], [1.0, 1.0]):
            with pytest.raises(ValueError, match="s_obs"):
                run_local_gibbs(model, specs, table, np.array(s_obs), config,
                                np.random.default_rng(0))


class TestAbcPass:
    @staticmethod
    def _gaussian_model():
        return SimulatorModel(
            name="pass-toy",
            dim_theta=2,
            dim_summary=2,
            prior_sample=lambda rng: rng.normal(size=2),
            prior_logpdf=lambda th: float(-0.5 * th @ th),
            simulate_data=lambda th, rng: th + rng.standard_normal(2),
            summary=lambda data: np.asarray(data, dtype=float),
        )

    def test_generation_accounting(self):
        model = self._gaussian_model()
        specs = [
            PassParamSpec(
                name=f"theta_{d + 1}", members=(d,),
                stat_indices=(d,),
                simulate_stats=lambda th, m, rng: np.array(
                    [th[m] + rng.standard_normal()]),
                obs_cost=5,
                proposal_sample=lambda th, m, rng: th[m] + rng.standard_normal(),
                proposal_logpdf=lambda th, m, v: float(-0.5 * (v - th[m]) ** 2),
                kernel=KernelSpec("uniform", np.inf),
            )
            for d in range(2)
        ]
        config = GibbsConfig(n_iterations=50, initial=np.zeros(2))
        out = run_abc_pass(model, specs, np.zeros(2), config,
                           np.random.default_rng(17), dataset_obs=10)
        # two classes, 5 observations each, 10 observations per dataset:
        # one dataset equivalent per sweep, one for initialization
        assert out.timings.setup_sim_units == pytest.approx(1.0)
        assert out.timings.in_sim_units == pytest.approx(50.0)
        assert out.timings.extra_sim_units == 0.0

    def test_zero_denominator_regenerates_once_then_rejects(self):
        model = self._gaussian_model()
        spec = PassParamSpec(
            name="stuck", members=(0,),
            stat_indices=(0,),
            # deterministic identity statistic: stays wherever theta is
            simulate_stats=lambda th, m, rng: np.array([th[m]]),
            obs_cost=1,
            proposal_sample=lambda th, m, rng: 0.0,  # proposes the origin
            proposal_logpdf=lambda th, m, v: 0.0,
            kernel=KernelSpec("uniform", 0.5),
        )
        other = PassParamSpec(name="fixed", members=(1,),
                              exact=lambda th, m, rng: 0.0)
        config = GibbsConfig(n_iterations=20, initial=np.array([100.0, 0.0]))
        out = run_abc_pass(model, [spec, other], np.zeros(2), config,
                           np.random.default_rng(19))
        # proposal statistic is near s_obs but the current one never is:
        # each sweep regenerates the denominator once and still rejects
        assert np.all(out.states[:, 0] == 100.0)
        assert out.timings.extra_sim_units == 20.0
        assert out.acceptance_rates["stuck"] == 0.0

    @staticmethod
    def _random_walk(name, member, stat_indices):
        return PassParamSpec(
            name=name, members=(member,), stat_indices=stat_indices,
            simulate_stats=lambda th, m, rng: np.array([th[m] + rng.standard_normal()]),
            obs_cost=1,
            proposal_sample=lambda th, m, rng: th[m] + rng.standard_normal(),
            proposal_logpdf=lambda th, m, v: float(-0.5 * (v - th[m]) ** 2),
            kernel=KernelSpec("uniform", 1.0))

    @pytest.mark.parametrize("s_obs", [[0.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_observed_summary_rejected(self, s_obs):
        # a NaN statistic would weigh every move 0 and reject them all
        specs = [self._random_walk(f"theta_{d + 1}", d, (d,)) for d in range(2)]
        config = GibbsConfig(n_iterations=5, initial=np.zeros(2))
        with pytest.raises(ValueError, match="s_obs"):
            run_abc_pass(self._gaussian_model(), specs, np.array(s_obs), config,
                         np.random.default_rng(31))

    def test_statistics_past_the_observed_summary_rejected(self):
        specs = [self._random_walk("theta_1", 0, (0,)),
                 self._random_walk("far", 1, {1: (1, 6)})]
        config = GibbsConfig(n_iterations=5, initial=np.zeros(2))
        with pytest.raises(ValueError, match="'far'.*s_obs"):
            run_abc_pass(self._gaussian_model(), specs, np.zeros(3), config,
                         np.random.default_rng(37))

    def test_acceptance_rate_between_zero_and_one(self):
        model = self._gaussian_model()
        specs = [
            PassParamSpec(
                name=f"theta_{d + 1}", members=(d,),
                stat_indices=(d,),
                simulate_stats=lambda th, m, rng: np.array(
                    [th[m] + rng.standard_normal()]),
                obs_cost=1,
                proposal_sample=lambda th, m, rng: th[m] + rng.standard_normal(),
                proposal_logpdf=lambda th, m, v: float(-0.5 * (v - th[m]) ** 2),
                kernel=KernelSpec("epanechnikov", 2.0),
            )
            for d in range(2)
        ]
        config = GibbsConfig(n_iterations=400, initial=np.zeros(2), burn_in=100)
        out = run_abc_pass(model, specs, np.zeros(2), config,
                           np.random.default_rng(23))
        for rate in out.acceptance_rates.values():
            assert 0.05 < rate < 0.95


class TestChainOutput:
    def test_save_chain_roundtrip(self, tmp_path):
        config = GibbsConfig(n_iterations=150, initial=np.zeros(2))
        out = run_exact_gibbs(bivariate_normal_specs(), config,
                              np.random.default_rng(29))
        chain_path = str(tmp_path / "chain.npy")
        json_path = str(tmp_path / "chain.json")
        save_chain(out, chain_path, json_path)
        body = np.load(chain_path, allow_pickle=False)
        assert body.dtype == np.float64
        np.testing.assert_array_equal(body.view(np.uint64), out.states.view(np.uint64))
        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["names"] == ["theta_1", "theta_2"]
        assert "sampler_seconds" in payload["timings"]
        # ESS and split R-hat per column, aligned with the names
        assert payload["ess"] == out.ess.tolist()
        assert payload["split_rhat"] == split_rhat(out.states).tolist()
        assert all(0.9 < r < 1.1 for r in payload["split_rhat"])

    def test_save_chain_keeps_every_bit(self, tmp_path):
        states = np.array([[-0.0], [np.nan], [np.inf], [-np.inf], [5e-324], [1.0 / 3.0]])
        out = ChainOutput(states=states, names=["x"], timings=TimingBreakdown())
        save_chain(out, str(tmp_path / "chain.npy"), str(tmp_path / "chain.json"))
        body = np.load(tmp_path / "chain.npy", allow_pickle=False)
        assert body.shape == (6, 1)
        np.testing.assert_array_equal(body.view(np.uint64), states.view(np.uint64))
        # too few rows for ESS and split R-hat: both read null, in valid JSON
        payload = json.loads((tmp_path / "chain.json").read_text(),
                             parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
        assert payload["ess"] == [None]
        assert payload["split_rhat"] == [None]

    @pytest.mark.parametrize("name", ["chain.csv", "chain", "chain.dat", "chain.npy"])
    def test_save_chain_writes_at_the_exact_path(self, tmp_path, name):
        out = ChainOutput(states=np.arange(6.0).reshape(3, 2), names=["a", "b"],
                          timings=TimingBreakdown())
        save_chain(out, str(tmp_path / name), str(tmp_path / "meta.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "meta.json"])
        np.testing.assert_array_equal(np.load(tmp_path / name), out.states)

    def test_sidecar_diagnostics_are_plain_json(self, tmp_path):
        out = ChainOutput(states=np.zeros((3, 1)), names=["x"], timings=TimingBreakdown(),
                          acceptance_rates={"x": math.nan},
                          diagnostics={"path": np.array([[1.5, np.nan], [np.inf, 2.0]]),
                                       "count": np.int64(3), "scale": np.float64(0.5)})
        save_chain(out, str(tmp_path / "c.npy"), str(tmp_path / "c.json"))
        payload = json.loads((tmp_path / "c.json").read_text(),
                             parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
        assert payload["diagnostics"] == {"path": [[1.5, None], [None, 2.0]],
                                          "count": 3, "scale": 0.5}
        assert payload["acceptance_rates"] == {"x": None}

    def test_ess_skipped_for_short_chains(self):
        out = ChainOutput(states=np.random.default_rng(0).normal(size=(50, 2)),
                          names=["a", "b"], timings=TimingBreakdown())
        assert np.all(np.isnan(out.ess))
