"""Behaviour every engine shares through the one sweep driver.

The digests pin fixed-seed chains of the engines and schedules that no
other test pins: exact Gibbs with burn-in and thinning, global Gibbs with
the flexible family, the ABC-MCMC comparator and a thinned state-space
chain with precision updates.  They were recorded before the engines'
sweep loops were folded into the driver (numpy 2.4, OpenBLAS, x86-64); a
different BLAS may round the fits differently.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from lfgibbs.abc import simulate_reference_table
from lfgibbs.gibbs import (ChainConfig, ConditionalSpec, GibbsConfig, run_abc_pass,
                           run_exact_gibbs, run_global_gibbs, run_local_gibbs,
                           save_chain)
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
)
from lfgibbs.statespace import DlmSpec, SeasonCalendar, TrainingConfig, run_state_space_gibbs

SPEC = HierarchicalSpec()
SYM = (20, 21, 22, 23)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def hierarchy():
    rng = np.random.default_rng(40)
    state = np.concatenate([[0.0, 1.0, 1.0], rng.normal(size=SPEC.u_groups)])
    data, summaries = hierarchical_simulate(SPEC, state, rng)
    model = hierarchical_model(SPEC)
    table = simulate_reference_table(model, 1500, seed=41)
    return model, table, data, summaries.as_array()


def stub_lambda(phi, s_t, rng):
    """Conjugate predictor draw under a unit observation variance."""
    var = 1.0 / (1.0 / phi.variance + phi.n_obs)
    mean = var * (phi.mean / phi.variance + s_t * phi.n_obs)
    return mean + np.sqrt(var) * rng.standard_normal(4)


def three_days():
    rng = np.random.default_rng(42)
    summaries = np.array([1.0, math.log(0.25), 0.2, math.log(0.62)]) \
        + 0.05 * rng.normal(size=(3, 4))
    return SeasonCalendar(n_days=3, summer_start=2, summer_end=3), summaries, \
        np.array([200, 300, 250])


def run_engine(engine, hierarchy, schedule, seed):
    """One chain of the named engine under the given schedule."""
    model, table, data, s_obs = hierarchy
    names = hierarchical_state_names(SPEC)
    config = GibbsConfig(n_iterations=schedule.n_iterations, burn_in=schedule.burn_in,
                         thinning=schedule.thinning,
                         initial=hierarchical_initial_state(SPEC, data),
                         m_neighbours=300, global_m=600, global_weight_indices=SYM,
                         global_scaling=DistanceScaling.identity(4))
    rng = np.random.default_rng(seed)
    if engine == "exact":
        return run_exact_gibbs(hierarchical_exact_specs(SPEC, data), config, rng,
                               names=names), names
    if engine == "local":
        return run_local_gibbs(model, hierarchical_engine_specs(SPEC), table, s_obs,
                               config, rng, names=names), names
    if engine == "global":
        return run_global_gibbs(model, hierarchical_engine_specs(SPEC), table, s_obs,
                                config, rng, names=names), names
    if engine == "abc-pass":
        specs, dataset_obs = hierarchical_pass_specs(SPEC, data)
        return run_abc_pass(model, specs, s_obs, config, rng, dataset_obs=dataset_obs,
                            names=names), names
    calendar, summaries, n_obs = three_days()
    out = run_state_space_gibbs(DlmSpec(), calendar, TrainingConfig(), schedule, rng,
                                summaries=summaries, n_obs=n_obs,
                                lambda_sampler=stub_lambda)
    return out, out.names


ENGINES = ("exact", "local", "global", "abc-pass", "state-space")


class TestSchedule:
    def test_gibbs_config_is_a_chain_config(self):
        config = GibbsConfig(10, 3, 2, initial=[0.0])
        assert isinstance(config, ChainConfig)
        assert config.n_retained == ChainConfig(10, 3, 2).n_retained == 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_retained_sweep_gives_an_empty_chain(self, engine, hierarchy):
        schedule = ChainConfig(10, burn_in=8, thinning=5)
        assert schedule.n_retained == 0
        out, names = run_engine(engine, hierarchy, schedule, seed=43)
        assert out.states.shape == (0, len(names))
        assert out.ess.shape == (len(names),)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_loop_time_is_booked(self, engine, hierarchy, tmp_path):
        out, _ = run_engine(engine, hierarchy, ChainConfig(6, 1, 2), seed=44)
        t = out.timings
        assert out.states.shape[0] == 2
        assert t.sampler_seconds > 0
        assert (t.in_sim_seconds > 0) == (engine == "abc-pass")
        assert (t.in_fit_seconds > 0) == (engine == "local")
        # localize time is a part of the sampler time, not carved out of it
        if engine == "local":
            assert 0 < t.localize_seconds <= t.sampler_seconds
        else:
            assert t.localize_seconds == 0
        save_chain(out, str(tmp_path / "chain.csv"), str(tmp_path / "chain.json"))
        with open(tmp_path / "chain.json") as fh:
            assert json.load(fh)["timings"]["localize_seconds"] == t.localize_seconds

    def test_non_finite_draw_names_its_conditional_and_sweep(self):
        calls = []

        def flaky(state, member, rng):
            calls.append(member)
            return math.nan if len(calls) == 3 else rng.normal()

        specs = [ConditionalSpec(name="steady", members=(0,),
                                 exact=lambda state, member, rng: rng.normal()),
                 ConditionalSpec(name="flaky", members=(1,), exact=flaky)]
        config = GibbsConfig(10, initial=[0.0, 0.0])
        with pytest.raises(ArithmeticError, match=r"conditional 'flaky' .* sweep 3$"):
            run_exact_gibbs(specs, config, np.random.default_rng(46))


class TestPinnedChains:
    def test_exact_burn_in_and_thinning(self, hierarchy):
        out, _ = run_engine("exact", hierarchy, ChainConfig(400, 100, 3), seed=45)
        assert out.states.shape == (100, 13)
        assert digest(out.states) == "9b13885c05846d1d"

    def test_global_flexible(self, hierarchy):
        model, table, data, s_obs = hierarchy
        config = GibbsConfig(n_iterations=80, initial=hierarchical_initial_state(SPEC, data),
                             burn_in=10, thinning=2, global_m=100,
                             global_weight_indices=SYM,
                             global_scaling=DistanceScaling.identity(4))
        out = run_global_gibbs(model, hierarchical_engine_specs(SPEC, "flexible"), table,
                               s_obs, config, np.random.default_rng(46))
        assert digest(out.states) == "f93d2c9c947945dc"

    def test_abc_pass(self, hierarchy):
        out, _ = run_engine("abc-pass", hierarchy, ChainConfig(300, 30, 3), seed=47)
        rates = [out.acceptance_rates[name] for name in ("tau_x", "mu_u")]
        assert digest(out.states, rates) == "5b20a94941b0715f"

    def test_state_space_thinned_with_precisions(self):
        calendar, summaries, n_obs = three_days()
        out = run_state_space_gibbs(DlmSpec(), calendar, TrainingConfig(),
                                    ChainConfig(50, 10, 2), np.random.default_rng(48),
                                    summaries=summaries, n_obs=n_obs,
                                    lambda_sampler=stub_lambda)
        assert out.states.shape == (20, len(out.names))
        assert digest(out.states) == "69801fc658c6ac64"
        assert digest(out.diagnostics["predictor_means"]) == "65866d67262a68c2"
