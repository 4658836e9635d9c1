"""Tests for the experiment grid runner, its metrics, and the CLI."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfgibbs.cli as cli
import lfgibbs.experiments as experiments
from lfgibbs.abc import ReferenceTable, abc_importance, simulate_reference_table
from lfgibbs.diagnostics import split_rhat
from lfgibbs.experiments import (ExperimentConfig, ResultsBundle, coverage,
                                 credible_interval, relative_mse,
                                 run_experiment, summarize_directory,
                                 timing_table)
from lfgibbs.gibbs import GibbsConfig, run_local_gibbs
from lfgibbs.gk import GKParams, gk_sample
from lfgibbs.kernels import KernelSpec
from lfgibbs.models.hierarchical import (HierarchicalSpec, hierarchical_engine_specs,
                                         hierarchical_initial_state, hierarchical_model)
from lfgibbs.models.mixture import mixture_model


def small_hier_config(**overrides):
    base = dict(model="hierarchical", methods=["exact-gibbs", "global-gibbs"],
                seeds=[11, 11, 12], n_table=300, n_iterations=120, burn_in=20,
                m_neighbours=100,
                options={"u_groups": 3, "l_obs": 4, "global_m": 200})
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trips_through_json(self, tmp_path):
        config = small_hier_config(kernel=KernelSpec("epanechnikov", 2.5),
                                   nominal=0.8, track=["mu"])
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded.to_dict() == config.to_dict()
        assert loaded.kernel == config.kernel

    def test_infinite_bandwidth_serializes_as_null(self, tmp_path):
        config = small_hier_config()
        assert config.to_dict()["kernel"]["bandwidth"] is None
        config.save(tmp_path / "c.json")
        loaded = ExperimentConfig.load(tmp_path / "c.json")
        assert math.isinf(loaded.kernel.bandwidth)

    def test_unsupported_schema_version_rejected(self):
        payload = small_hier_config().to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig.from_dict(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = small_hier_config().to_dict()
        payload["n_tabel"] = 12
        with pytest.raises(ValueError, match="n_tabel"):
            ExperimentConfig.from_dict(payload)

    def test_unknown_option_key_rejected(self):
        with pytest.raises(ValueError, match="prelocalise"):
            small_hier_config(options={"u_groups": 3, "prelocalise": 10})

    def test_mixture_option_keys_differ_from_hierarchical(self):
        with pytest.raises(ValueError, match="u_groups"):
            ExperimentConfig(model="mixture", methods=["exact-gibbs"],
                             seeds=[1], options={"u_groups": 3})

    def test_invalid_model_method_pair_rejected(self):
        # the state-space model has no exact sweep; must fail up front
        with pytest.raises(ValueError, match="not available"):
            ExperimentConfig(model="statespace", methods=["exact-gibbs"],
                             seeds=[1])
        with pytest.raises(ValueError, match="not available"):
            ExperimentConfig(model="mixture", methods=["abc-pass"], seeds=[1])

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="banana", methods=["exact-gibbs"], seeds=[1])
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(model="mixture", methods=["gibbs"], seeds=[1])

    def test_value_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            small_hier_config(seeds=[])
        with pytest.raises(ValueError, match="methods"):
            small_hier_config(methods=[])
        with pytest.raises(ValueError, match="burn_in"):
            small_hier_config(n_iterations=10, burn_in=10)
        with pytest.raises(ValueError, match="nominal"):
            small_hier_config(nominal=1.0)
        with pytest.raises(ValueError, match="n_table"):
            small_hier_config(n_table=0)

    @pytest.mark.parametrize("bad", [1.5, math.nan, True])
    def test_seeds_must_be_whole(self, bad):
        # int() would make 1.5 and True duplicates of seed 1
        with pytest.raises(ValueError, match="seeds must be a whole number"):
            small_hier_config(seeds=[1, bad])

    @pytest.mark.parametrize("bad", [300.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n_table", "m_neighbours", "workers",
                                      "n_iterations", "burn_in", "thinning"])
    def test_sizes_must_be_whole(self, name, bad):
        payload = small_hier_config().to_dict()
        payload[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            ExperimentConfig.from_dict(payload)

    def test_sizes_take_numpy_integers(self):
        config = small_hier_config(n_table=np.int64(300), workers=np.int32(1))
        assert (config.n_table, config.workers) == (300, 1)

    # every whole-number option with a fraction and NaN, and the row
    # count prelocalize below 1 (-3 would drop the 3 farthest rows)
    @pytest.mark.parametrize("model,name,bad", [
        (model, name, bad) for model, name in [
            ("hierarchical", "u_groups"), ("hierarchical", "l_obs"),
            ("hierarchical", "global_m"), ("hierarchical", "prelocalize"),
            ("statespace", "n_days"), ("statespace", "summer_start"),
            ("statespace", "summer_end"), ("statespace", "n_low"),
            ("statespace", "n_high")]
        for bad in (3.5, math.nan)] + [
        ("hierarchical", "prelocalize", -3), ("hierarchical", "prelocalize", 0)])
    def test_whole_number_options_reject_fractions(self, model, name, bad):
        payload = {"model": model, "methods": ["local-gibbs"], "seeds": [1],
                   "options": {name: bad}}
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            ExperimentConfig.from_dict(payload)

    def test_whole_number_options_take_numpy_integers(self):
        config = ExperimentConfig.from_dict(
            {"model": "hierarchical", "methods": ["local-gibbs"], "seeds": [1],
             "options": {"u_groups": np.int64(3), "l_obs": np.int32(4),
                         "global_m": None, "pass_h_mu_u": 0.5}})
        assert config.options == {"u_groups": 3, "l_obs": 4, "global_m": None,
                                  "pass_h_mu_u": 0.5}
        assert type(config.options["u_groups"]) is int

    def test_track_defaults_by_model(self):
        assert small_hier_config().track == ["mu", "tau_mu", "tau_x"]
        mix = ExperimentConfig(model="mixture", methods=["exact-gibbs"],
                               seeds=[1])
        assert mix.track == ["theta_1", "theta_2"]

    def test_malformed_json_raises_value_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            ExperimentConfig.load(path)


class TestRelativeMse:
    def test_self_reference_is_one(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=30)
        assert relative_mse(est, est, 0.0) == 1.0

    def test_doubled_errors_give_four(self):
        truth = 2.0
        ref = truth + np.array([0.5, -0.25, 1.0, -0.75])
        est = truth + 2.0 * (ref - truth)
        assert relative_mse(est, ref, truth) == pytest.approx(4.0)

    def test_zero_reference_error_is_degenerate(self):
        truth = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="zero MSE"):
            relative_mse(truth + 0.1, truth, truth)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="matched"):
            relative_mse([1.0, 2.0], [1.0], 0.0)

    def test_per_replicate_truth_vector(self):
        truth = np.array([0.0, 10.0])
        est = truth + 1.0
        ref = truth + 0.5
        assert relative_mse(est, ref, truth) == pytest.approx(4.0)


class TestCoverage:
    def test_infinite_intervals_cover_everything(self):
        intervals = np.tile([-np.inf, np.inf], (25, 1))
        assert coverage(intervals, 3.7) == 1.0

    def test_zero_width_interval_at_truth_covers(self):
        # closed intervals: hitting the endpoint counts
        intervals = np.tile([1.5, 1.5], (20, 1))
        assert coverage(intervals, 1.5) == 1.0
        assert coverage(intervals, 1.5 + 1e-12) == 0.0

    def test_half_covering(self):
        intervals = np.array([[0.0, 1.0]] * 10 + [[2.0, 3.0]] * 10)
        assert coverage(intervals, 0.5) == 0.5

    def test_requires_enough_replicates(self):
        intervals = np.tile([0.0, 1.0], (19, 1))
        with pytest.raises(ValueError, match="20 replicates"):
            coverage(intervals, 0.5)

    def test_per_replicate_truth(self):
        intervals = np.tile([0.0, 1.0], (20, 1))
        truth = np.array([0.5] * 15 + [5.0] * 5)
        assert coverage(intervals, truth) == pytest.approx(0.75)

    def test_validation(self):
        intervals = np.tile([0.0, 1.0], (25, 1))
        with pytest.raises(ValueError, match="nominal"):
            coverage(intervals, 0.5, nominal=0.0)
        with pytest.raises(ValueError, match="rows"):
            coverage(np.zeros((25, 3)), 0.5)


class TestCredibleInterval:
    def test_matches_plain_quantiles(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        lo, hi = credible_interval(x, 0.9)
        assert lo == pytest.approx(np.quantile(x, 0.05))
        assert hi == pytest.approx(np.quantile(x, 0.95))

    def test_equal_weights_agree_with_unweighted(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=2000)
        lo_u, hi_u = credible_interval(x, 0.8)
        lo_w, hi_w = credible_interval(x, 0.8, np.ones_like(x))
        assert lo_w == pytest.approx(lo_u, abs=0.02)
        assert hi_w == pytest.approx(hi_u, abs=0.02)

    def test_point_mass_weighting(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        w = np.array([0.0, 0.0, 1.0, 0.0])
        lo, hi = credible_interval(x, 0.5, w)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            credible_interval(np.array([1.0]), 0.9)
        with pytest.raises(ValueError, match="nominal"):
            credible_interval(np.arange(5.0), 1.2)
        with pytest.raises(ValueError, match="weights"):
            credible_interval(np.arange(5.0), 0.9, np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="zero"):
            credible_interval(np.arange(5.0), 0.9, np.zeros(5))


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("hier_grid")
    bundle = run_experiment(small_hier_config(), out_dir=out)
    return out, bundle


@pytest.fixture(scope="module")
def rigged(tmp_path_factory):
    # a near-zero bandwidth kills every ABC weight, deterministically
    out = tmp_path_factory.mktemp("rigged")
    config = ExperimentConfig(
        model="mixture",
        methods=["exact-gibbs", "abc-importance", "abc-adjusted"],
        seeds=[3, 4], n_table=200, n_iterations=80, burn_in=10,
        m_neighbours=80, kernel=KernelSpec("epanechnikov", 1e-12))
    return out, run_experiment(config, out_dir=out)


@pytest.fixture(scope="module")
def cli_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    ExperimentConfig(
        model="hierarchical", methods=["exact-gibbs"], seeds=[7, 8],
        n_table=100, n_iterations=60, burn_in=10,
        options={"u_groups": 3, "l_obs": 4}).save(path)
    return path


class TestRunExperiment:
    def test_directory_layout(self, grid):
        out, bundle = grid
        for name in ("config.json", "truth.json", "cells.json", "summary.json"):
            assert (out / name).exists()
        chains = sorted(p.name for p in (out / "chains").iterdir())
        assert len(chains) == 12  # 2 methods x 3 replicates x (npy + json)
        assert "exact-gibbs__r0_seed11.npy" in chains
        assert bundle.failures == []
        assert len(bundle.rows) == 6

    def test_duplicate_seeds_give_bit_identical_chains(self, grid):
        out, _ = grid
        first = (out / "chains/global-gibbs__r0_seed11.npy").read_bytes()
        second = (out / "chains/global-gibbs__r1_seed11.npy").read_bytes()
        third = (out / "chains/global-gibbs__r2_seed12.npy").read_bytes()
        assert first == second
        assert first != third

    def test_summary_recomputes_byte_identically(self, grid):
        out, _ = grid
        before = (out / "summary.json").read_bytes()
        summarize_directory(out)
        assert (out / "summary.json").read_bytes() == before

    def test_rows_carry_estimates_and_intervals(self, grid):
        _, bundle = grid
        for row in bundle.rows:
            for name in ("mu", "tau_mu", "tau_x"):
                lo, hi = row["intervals"][name]
                assert lo <= row["means"][name] <= hi
            assert row["n_rows"] == 100
            assert not row["weighted"]

    def test_split_rhat_rebuilt_from_the_chain_files(self, grid, tmp_path):
        out = tmp_path / "copy"
        shutil.copytree(grid[0], out)
        (out / "summary.json").unlink()
        rows = summarize_directory(out)["rows"]
        cells = {cell["chain"]: cell for cell in json.loads((out / "cells.json").read_text())}
        for row, saved in zip(rows, json.loads((out / "summary.json").read_text())["rows"]):
            names = json.loads((out / cells[row["chain"]]["meta"]).read_text())["names"]
            rhat = split_rhat(np.load(out / row["chain"]))
            assert row["split_rhat"] == saved["split_rhat"] == {
                name: float(rhat[names.index(name)]) for name in ("mu", "tau_mu", "tau_x")}

    def test_truth_stored_per_seed(self, grid):
        _, bundle = grid
        assert set(bundle.truth) == {"11", "12"}
        assert set(bundle.truth["11"]) >= {"mu", "tau_mu", "tau_x"}

    def test_aggregates_include_relative_mse_against_exact(self, grid):
        _, bundle = grid
        rel = bundle.aggregates["relative_mse"]
        assert rel["exact-gibbs"]["mu"] == 1.0
        assert rel["global-gibbs"]["tau_x"] > 0.0

    def test_worker_pool_matches_sequential(self, grid, tmp_path):
        out, _ = grid
        run_experiment(small_hier_config(), out_dir=tmp_path, workers=2)
        for name in ("exact-gibbs__r0_seed11.npy", "global-gibbs__r2_seed12.npy"):
            assert ((tmp_path / "chains" / name).read_bytes()
                    == (out / "chains" / name).read_bytes())

    def test_missing_out_dir_rejected(self):
        with pytest.raises(ValueError, match="output directory"):
            run_experiment(small_hier_config())


class TestChainFiles:
    def test_weighted_cell_reads_back_bitwise(self, tmp_path):
        config = ExperimentConfig(model="mixture", methods=["abc-importance"], seeds=[3],
                                  n_table=300, n_iterations=50, burn_in=10)
        bundle = run_experiment(config, out_dir=tmp_path)
        (row,) = bundle.rows
        assert row["weighted"] and row["n_rows"] == 300
        # the weighted sidecar holds no per-column split R-hat
        assert row["split_rhat"] == dict.fromkeys(row["ess"])
        model = mixture_model(experiments._mixture_spec(config))
        table = simulate_reference_table(
            model, config.n_table, seed=experiments._table_seed(3, "abc-importance"))
        out = abc_importance(model, table, experiments._make_dataset(config, 3)["s_obs"],
                             config.kernel)
        expected = np.column_stack([out.samples.theta, out.samples.weights])
        body = np.load(tmp_path / row["chain"], allow_pickle=False)
        np.testing.assert_array_equal(body.view(np.uint64), expected.view(np.uint64))

    def test_text_chain_rejected_naming_its_file(self, grid, tmp_path):
        # a results directory written when chains were CSV text
        out = tmp_path / "old"
        shutil.copytree(grid[0], out)
        cells = json.loads((out / "cells.json").read_text())
        assert cells[0]["chain"] == "chains/exact-gibbs__r0_seed11.npy"
        names = json.loads((out / cells[0]["meta"]).read_text())["names"]
        old = out / cells[0]["chain"]
        np.savetxt(old.with_suffix(".csv"), np.load(old), delimiter=",",
                   header=",".join(names), comments="")
        old.unlink()
        cells[0]["chain"] = "chains/exact-gibbs__r0_seed11.csv"
        (out / "cells.json").write_text(json.dumps(cells))
        with pytest.raises(ValueError, match=r"exact-gibbs__r0_seed11\.csv.*\.npy files"):
            summarize_directory(out)
        assert cli.main(["summarize", "--out", str(out)]) == 2

    def test_chain_of_the_wrong_width_rejected(self, grid, tmp_path):
        out = tmp_path / "narrow"
        shutil.copytree(grid[0], out)
        path = out / "chains/global-gibbs__r1_seed11.npy"
        np.save(path, np.load(path)[:, :-1])
        with pytest.raises(ValueError, match="global-gibbs__r1_seed11.npy"):
            summarize_directory(out)


class TestFailureIsolation:
    def test_failed_cells_recorded_not_fatal(self, rigged):
        _, bundle = rigged
        assert len(bundle.failures) == 4
        assert len(bundle.rows) == 2
        assert {r["method"] for r in bundle.rows} == {"exact-gibbs"}
        for failure in bundle.failures:
            assert "ArithmeticError" in failure["error"]
            assert "weights are zero" in failure["error"]

    def test_failed_cells_leave_no_chain_files(self, rigged):
        out, _ = rigged
        names = {p.name for p in (out / "chains").iterdir()}
        assert not any(n.startswith("abc-") for n in names)

    def test_summary_flags_the_holes(self, rigged):
        out, _ = rigged
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["failures"]) == 4
        failed = {(f["method"], f["seed"]) for f in summary["failures"]}
        assert failed == {("abc-importance", 3), ("abc-importance", 4),
                          ("abc-adjusted", 3), ("abc-adjusted", 4)}


class TestAdjustedHierarchy:
    def test_adjusted_cells_run_with_dependent_summaries(self, tmp_path):
        # the mean of the group means and the mean of the group precisions
        # are exact linear combinations of the other summaries
        config = ExperimentConfig(model="hierarchical", methods=["abc-adjusted"],
                                  seeds=[1, 2, 3], n_table=300,
                                  options={"u_groups": 3, "l_obs": 4})
        bundle = run_experiment(config, out_dir=tmp_path)
        assert bundle.failures == []
        assert len(bundle.rows) == 3
        for cell in json.loads((tmp_path / "cells.json").read_text()):
            meta = json.loads((tmp_path / cell["meta"]).read_text())
            assert meta["diagnostics"]["zero_slope_summaries"] == [6, 8]


class TestMixtureLocal:
    def test_default_spec_local_cell_runs_dropping_columns(self, tmp_path):
        # kNN neighbourhoods of the default spec hold the signs constant,
        # so the interaction designs lose rank; the fit drops those columns
        config = ExperimentConfig(model="mixture", methods=["local-gibbs"], seeds=[0],
                                  n_table=20000, n_iterations=20, m_neighbours=500)
        bundle = run_experiment(config, out_dir=tmp_path)
        assert bundle.failures == []
        cell, = json.loads((tmp_path / "cells.json").read_text())
        health = json.loads((tmp_path / cell["meta"]).read_text())["diagnostics"]["fit_health"]
        assert set(health) == {"theta_1", "theta_2", "b_1", "b_2"}
        for name in ("theta_1", "theta_2"):
            assert health[name]["fits_dropping_columns"] > 0
            assert 0 < health[name]["most_columns_dropped"] < 26
            assert health[name]["logistic_not_converged"] == 0
        for name in ("b_1", "b_2"):
            assert health[name]["fits_dropping_columns"] == 0
            assert 0 <= health[name]["logistic_not_converged"] <= 20


class TestPrelocalize:
    def test_local_cell_runs_on_the_nearest_rows(self, tmp_path):
        # prelocalize=k keeps the k table rows nearest s_obs in the four
        # symmetric summaries, and local Gibbs runs on those alone
        k = 150
        config = ExperimentConfig(model="hierarchical", methods=["local-gibbs"], seeds=[3],
                                  n_table=300, n_iterations=40, burn_in=5, m_neighbours=100,
                                  options={"u_groups": 3, "l_obs": 4, "prelocalize": k})
        bundle = run_experiment(config, out_dir=tmp_path)
        assert bundle.failures == []
        spec = HierarchicalSpec(u_groups=3, l_obs=4)
        model = hierarchical_model(spec)
        dataset = experiments._make_dataset(config, 3)
        data, s_obs = dataset["data"], dataset["s_obs"]
        table = simulate_reference_table(model, 300,
                                         seed=experiments._table_seed(3, "local-gibbs"))
        d = np.linalg.norm(table.summaries[:, 6:10] - s_obs[6:10], axis=1)
        nearest = table.subset(np.argsort(d)[:k])
        config_k = GibbsConfig(n_iterations=40, initial=hierarchical_initial_state(spec, data),
                               burn_in=5, m_neighbours=100)

        def chain(tab):
            return run_local_gibbs(model, hierarchical_engine_specs(spec), tab, s_obs,
                                   config_k, experiments._chain_rng(3, "local-gibbs")).states

        body = np.load(tmp_path / bundle.rows[0]["chain"], allow_pickle=False)
        expected = chain(nearest)
        np.testing.assert_array_equal(body.view(np.uint64), expected.view(np.uint64))
        assert not np.array_equal(expected, chain(table))


class TestTimingTable:
    def test_counts_match_analytic_formulas(self, tmp_path):
        n, m = 600, 100
        config = ExperimentConfig(
            model="hierarchical",
            methods=["exact-gibbs", "global-gibbs", "local-gibbs", "abc-pass"],
            seeds=[5, 6], n_table=n, n_iterations=m, burn_in=10,
            m_neighbours=150, options={"u_groups": 3, "l_obs": 4})
        bundle = run_experiment(config, out_dir=tmp_path)
        assert bundle.failures == []
        rows = {r["method"]: r for r in timing_table(bundle)}
        # exact sweeps touch the simulator and the fitter not at all
        assert rows["exact-gibbs"]["pre_sim_units"] == 0.0
        assert rows["exact-gibbs"]["pre_fit_count"] == 0.0
        assert rows["exact-gibbs"]["in_fit_count"] == 0.0
        assert rows["exact-gibbs"]["in_sim_units"] == 0.0
        # fit-once engine: one table, one fit per estimated conditional
        assert rows["global-gibbs"]["pre_sim_units"] == float(n)
        assert rows["global-gibbs"]["pre_fit_count"] == 2.0
        assert rows["global-gibbs"]["in_fit_count"] == 0.0
        # per-sweep refits: two estimated conditionals per iteration
        assert rows["local-gibbs"]["pre_sim_units"] == float(n)
        assert rows["local-gibbs"]["in_fit_count"] == float(2 * m)
        # single-site ABC-MCMC: two fresh datasets per sweep, two at setup
        assert rows["abc-pass"]["pre_sim_units"] == 0.0
        assert rows["abc-pass"]["in_sim_units"] == float(2 * m)
        assert rows["abc-pass"]["setup_sim_units"] == 2.0

    def test_varying_counts_are_a_bug(self):
        def fake_row(method, pre):
            return {"method": method, "timings": {"pre_sim_units": pre}}

        config = small_hier_config()
        bundle = ResultsBundle(
            config=config, out_dir=".", failures=[], truth={}, aggregates={},
            rows=[fake_row("exact-gibbs", 0.0), fake_row("exact-gibbs", 1.0)])
        with pytest.raises(ValueError, match="varies"):
            timing_table(bundle)


class TestStatespaceCell:
    def test_runner_drives_the_trained_sampler(self, tmp_path):
        config = ExperimentConfig(
            model="statespace", methods=["local-gibbs"], seeds=[17],
            n_table=200, n_iterations=40, burn_in=10, m_neighbours=100,
            options={"n_days": 4, "summer_start": 2, "summer_end": 3,
                     "n_low": 200, "n_high": 400, "summer_step": 0.03})
        bundle = run_experiment(config, out_dir=tmp_path)
        assert bundle.failures == []
        (row,) = bundle.rows
        assert row["n_rows"] == 30
        body = np.load(tmp_path / row["chain"])
        assert body.shape == (30, (4 + 2) * 36 + 36)
        assert np.all(np.isfinite(body))
        truth = bundle.truth["17"]
        assert truth["summer_step"] == 0.03
        assert len(truth["theta_path"]) == 5


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # the package is imported from this checkout's src, whether or not
    # the caller's PYTHONPATH names it
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run([sys.executable, "-m", "lfgibbs.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


class TestCli:
    def test_run_and_summarize(self, cli_config_path, tmp_path):
        out = tmp_path / "res"
        result = run_cli("run", "--config", str(cli_config_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "summary.json").exists()
        assert str(out / "summary.json") in result.stdout
        again = run_cli("summarize", "--out", str(out))
        assert again.returncode == 0

    def test_run_seed_flag_overrides_seed_list(self, cli_config_path, tmp_path):
        out = tmp_path / "res"
        result = run_cli("run", "--config", str(cli_config_path),
                         "--seed", "99", "--out", str(out))
        assert result.returncode == 0, result.stderr
        chains = [p.name for p in (out / "chains").glob("*.npy")]
        assert chains == ["exact-gibbs__r0_seed99.npy"]

    def test_invalid_pair_exits_2_before_any_compute(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": 1, "model": "statespace",
            "methods": ["exact-gibbs"], "seeds": [1]}))
        out = tmp_path / "never"
        result = run_cli("run", "--config", str(bad), "--out", str(out))
        assert result.returncode == 2
        assert "not available" in result.stderr
        assert not out.exists()

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 2

    def test_missing_config_exits_2(self, tmp_path):
        result = run_cli("run", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "x"))
        assert result.returncode == 2

    def test_unknown_verb_exits_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_simulate_is_deterministic_under_seed(self, cli_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = run_cli("simulate", "--config", str(cli_config_path),
                             "--seed", "3", "--out", str(out))
            assert result.returncode == 0, result.stderr
        assert ((out_a / "table_seed3.npz").read_bytes()
                == (out_b / "table_seed3.npz").read_bytes())
        assert sorted(p.name for p in out_a.iterdir()) == ["table_seed3.npz"]
        config = ExperimentConfig.load(cli_config_path)
        model = hierarchical_model(experiments._hier_spec(config))
        table = ReferenceTable.from_npz(out_a / "table_seed3.npz",
                                        expected_fingerprint=model.fingerprint())
        expected = simulate_reference_table(model, config.n_table, seed=3)
        assert len(table) == 100
        for name in ("theta", "summaries", "weights"):
            np.testing.assert_array_equal(getattr(table, name).view(np.uint64),
                                          getattr(expected, name).view(np.uint64))
        assert (table.seed, table.retries, table.theta_names) == (
            3, expected.retries, expected.theta_names)

    def test_simulate_uses_the_mixture_options(self, tmp_path):
        tables = []
        for name, options in (("default", {}), ("omega", {"omega": 0.9})):
            path = tmp_path / f"{name}.json"
            ExperimentConfig(model="mixture", methods=["exact-gibbs"], seeds=[1],
                             n_table=50, options=options).save(path)
            result = run_cli("simulate", "--config", str(path),
                             "--seed", "3", "--out", str(tmp_path / name))
            assert result.returncode == 0, result.stderr
            config = ExperimentConfig.load(path)
            table = ReferenceTable.from_npz(
                tmp_path / name / "table_seed3.npz",
                expected_fingerprint=mixture_model(
                    experiments._mixture_spec(config)).fingerprint())
            tables.append(table.summaries)
        assert not np.array_equal(tables[0], tables[1])

    def test_simulate_statespace_writes_daily_observations(self, tmp_path):
        path = tmp_path / "ss.json"
        ExperimentConfig(
            model="statespace", methods=["local-gibbs"], seeds=[1],
            options={"n_days": 3, "n_low": 5, "n_high": 8}).save(path)
        result = run_cli("simulate", "--config", str(path),
                         "--seed", "2", "--out", str(tmp_path / "sim"))
        assert result.returncode == 0, result.stderr
        config = ExperimentConfig.load(path)
        _, observations, _ = experiments._statespace_setup(config, 2)
        with np.load(tmp_path / "sim/observations_seed2.npz") as days:
            assert sorted(days.files) == ["day_1", "day_2", "day_3"]
            for t, day in enumerate(observations, start=1):
                np.testing.assert_array_equal(days[f"day_{t}"].view(np.uint64),
                                              day.view(np.uint64))
        truth = json.loads((tmp_path / "sim/truth_seed2.json").read_text())
        assert len(truth["theta_path"]) == 4

    def test_fit_gk_recovers_parameters(self, tmp_path):
        rng = np.random.default_rng(9)
        sample = gk_sample(2000, GKParams(3.0, 1.0, 0.5, 0.3), rng)
        path = tmp_path / "sample.txt"
        np.savetxt(path, sample)
        out = tmp_path / "fit.json"
        result = run_cli("fit-gk", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        fitted = json.loads(out.read_text())
        assert fitted == json.loads(result.stdout)
        assert fitted["A"] == pytest.approx(3.0, abs=0.3)
        assert fitted["B"] == pytest.approx(1.0, abs=0.3)
        assert fitted["g"] == pytest.approx(0.5, abs=0.3)
        assert fitted["k"] == pytest.approx(0.3, abs=0.2)
        assert fitted["c"] == 0.8

    def test_fit_gk_small_sample_exits_2(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        result = run_cli("fit-gk", str(path))
        assert result.returncode == 2
        assert "at least" in result.stderr

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        # mapping check: anything arithmetic escaping a verb means code 3
        path = tmp_path / "data.txt"
        np.savetxt(path, np.linspace(0.0, 1.0, 50))

        def explode(data):
            raise ArithmeticError("did not converge")

        monkeypatch.setattr(cli, "estimate_gk", explode)
        assert cli.main(["fit-gk", str(path)]) == 3

        def explode_linalg(data):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(cli, "estimate_gk", explode_linalg)
        assert cli.main(["fit-gk", str(path)]) == 3
