"""Fixed-seed reference tables and the table builder's failure handling.

The digests pin theta and the summaries of tables of both table-based
models, and the retry count beside them.  They were recorded while every
row was still summarized on its own (numpy 2.4, x86-64), so they show that
summarizing a table in blocks leaves every row's bits unchanged.  Neither
1 027 nor 1 500 rows is a whole number of blocks.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from lfgibbs.abc import (
    _BLOCK_ROWS,
    SimulatorModel,
    _row_states,
    _spawn_prefix,
    simulate_reference_table,
)
from lfgibbs.models.hierarchical import HierarchicalSpec, hierarchical_model
from lfgibbs.models.mixture import MixtureSpec, mixture_model

SPEC = HierarchicalSpec()
SEED = 2026


def digest(table):
    h = hashlib.sha256()
    for a in (table.theta, table.summaries):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def flaky_hierarchy(p_fail):
    """The hierarchy whose simulator raises ArithmeticError with probability p_fail."""
    model = hierarchical_model(SPEC)
    simulate = model.simulate_data

    def flaky(state, rng):
        if rng.random() < p_fail:
            raise ArithmeticError("simulated failure")
        return simulate(state, rng)

    model.simulate_data = flaky
    return model


def tied_hierarchy(mu_above):
    """The hierarchy whose groups all read 0, 1, ..., L - 1 when mu > mu_above.

    Every group mean is then exactly (L - 1) / 2, so the group means have
    zero sample variance and the summary raises ZeroDivisionError.
    """
    model = hierarchical_model(SPEC)
    simulate = model.simulate_data

    def tied(state, rng):
        data = simulate(state, rng)
        if state[0] > mu_above:
            data[:] = np.arange(SPEC.l_obs)
        return data

    model.simulate_data = tied
    return model


HIERARCHY_PINS = {
    1: ("92cdfdbe9284bbe0", 0),
    7: ("b2d3c4b0ba4009a1", 0),
    1027: ("af634a86833813be", 0),
    20_000: ("88050051572ffc64", 0),
}

MIXTURE_PINS = {
    1: ("26d757d949f9a0c0", 0),
    7: ("3eafe60c834ea7a9", 0),
    20_000: ("bebd24e0d2ac4c18", 0),
}


class TestPinnedTables:
    @pytest.mark.parametrize("n", sorted(HIERARCHY_PINS))
    def test_hierarchy(self, n):
        table = simulate_reference_table(hierarchical_model(SPEC), n, seed=SEED)
        assert table.summaries.shape == (n, SPEC.dim_summary)
        assert (digest(table), table.retries) == HIERARCHY_PINS[n]

    @pytest.mark.parametrize("n", sorted(MIXTURE_PINS))
    def test_mixture(self, n):
        table = simulate_reference_table(mixture_model(MixtureSpec()), n, seed=SEED)
        assert (digest(table), table.retries) == MIXTURE_PINS[n]


def test_the_benchmark_hierarchy_table_keeps_its_bits():
    # the 20 000-row table of the benchmark's hier-local workload at its
    # seed 51, against the same table drawn with the prior row built by a
    # concatenation, as it was before
    spec = HierarchicalSpec(u_groups=10, l_obs=10)
    model = hierarchical_model(spec)

    def concatenated(rng):
        mu = rng.normal()
        tau_mu = rng.gamma(spec.alpha_mu, 1.0 / spec.nu_mu)
        tau_x = rng.gamma(spec.alpha_x, 1.0 / spec.nu_x)
        mu_u = rng.normal(mu, 1.0 / np.sqrt(tau_mu), size=spec.u_groups)
        return np.concatenate([[mu, tau_mu, tau_x], mu_u])

    seed = int(np.random.SeedSequence((51, 1)).generate_state(1)[0])
    table = simulate_reference_table(model, 20_000, seed)
    old = simulate_reference_table(dataclasses.replace(model, prior_sample=concatenated),
                                   20_000, seed)
    for a, b in ((table.theta, old.theta), (table.summaries, old.summaries)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert table.retries == old.retries


# two of the benchmark's table seeds (those of its seeds 1 and 7), and
# entropy of more words than the pool holds
ROW_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3, 1189033389, 369571992,
             2 ** 130 + 5, (3, 2 ** 40, 0, 9)]


class TestRowSeeds:
    """The rows' PCG64 states replay SeedSequence.spawn and PCG64 seeding."""

    @pytest.mark.parametrize("seed", ROW_SEEDS)
    def test_states_match_numpy(self, seed):
        n = 1028
        children = np.random.SeedSequence(seed).spawn(n)
        prefix = _spawn_prefix(np.random.SeedSequence(seed))
        states = [state for start in range(0, n, _BLOCK_ROWS)
                  for state in _row_states(prefix, start, min(start + _BLOCK_ROWS, n))]
        assert len(states) == n
        for i, child in enumerate(children):
            assert states[i] == np.random.PCG64(child).state, i
        # a block may start anywhere: the states depend on the row index alone
        assert list(_row_states(prefix, 1000, n)) == states[1000:]
        # what default_rng gives for a child seed is this PCG64 state
        for i in (0, 255, 256, n - 1):
            assert np.random.default_rng(children[i]).bit_generator.state == states[i]

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_as_seed_sequence(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence(seed)
        with pytest.raises(Exception) as got:
            simulate_reference_table(hierarchical_model(SPEC), 3, seed=seed)
        assert type(got.value) is type(expected.value)

    def test_too_many_rows(self):
        with pytest.raises(ValueError, match="at most 2"):
            simulate_reference_table(hierarchical_model(SPEC), 2 ** 32 + 1, seed=SEED)

    def test_rows_summarized_one_at_a_time_match_the_blocks(self):
        model = hierarchical_model(SPEC)
        batched = simulate_reference_table(model, 600, seed=SEED)
        model.batch_summary = None
        single = simulate_reference_table(model, 600, seed=SEED)
        np.testing.assert_array_equal(single.theta, batched.theta)
        np.testing.assert_array_equal(single.summaries, batched.summaries)


class TestForcedRetries:
    def test_draw_stage(self):
        table = simulate_reference_table(flaky_hierarchy(0.3), 1500, seed=SEED)
        assert (digest(table), table.retries) == ("82020c974ce15d35", 625)

    def test_summary_stage(self):
        n, mu_above = 1500, 2.0
        plain = simulate_reference_table(hierarchical_model(SPEC), n, seed=SEED)
        # a row whose first draw has mu above the cut ties and is redrawn;
        # every other row keeps its first draw
        tied_rows = np.flatnonzero(plain.theta[:, 0] > mu_above)
        assert any(0 < r % _BLOCK_ROWS < _BLOCK_ROWS - 1 for r in tied_rows)
        table = simulate_reference_table(tied_hierarchy(mu_above), n, seed=SEED)
        assert np.all(np.isfinite(table.summaries))
        assert np.all(table.theta[:, 0] <= mu_above)
        kept = np.setdiff1d(np.arange(n), tied_rows)
        np.testing.assert_array_equal(table.theta[kept], plain.theta[kept])
        np.testing.assert_array_equal(table.summaries[kept], plain.summaries[kept])
        assert table.retries >= len(tied_rows)
        assert (digest(table), table.retries) == ("9db13cb23d160440", 35)

    def test_always_failing_summary_aborts(self):
        with pytest.raises(ArithmeticError, match="11 times for table row 0"):
            simulate_reference_table(tied_hierarchy(-np.inf), 3, seed=SEED)

    def test_failures_of_both_stages_share_the_budget(self):
        model = tied_hierarchy(-np.inf)
        simulate = model.simulate_data

        def flaky(state, rng):
            if rng.random() < 0.5:
                raise ArithmeticError("simulated failure")
            return simulate(state, rng)

        model.simulate_data = flaky
        with pytest.raises(ArithmeticError, match="11 times for table row 0"):
            simulate_reference_table(model, 3, seed=SEED)


def wrong_width_model():
    return SimulatorModel(
        name="wrong-width",
        dim_theta=1,
        dim_summary=1,
        prior_sample=lambda rng: rng.normal(size=1),
        prior_logpdf=lambda th: 0.0,
        simulate_data=lambda th, rng: th,
        summary=lambda data: np.array([data[0], data[0]]),
    )


class TestSummaryShape:
    def test_scalar_summary(self):
        with pytest.raises(ValueError, match="summary has shape"):
            simulate_reference_table(wrong_width_model(), 3, seed=SEED)

    def test_batch_summary(self):
        model = wrong_width_model()
        model.summary = lambda data: np.asarray(data, dtype=float)
        model.batch_summary = lambda data: np.column_stack([data, data])
        with pytest.raises(ValueError, match="summary has shape"):
            simulate_reference_table(model, 3, seed=SEED)


class TestBatchSummaries:
    def test_hierarchy_matches_row_by_row(self):
        model = hierarchical_model(SPEC)
        rng = np.random.default_rng(SEED)
        data = np.stack([model.simulate_data(model.prior_sample(rng), rng)
                         for _ in range(50)])
        data[7] = np.arange(SPEC.l_obs)
        block = model.batch_summary(data)
        assert block.shape == (50, SPEC.dim_summary)
        for j in range(50):
            if j == 7:
                # the scalar summary rejects the tied data set; the block
                # marks it non-finite instead
                assert not np.all(np.isfinite(block[j]))
                with pytest.raises(ZeroDivisionError):
                    model.summary(data[j])
            else:
                np.testing.assert_array_equal(block[j], model.summary(data[j]))

    def test_mixture_is_the_identity(self):
        model = mixture_model(MixtureSpec())
        rng = np.random.default_rng(SEED)
        data = np.stack([model.simulate_data(model.prior_sample(rng), rng)
                         for _ in range(5)])
        np.testing.assert_array_equal(model.batch_summary(data), data)
        np.testing.assert_array_equal(model.summary(data[0]), data[0])
