"""Fixed-seed reference tables and the table builder's failure handling.

The digests pin theta and the summaries of tables of both table-based
models, and the retry count beside them.  They were recorded while every
row was still summarized on its own (numpy 2.4, x86-64), so they show that
summarizing a table in blocks leaves every row's bits unchanged.  Neither
1 027 nor 1 500 rows is a whole number of blocks.
"""

import dataclasses
import hashlib
import mmap
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lfgibbs import abc
from lfgibbs.abc import (
    _BLOCK_ROWS,
    _MAX_RETRIES,
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
    # the replaced simulator must take the per-row path it exists to test
    model.block_draw = None
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
    model.block_draw = None
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
    old = simulate_reference_table(
        dataclasses.replace(model, prior_sample=concatenated, block_draw=None), 20_000, seed)
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

    @pytest.mark.parametrize("seed", [-1])
    def test_bad_seed_raises_as_seed_sequence(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence(seed)
        with pytest.raises(Exception) as got:
            simulate_reference_table(hierarchical_model(SPEC), 3, seed=seed)
        assert type(got.value) is type(expected.value)

    @pytest.mark.parametrize("name,value", [
        ("seed", None),   # OS entropy: a different table on every call
        ("seed", True),   # would read as seed 1
        ("seed", 1.5),
        ("seed", (1, 2)),
        ("n", 2.5),
        ("n", True),
        ("n", "7"),
    ])
    def test_arguments_that_are_not_whole_numbers(self, name, value):
        args = dict(n=3, seed=SEED)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            simulate_reference_table(hierarchical_model(SPEC), **args)

    def test_numpy_integers_are_plain_ints(self, tmp_path):
        table = simulate_reference_table(hierarchical_model(SPEC), np.int64(7),
                                         seed=np.uint64(SEED))
        assert (digest(table), table.retries) == HIERARCHY_PINS[7]
        assert type(table.seed) is int and table.seed == SEED
        table.to_npz(str(tmp_path / "table.npz"))
        assert abc.ReferenceTable.from_npz(str(tmp_path / "table.npz")).seed == SEED

    def test_too_many_rows(self):
        with pytest.raises(ValueError, match="at most 2"):
            simulate_reference_table(hierarchical_model(SPEC), 2 ** 32 + 1, seed=SEED)

    def test_rows_summarized_one_at_a_time_match_the_blocks(self):
        model = hierarchical_model(SPEC)
        batched = simulate_reference_table(model, 600, seed=SEED)
        model.batch_summary = model.block_draw = None
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


# --- blocks drawn in forked children ----------------------------------------


def drawn(model, n, cpus, monkeypatch, timeout=120):
    """The table drawn as if ``cpus`` CPUs were visible; a draw that takes
    over ``timeout`` seconds raises TimeoutError, and no child process
    outlives the call, whether it returns or raises."""
    def expire(signum, frame):
        raise TimeoutError(f"table not drawn in {timeout} s")

    monkeypatch.setattr(abc, "_cpu_count", lambda: cpus)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        return simulate_reference_table(model, n, seed=SEED)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []


def attempt_states(row):
    """The PCG64 state integers of a table row's first draw and its retries."""
    seq, states = np.random.SeedSequence(SEED, spawn_key=(row,)), set()
    for _ in range(_MAX_RETRIES + 1):
        states.add(np.random.PCG64(seq).state["state"]["state"])
        seq = seq.spawn(1)[0]
    return states


def wait_for(flags, slot):
    """Wait up to 30 s until flags[slot], set by another process, is nonzero."""
    deadline = time.monotonic() + 30.0
    while not flags[slot] and time.monotonic() < deadline:
        time.sleep(0.001)


def rigged_model(fail=(), fail_late=(), wide=(), exit_in_child=(), hang_in_child=(),
                 mark=(), hold=False, interrupt=False, error=ArithmeticError):
    """A model rigged at chosen rows, and a record shared with forked children.

    Theta is (id of the process that drew the row, a normal draw x), and
    the data and summary are x.  Every attempt at a row in ``fail`` raises
    ``error``; a row in ``fail_late`` does too, but while the table is
    drawn in parallel it first waits until another rigged row has fired.
    A row in ``wide`` has a two-wide summary, one in ``exit_in_child`` ends
    a forked child with ``os._exit(7)``, one in ``hang_in_child`` holds a
    forked child for ten minutes and one in ``mark`` is drawn as usual.  A
    rigged row that fires writes its process id to ``record[0]``.

    While a table is drawn in parallel, forked children wait to draw until
    this process has begun its first block, so that it claims one of the
    first blocks, one per process.  With ``hold`` it then waits until a
    rigged row has fired, so that the rigged rows past those first blocks
    are drawn by children; with ``interrupt`` it then raises
    KeyboardInterrupt.
    """
    # [pid of the last rigged row to fire, 1 once this process draws]
    record = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    parent = os.getpid()
    rows = {name: set().union(*map(attempt_states, r)) if r else set()
            for name, r in (("fail", fail), ("late", fail_late), ("wide", wide),
                            ("exit", exit_in_child), ("hang", hang_in_child),
                            ("mark", mark))}

    def prior_sample(rng):
        in_child = os.getpid() != parent
        if in_child:
            wait_for(record, 1)
        elif not record[1] and multiprocessing.active_children():
            record[1] = 1
            if hold:
                wait_for(record, 0)
            if interrupt:
                raise KeyboardInterrupt
        state = rng.bit_generator.state["state"]["state"]
        if state in rows["late"] and (in_child or record[1]):
            wait_for(record, 0)
        if state in rows["fail"] | rows["late"]:
            record[0] = os.getpid()
            raise error("rigged failure")
        if state in rows["exit"] | rows["hang"] and in_child:
            record[0] = os.getpid()
            if state in rows["exit"]:
                os._exit(7)
            time.sleep(600.0)
        if state in rows["wide"] | rows["mark"]:
            record[0] = os.getpid()
        x = np.inf if state in rows["wide"] else rng.normal()
        return np.array([os.getpid(), x])

    model = SimulatorModel(
        name="rigged", dim_theta=2, dim_summary=1, prior_sample=prior_sample,
        prior_logpdf=lambda th: 0.0, simulate_data=lambda th, rng: th[1:],
        summary=lambda data: np.repeat(data, 2) if np.isinf(data[0]) else data)
    return model, record


class UnpicklableError(Exception):
    def __init__(self, message, detail):
        super().__init__(message)


# the 5-block table of the failure tests; with ``hold``, rows past block 2
# are drawn by children at 2 or 3 workers
FIVE_BLOCKS = 5 * _BLOCK_ROWS
CHILD_ROW = 3 * _BLOCK_ROWS + 10


class TestWorkerCounts:
    """Any number of workers gives the table of the serial draw, bit for bit."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("model,n,pin", [
        (lambda: hierarchical_model(SPEC), 1027, HIERARCHY_PINS[1027]),
        (lambda: mixture_model(MixtureSpec()), 20_000, MIXTURE_PINS[20_000]),
        (lambda: flaky_hierarchy(0.3), 1500, ("82020c974ce15d35", 625)),
    ], ids=["hierarchy", "mixture", "forced-retries"])
    def test_pinned_tables(self, model, n, pin, cpus, monkeypatch):
        table = drawn(model(), n, cpus, monkeypatch)
        assert (digest(table), table.retries) == pin

    def test_children_draw_blocks(self, monkeypatch):
        # this process holds its first block until a child has drawn the
        # marked row, so two processes surely draw
        serial = drawn(rigged_model()[0], FIVE_BLOCKS, 1, monkeypatch)
        model, record = rigged_model(mark=[4 * _BLOCK_ROWS], hold=True)
        table = drawn(model, FIVE_BLOCKS, 2, monkeypatch)
        assert set(serial.theta[:, 0]) == {os.getpid()}
        assert record[0] != os.getpid()
        assert set(table.theta[:, 0]) == {os.getpid(), record[0]}
        for a, b in ((table.theta[:, 1], serial.theta[:, 1]),
                     (table.summaries, serial.summaries)):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_table_is_a_view_on_one_buffer(self, monkeypatch):
        table = drawn(hierarchical_model(SPEC), 600, 2, monkeypatch)
        assert table.theta.base is table.summaries.base
        assert isinstance(table.theta.base.base.obj, mmap.mmap)

    def test_nested_worker_draws_in_process(self, monkeypatch):
        monkeypatch.setattr(abc, "_cpu_count", lambda: 3)
        with ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
            worker, pids, pinned = pool.submit(_draw_in_a_worker).result(timeout=120)
        assert worker != os.getpid()
        assert pids == {worker}
        assert pinned == HIERARCHY_PINS[1027]


def same_table(got, expected):
    """Bit for bit the same theta, summaries and retry count."""
    for a, b in ((got.theta, expected.theta), (got.summaries, expected.summaries)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert got.retries == expected.retries


# a prior on tau_mu whose draws underflow to 0 in about 3 % of the rows,
# where the per-row draw raises and the block draw masks the row
UNDERFLOWING = HierarchicalSpec(u_groups=3, l_obs=4, alpha_mu=0.005)
# whose group means, at tau_mu near 0, overflow the summaries' squares: the
# draws must still raise no RuntimeWarning, in this process or a child
NO_WARNINGS = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestBlockDraws:
    """A model's block draw gives the table of its per-row draw, bit for bit."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("model,n", [
        (lambda: hierarchical_model(HierarchicalSpec()), 1027),
        (lambda: hierarchical_model(HierarchicalSpec(u_groups=10, l_obs=10)), 1500),
        pytest.param(lambda: hierarchical_model(UNDERFLOWING), 1500, marks=NO_WARNINGS),
        (lambda: mixture_model(MixtureSpec()), 1027),
    ], ids=["hierarchy", "benchmark-hierarchy", "underflowing-hierarchy", "mixture"])
    def test_equals_the_per_row_draw(self, model, n, cpus, monkeypatch):
        model = model()
        assert model.block_draw is not None
        per_row = drawn(dataclasses.replace(model, block_draw=None), n, 1, monkeypatch)
        same_table(drawn(model, n, cpus, monkeypatch), per_row)

    @NO_WARNINGS
    def test_underflowing_rows_take_the_per_row_path(self):
        model = hierarchical_model(UNDERFLOWING)
        raw = np.empty((2000, model.block_draw.width))
        rng = np.random.default_rng(SEED)
        for out in raw:
            model.block_draw.fill(rng, out)
        masked = model.block_draw.assemble(raw)[2]
        np.testing.assert_array_equal(masked, raw[:, 1] == 0)
        assert 10 < masked.sum() < 200
        assert simulate_reference_table(model, 1500, seed=SEED).retries > 10

    def test_a_block_draw_needs_a_batch_summary(self):
        model = dataclasses.replace(hierarchical_model(SPEC), batch_summary=None)
        with pytest.raises(ValueError, match="block draw needs a batch summary"):
            simulate_reference_table(model, 3, seed=SEED)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rows_the_assembly_masks(self, cpus, monkeypatch):
        # row CHILD_ROW is masked in a block a child draws; row 300 is
        # masked and its data tied, so that its batch summary is not finite
        n, tied_row = FIVE_BLOCKS, 300
        plain = hierarchical_model(SPEC)
        mus = simulate_reference_table(plain, n, seed=SEED).theta[[CHILD_ROW, tied_row], 0]
        model = hierarchical_model(SPEC)
        simulate, assemble = model.simulate_data, model.block_draw.assemble
        # [pid that assembled CHILD_ROW, 1 once this process assembles]
        record = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
        parent = os.getpid()

        def tied(state, rng):
            data = simulate(state, rng)
            if state[0] == mus[1]:
                data[:] = np.arange(SPEC.l_obs)
            return data

        def masking(raw):
            # children wait until this process has claimed its first
            # block, and this process waits until a child has masked
            # CHILD_ROW, so the row is drawn in a child
            if os.getpid() != parent:
                wait_for(record, 1)
            elif not record[1] and multiprocessing.active_children():
                record[1] = 1
                wait_for(record, 0)
            theta, data, masked = assemble(raw)
            if mus[0] in raw[:, 0]:
                record[0] = os.getpid()
            return theta, data, masked | np.isin(raw[:, 0], mus)

        model.simulate_data = tied
        model.block_draw = model.block_draw._replace(assemble=masking)
        per_row = drawn(dataclasses.replace(model, block_draw=None), n, 1, monkeypatch)
        table = drawn(model, n, cpus, monkeypatch)
        same_table(table, per_row)
        assert record[0] == os.getpid() if cpus == 1 else record[0] not in (0, os.getpid())
        # the tied row is redrawn once, from its child seq's first spawn
        assert table.retries == 1
        assert table.theta[tied_row, 0] != mus[1]
        assert table.theta[CHILD_ROW, 0] == mus[0]


def _draw_in_a_worker():
    """In a pool worker: its pid, the pids that drew a 3-block table, and
    the 1 027-row hierarchy table's digest and retries."""
    model = rigged_model()[0]
    pids = set(simulate_reference_table(model, 3 * _BLOCK_ROWS, SEED).theta[:, 0])
    table = simulate_reference_table(hierarchical_model(SPEC), 1027, SEED)
    return os.getpid(), pids, (digest(table), table.retries)


class TestFailuresInChildren:
    """A row drawn by a child fails as it does in the serial draw."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_retries_exhausted(self, cpus, monkeypatch):
        message = f"simulation failed {_MAX_RETRIES + 1} times for table row {CHILD_ROW}$"
        with pytest.raises(ArithmeticError, match=message) as serial:
            drawn(rigged_model(fail=[CHILD_ROW])[0], FIVE_BLOCKS, 1, monkeypatch)
        model, record = rigged_model(fail=[CHILD_ROW], hold=True)
        with pytest.raises(ArithmeticError, match=message) as got:
            drawn(model, FIVE_BLOCKS, cpus, monkeypatch)
        assert record[0] not in (0, os.getpid())
        for exc in (serial.value, got.value):
            assert type(exc.__cause__) is ArithmeticError
            assert str(exc.__cause__) == "rigged failure"

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_summary_shape(self, cpus, monkeypatch):
        message = r"^summary has shape \(2,\), expected \(1,\)$"
        with pytest.raises(ValueError, match=message):
            drawn(rigged_model(wide=[CHILD_ROW])[0], FIVE_BLOCKS, 1, monkeypatch)
        model, record = rigged_model(wide=[CHILD_ROW], hold=True)
        with pytest.raises(ValueError, match=message):
            drawn(model, FIVE_BLOCKS, cpus, monkeypatch)
        assert record[0] not in (0, os.getpid())

    def test_lowest_failed_row_wins(self, monkeypatch):
        # row 5 fails only after row 261 has, in whichever of the two
        # processes draws each
        rows = dict(fail=[_BLOCK_ROWS + 5], fail_late=[5])
        message = "for table row 5$"
        with pytest.raises(ArithmeticError, match=message):
            drawn(rigged_model(**rows)[0], FIVE_BLOCKS, 1, monkeypatch)
        model, record = rigged_model(**rows)
        with pytest.raises(ArithmeticError, match=message):
            drawn(model, FIVE_BLOCKS, 2, monkeypatch)
        assert record[0] != 0

    def test_other_errors_pass_through(self, monkeypatch):
        model, _ = rigged_model(fail=[CHILD_ROW], hold=True, error=KeyError)
        with pytest.raises(KeyError, match="rigged failure"):
            drawn(model, FIVE_BLOCKS, 2, monkeypatch)

    def test_unpicklable_error_is_reported(self, monkeypatch):
        model, _ = rigged_model(fail=[CHILD_ROW], hold=True,
                                error=lambda msg: UnpicklableError(msg, None))
        with pytest.raises(RuntimeError, match="table worker failed with UnpicklableError"):
            drawn(model, FIVE_BLOCKS, 2, monkeypatch)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_child_that_exits_names_its_block(self, cpus, monkeypatch):
        model, record = rigged_model(exit_in_child=[CHILD_ROW], hold=True)
        start = CHILD_ROW - CHILD_ROW % _BLOCK_ROWS
        message = (rf"exited with code 7 without reporting, drawing table rows "
                   rf"{start}\.\.{start + _BLOCK_ROWS - 1}$")
        with pytest.raises(RuntimeError, match=message):
            drawn(model, FIVE_BLOCKS, cpus, monkeypatch)
        assert record[0] not in (0, os.getpid())

    def test_interrupt_stops_every_child(self, monkeypatch):
        model, _ = rigged_model(fail=[CHILD_ROW], hold=True, interrupt=True)
        with pytest.raises(KeyboardInterrupt):
            drawn(model, FIVE_BLOCKS, 3, monkeypatch)

    def test_error_while_waiting_stops_every_child(self, monkeypatch):
        # the timeout's TimeoutError reaches this process while it waits
        # for the child that hangs
        model, record = rigged_model(hang_in_child=[CHILD_ROW], hold=True)
        with pytest.raises(TimeoutError):
            drawn(model, FIVE_BLOCKS, 2, monkeypatch, timeout=3)
        assert record[0] not in (0, os.getpid())


class TestBlockClaims:
    """The coordinator of the parallel draw, with a stand-in block drawer."""

    def test_every_block_drawn_once(self):
        n = 40 * _BLOCK_ROWS + 7
        drawn_by = np.frombuffer(mmap.mmap(-1, 8 * 41), dtype=np.int64)

        def draw(claim):
            blocks = 0
            while (start := claim()) < n:
                drawn_by[start // _BLOCK_ROWS] += 1
                blocks += 1
            return blocks

        assert abc._draw_in_processes(draw, n, 3) == 41
        assert multiprocessing.active_children() == []
        assert drawn_by.tolist() == [1] * 41

    def test_a_later_lower_failure_wins(self):
        # a child claims block 0 before this process claims block 1, and
        # block 1 fails first: [child claimed, block 0 claimed, block 1 failed]
        flags = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)
        parent = os.getpid()

        def draw(claim):
            if os.getpid() == parent:
                wait_for(flags, 0)
            while (start := claim()) < 3 * _BLOCK_ROWS:
                flags[0] |= os.getpid() != parent
                if start == 0:
                    flags[1] = 1
                    wait_for(flags, 2)
                    raise ValueError("block 0")
                if start == _BLOCK_ROWS:
                    wait_for(flags, 1)
                    flags[2] = 1
                    raise ValueError("block 1")
            return 0

        with pytest.raises(ValueError, match="^block 0$"):
            abc._draw_in_processes(draw, 3 * _BLOCK_ROWS, 2)
        assert multiprocessing.active_children() == []
