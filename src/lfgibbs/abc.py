"""Reference tables and kernel-weighted ABC.

A simulator model bundles the prior, the data generator and the summary
map, optionally with a vectorized form of the summary map and a block
draw.  ``simulate_reference_table`` draws from the prior the (parameter,
summary) pairs reused by every downstream regression.  Row i draws its
parameter and data on ``PCG64`` seeded by the i-th child of
``SeedSequence(seed)``; the rows' PCG64 states are computed in one numpy
pass per block, replaying SeedSequence's hashing and PCG64's seeding, and
the rows are drawn on one reused Generator.  A failed row is retried from
``spawn(1)[0]`` of the seq that failed.  A model with a batch summary then
has its rows summarized in blocks, one call per block, which leaves every
row bit for bit as drawing and summarizing it alone would.

A model with a block draw (``BlockDraw``) draws each row's raw variates
on the row's own stream, the same bits as ``prior_sample`` followed by
``simulate_data`` consume there, and turns a whole block of them into
parameters and data in one vectorized assembly.  The rows the assembly
masks, where the per-row draw would raise, take the per-row path.  A
model whose draw functions are replaced must clear its block draw, as one
whose summary is replaced must clear its batch summary.

The blocks are the unit of parallel work: one process per CPU the process
may use claims them in turn from a shared counter, the parent among them
and the others forked for the call, and writes its rows into one shared
buffer.  A block's rows depend on the row indices alone, never on which
process drew them or in what order, so every split gives the same table
bit for bit.  A table is stored in one format, ``to_npz``, whose
fingerprint ``from_npz`` checks against the model that reads it.
``abc_importance`` turns a table into a kernel-weighted posterior sample and
``regression_adjust`` applies the standard linear post-adjustment.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import multiprocessing
import numbers
import os
import pickle
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from lfgibbs.kernels import DistanceScaling, KernelSpec, localize, squared_scaled_distance
from lfgibbs.regression import fit_weighted_linear

__all__ = [
    "BlockDraw",
    "SimulatorModel",
    "ReferenceTable",
    "AbcOutput",
    "simulate_reference_table",
    "abc_importance",
    "regression_adjust",
]

_MAX_RETRIES = 10
# rows per batch-summary call: bounds the stacked data held at once.  A
# 256-row block of the 10 x 10 hierarchy is 200 kB and stays in cache;
# 1 024-row blocks summarized no faster and, building a 20 000-row table,
# held 3 MB more at the peak.
_BLOCK_ROWS = 256


def _default_names(dim: int) -> List[str]:
    """theta_1..theta_dim, the names of unnamed parameter columns."""
    return [f"theta_{d + 1}" for d in range(dim)]


def _whole_number(value, name: str) -> int:
    """``value`` as an int; a ValueError naming it unless finite and whole.

    A bool is not a number here: ``True`` would silently read as 1.
    """
    if type(value) is int:
        return value
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


class BlockDraw(NamedTuple):
    """A model's table rows drawn one by one and assembled by block.

    ``fill(rng, out)`` writes one row's raw variates into ``out``, a
    writable float row of ``width`` values, drawing on rng the same
    variates, in the same order, as ``prior_sample`` and then
    ``simulate_data`` draw there.  ``assemble(raw)`` maps a (rows, width)
    block of filled rows to the rows' theta, shape (rows, dim_theta), their
    data stacked along a new first axis in a new writable array, and a
    boolean mask of the rows it cannot produce: those where the per-row
    draw would raise.  Every unmasked row must equal, bit for bit, what
    ``prior_sample`` and ``simulate_data`` give on the row's stream.
    """

    width: int
    fill: Callable[[np.random.Generator, np.ndarray], None]
    assemble: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class SimulatorModel:
    """Prior, simulator and summary map for one inference problem.

    ``simulate_data`` may raise to signal a failed simulation; table
    generation retries such draws with fresh sub-seeds.  ``spec`` is the
    model configuration (for example a frozen spec dataclass); its repr
    enters the fingerprint, so tables built under different settings of
    the same model are told apart.

    ``batch_summary``, when set, maps data sets stacked along a new first
    axis, shape (rows, *data_shape), to their (rows, dim_summary)
    summaries.  Its output must equal stacking ``summary`` of each data set
    row by row, bit for bit, and a data set that ``summary`` rejects with
    ArithmeticError must give a non-finite row: table generation
    summarizes such rows again through ``summary`` (see
    ``simulate_reference_table``).  It stacks the data sets of a block, so
    with a batch summary ``simulate_data`` must return arrays of one shape.

    ``block_draw``, when set, draws the rows of a table block on their own
    streams and assembles them in one pass (see ``BlockDraw``); it needs a
    batch summary, which summarizes the assembled data.  Its rows must
    have the same bits as ``prior_sample`` followed by ``simulate_data`` on
    each row's stream; the rows its assembly masks are drawn through those
    two, one at a time.  A model whose ``prior_sample`` or
    ``simulate_data`` is replaced must clear ``block_draw``, as one whose
    ``summary`` is replaced must clear ``batch_summary``.

    Table generation may call these callables in child processes forked
    for the purpose (the ``fork`` start method only, so they need not
    pickle).  A side effect on a Python object during a draw, such as a
    counter or a list of calls, is then made in the child and not seen by
    the caller.  Python 3.12 and later warn when a process that runs
    threads forks.
    """

    name: str
    dim_theta: int
    dim_summary: int
    prior_sample: Callable[[np.random.Generator], np.ndarray]
    prior_logpdf: Callable[[np.ndarray], float]
    simulate_data: Callable[[np.ndarray, np.random.Generator], object]
    summary: Callable[[object], np.ndarray]
    theta_names: Optional[List[str]] = None
    spec: object = None
    batch_summary: Optional[Callable[[np.ndarray], np.ndarray]] = None
    block_draw: Optional[BlockDraw] = None

    def __post_init__(self):
        if self.theta_names is None:
            self.theta_names = _default_names(self.dim_theta)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            f"{self.name}|{self.dim_theta}|{self.dim_summary}|{self.spec!r}".encode()
        ).hexdigest()[:16]


@dataclass
class ReferenceTable:
    """Column-major storage of weighted (parameter, summary) samples."""

    theta: np.ndarray      # (N, D)
    summaries: np.ndarray  # (N, q)
    weights: np.ndarray    # (N,)
    seed: Optional[int] = None
    fingerprint: Optional[str] = None
    retries: int = 0
    theta_names: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        self.summaries = np.atleast_2d(np.asarray(self.summaries, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.theta.shape[0]
        if self.summaries.shape[0] != n or self.weights.shape != (n,):
            raise ValueError("inconsistent table row counts")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if not self.theta_names:
            self.theta_names = _default_names(self.theta.shape[1])

    def __len__(self) -> int:
        return self.theta.shape[0]

    def subset(self, idx: np.ndarray) -> "ReferenceTable":
        return ReferenceTable(self.theta[idx], self.summaries[idx],
                              self.weights[idx], seed=self.seed,
                              fingerprint=self.fingerprint, retries=self.retries,
                              theta_names=list(self.theta_names))

    # --- serialization ---------------------------------------------------

    def to_npz(self, path: str) -> None:
        """The table's one file format: the arrays in exact binary, and
        the generation seed, model fingerprint, retries and theta names."""
        np.savez_compressed(
            path, theta=self.theta, summaries=self.summaries, weights=self.weights,
            meta=json.dumps({"seed": self.seed, "fingerprint": self.fingerprint,
                             "retries": self.retries,
                             "theta_names": self.theta_names}))

    @classmethod
    def from_npz(cls, path: str, expected_fingerprint: Optional[str] = None) -> "ReferenceTable":
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            table = cls(z["theta"], z["summaries"], z["weights"],
                        seed=meta.get("seed"), fingerprint=meta.get("fingerprint"),
                        retries=meta.get("retries", 0),
                        theta_names=meta.get("theta_names") or [])
        if expected_fingerprint is not None and table.fingerprint != expected_fingerprint:
            raise ValueError("cached table was generated by a different model")
        return table


# SeedSequence's hash constants and PCG64's multiplier; NumPy keeps both
# streams fixed across releases (NEP 19), so _row_states can replay them
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _uint32_words(value) -> List[int]:
    """The uint32 words SeedSequence reads from an entropy value."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _M32]
        while value := value >> 32:
            words.append(value & _M32)
        return words
    return [w for v in value for w in _uint32_words(v)]


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of value, an int or a uint32 array, and the
    next hash constant; with ``mult=_MULT_B`` it hashes as generate_state."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _spawn_prefix(root: np.random.SeedSequence):
    """The pool and hash constant of SeedSequence.mix_entropy for any child
    ``SeedSequence(root.entropy, spawn_key=(i,))``, short of mixing in its
    last entropy word, the key i."""
    if root.pool_size != _POOL_SIZE:
        raise ValueError(f"row seeds need a SeedSequence pool of {_POOL_SIZE} words")
    words = _uint32_words(root.entropy)
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        h, hash_const = _hashmix(w, hash_const)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hash_const = _hashmix(w, hash_const)
            pool[dst] = _mix(pool[dst], h)
    return pool, hash_const


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products of the uint64 array a and b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    c10, c01 = a1 * b0, a0 * b1
    mid = (a0 * b0 >> 32) + (c10 & _M32) + (c01 & _M32)
    return a1 * b1 + (c10 >> 32) + (c01 >> 32) + (mid >> 32)


def _row_states(prefix, start: int, stop: int):
    """The PCG64 states of rows start..stop-1, as ``.state`` dicts: row i's
    is that of ``PCG64(SeedSequence(entropy).spawn(stop)[i])``.

    One pass over the rows mixes the key i into the pool ``prefix`` left
    for it, draws the pool's 4 uint64 words as ``generate_state`` does and
    seeds PCG64 from them (state 0, inc 2 x word 2:3 + 1, one step, add
    word 0:1, one step), in 128 bits kept as uint64 halves.
    """
    pool, hash_const = prefix
    keys = np.arange(start, stop, dtype=np.uint32)
    pool = list(pool)
    for dst in range(_POOL_SIZE):
        h, hash_const = _hashmix(keys, hash_const)
        pool[dst] = _mix(pool[dst], h)
    hash_const = _INIT_B
    words = []
    for k in range(2 * _POOL_SIZE):
        w, hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
        words.append(w.astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (words[k] | words[k + 1] << 32
                                        for k in range(0, 2 * _POOL_SIZE, 2))
    inc_hi = inc_hi << 1 | inc_lo >> 63
    inc_lo = inc_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo)
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi64(lo, _PCG_MULT_LO)
    lo = lo * _PCG_MULT_LO + inc_lo
    hi = hi + inc_hi + (lo < inc_lo)
    for sh, sl, ih, il in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(),
                              inc_lo.tolist()):
        yield {"bit_generator": "PCG64",
               "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
               "has_uint32": 0, "uinteger": 0}


class _Row(NamedTuple):
    theta: np.ndarray
    out: object                   # the row's data, or its summary
    # the seed that drew them; None for the row's own child seed
    seq: Optional[np.random.SeedSequence]
    failures: int


def _attempt(model: SimulatorModel, rng: np.random.Generator, summarize: bool):
    th = np.asarray(model.prior_sample(rng), dtype=float)
    out = model.simulate_data(th, rng)
    return th, model.summary(out) if summarize else out


def _draw_row(model: SimulatorModel, i: int, seq: np.random.SeedSequence,
              failures: int, summarize: bool) -> _Row:
    """Draw table row i from seq, and summarize it when ``summarize``.

    An attempt that raises ArithmeticError is drawn again from
    ``seq.spawn(1)[0]`` of the seq that failed.  ``failures`` counts the
    row's failed attempts so far; the eleventh aborts the table.
    """
    while True:
        try:
            return _Row(*_attempt(model, np.random.Generator(np.random.PCG64(seq)),
                                  summarize), seq, failures)
        except ArithmeticError as exc:
            failures += 1
            if failures > _MAX_RETRIES:
                raise ArithmeticError(f"simulation failed {_MAX_RETRIES + 1} "
                                      f"times for table row {i}") from exc
            seq = seq.spawn(1)[0]


def _checked(s, shape: tuple, what: str) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != shape:
        raise ValueError(f"{what} has shape {s.shape}, expected {shape}")
    return s


def _row_seq(entropy, i: int) -> np.random.SeedSequence:
    """The i-th child of ``SeedSequence(entropy)``, built on its own."""
    return np.random.SeedSequence(entropy, spawn_key=(i,))


def _first_draw(model: SimulatorModel, i: int, rng: np.random.Generator,
                entropy, summarize: bool) -> _Row:
    """Draw table row i on rng, set to the state of the row's child seed.

    A failed attempt goes on as ``_draw_row`` from the child seq itself.
    """
    try:
        return _Row(*_attempt(model, rng, summarize), None, 0)
    except ArithmeticError:
        return _draw_row(model, i, _row_seq(entropy, i).spawn(1)[0], 1, summarize)


def _assembled(model: SimulatorModel, rng: np.random.Generator, entropy,
               states: List[dict], start: int, theta: np.ndarray
               ) -> Tuple[np.ndarray, Dict[int, _Row]]:
    """Draw the block of rows start.. on ``model.block_draw``: write their
    theta and return their stacked data and the rows drawn one at a time,
    by ``_first_draw``, because the assembly masks them."""
    width, fill, assemble = model.block_draw
    raw = np.empty((len(states), width))
    bit_generator = rng.bit_generator
    for state, out in zip(states, raw):
        bit_generator.state = state
        fill(rng, out)
    block_theta, data, masked = assemble(raw)
    theta[start:start + len(states)] = block_theta
    rows = {}
    for j in np.flatnonzero(masked).tolist():
        bit_generator.state = states[j]
        rows[j] = _first_draw(model, start + j, rng, entropy, summarize=False)
        data[j] = rows[j].out
    return data, rows


def _draw_blocks(model: SimulatorModel, root: np.random.SeedSequence, prefix,
                 theta: np.ndarray, summ: np.ndarray, claim: Callable[[], int]) -> int:
    """Draw into theta and summ every block whose first row ``claim()``
    hands out, until it hands out the table's length; return the retries
    of the rows drawn."""
    n = len(theta)
    # one Generator for every row; its state is set before each draw
    rng = np.random.Generator(np.random.PCG64(root))
    retries = 0
    batched = model.batch_summary is not None
    while (start := claim()) < n:
        stop = min(start + _BLOCK_ROWS, n)
        states = _row_states(prefix, start, stop)
        # rows[j] is row start + j when drawn through prior_sample and
        # simulate_data: every row but those a block draw assembles
        if model.block_draw is not None:
            data, rows = _assembled(model, rng, root.entropy, list(states), start, theta)
        else:
            rows = {}
            for j, state in enumerate(states):
                rng.bit_generator.state = state
                rows[j] = _first_draw(model, start + j, rng, root.entropy,
                                      summarize=not batched)
                if not batched:
                    summ[start + j] = _checked(rows[j].out, (model.dim_summary,), "summary")
            if batched:
                data = np.stack([row.out for row in rows.values()])
        if batched:
            block = _checked(np.array(model.batch_summary(data)),
                             (stop - start, model.dim_summary), "batch summary")
            for j in np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist():
                # drawing again from the seq that drew the row repeats its
                # data, now summarized through the scalar map under the
                # retry rule
                row = rows.get(j) or _Row(None, None, None, 0)
                seq = row.seq
                if seq is None:
                    seq = _row_seq(root.entropy, start + j)
                rows[j] = _draw_row(model, start + j, seq, row.failures, summarize=True)
                block[j] = _checked(rows[j].out, (model.dim_summary,), "summary")
            summ[start:stop] = block
        for j, row in rows.items():
            theta[start + j] = row.theta
            retries += row.failures
    return retries


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class _Blocks:
    """Table blocks handed out in row order to a fixed set of processes.

    Slot 0 of the shared array holds the first row of the next block; slot
    1 + w holds the first row of the block worker w claimed last, which it
    draws until it claims again.
    """

    def __init__(self, ctx, n: int, workers: int):
        self.n = n
        self._slots = ctx.Array("q", 1 + workers)

    def claim(self, worker: int) -> int:
        with self._slots.get_lock():
            start = self._slots[0]
            self._slots[0] = min(start + _BLOCK_ROWS, self.n)
            self._slots[1 + worker] = start
        return start

    def stop(self) -> None:
        """Hand out no further block; those claimed are still drawn."""
        with self._slots.get_lock():
            self._slots[0] = self.n

    def drawing(self, worker: int) -> int:
        return self._slots[1 + worker]


def _run(draw, blocks: _Blocks, worker: int):
    """The retries of ``draw`` as worker ``worker``, or the exception that
    ended it, after which no worker claims another block."""
    try:
        return draw(partial(blocks.claim, worker))
    except Exception as exc:
        blocks.stop()
        return exc


def _child(draw, blocks: _Blocks, worker: int, conn) -> None:
    """Body of a forked worker: send back its retries or (exception, cause)."""
    outcome = _run(draw, blocks, worker)
    if isinstance(outcome, Exception):
        outcome = (outcome, outcome.__cause__)
        try:
            pickle.loads(pickle.dumps(outcome))
        except Exception:
            outcome = (RuntimeError(f"table worker failed with {outcome[0]!r}"), None)
    conn.send(outcome)
    conn.close()


def _receive(child, conn, blocks: _Blocks, worker: int):
    """The retries or the exception a forked worker sent back."""
    try:
        outcome = conn.recv()
    except EOFError:
        child.join()
        start = blocks.drawing(worker)
        where = (f"drawing table rows {start}..{min(start + _BLOCK_ROWS, blocks.n) - 1}"
                 if start < blocks.n else "after its last block")
        return RuntimeError(f"table worker {child.pid} exited with code "
                            f"{child.exitcode} without reporting, {where}")
    if isinstance(outcome, tuple):
        exc, cause = outcome
        exc.__cause__ = cause
        return exc
    return outcome


def _draw_in_processes(draw, n: int, workers: int) -> int:
    """Run ``draw`` in this process and in workers - 1 forked children,
    which claim the table's blocks from one shared counter; return the
    summed retries or raise the error of the lowest failed block."""
    ctx = multiprocessing.get_context("fork")
    blocks = _Blocks(ctx, n, workers)
    children = []
    finished = False
    try:
        for worker in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(draw, blocks, worker, send),
                                daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        outcomes = [_run(draw, blocks, 0)]
        outcomes += [_receive(child, recv, blocks, worker)
                     for worker, (child, recv) in enumerate(children, 1)]
        finished = True
    finally:
        for child, recv in children:
            if not finished:
                child.terminate()
            child.join()
            recv.close()
    failed = [(blocks.drawing(worker), exc) for worker, exc in enumerate(outcomes)
              if isinstance(exc, Exception)]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return sum(outcomes)


def simulate_reference_table(model: SimulatorModel, n: int,
                             seed: int) -> ReferenceTable:
    """Draw n (theta, summary) pairs from the prior and simulator.

    Row i is drawn on ``PCG64`` seeded by the i-th child of
    ``SeedSequence(seed)``, as ``SeedSequence(seed).spawn(n)[i]`` would
    seed it, so the table is reproducible row by row regardless of
    execution order.  The rows' PCG64 states are computed in one pass per
    block of ``_BLOCK_ROWS`` rows, and each row is drawn on one reused
    Generator set to its state.  A row whose draw or summary raises
    ArithmeticError is drawn again from ``seq.spawn(1)[0]`` of the seq that
    failed, starting from the row's child seq, up to 10 times per row.
    Tables of up to 2**32 rows are supported.

    With ``model.batch_summary`` each block's stacked data is summarized in
    one call.  A row whose batch summary is not finite is drawn again from
    the seq that drew it, which repeats its data, and summarized through
    ``model.summary``; if that raises, the row is redrawn as above, and its
    failures at both stages share the one budget.  Row streams are
    independent, so the table and its retry count are those of drawing and
    summarizing one row at a time.

    With ``model.block_draw`` (which needs a batch summary) each row of a
    block is filled on the one Generator set to its state, the block is
    assembled in one call and its data summarized in one batch-summary
    call.  The rows the assembly masks are drawn again through
    ``prior_sample`` and ``simulate_data`` on their own streams, under the
    retry rule, and a non-finite summary is handled as above, so the table
    and its retry count are those of the per-row draw.

    ``n`` and ``seed`` must be whole numbers (a bool is not one), and are
    rejected with a ValueError naming them otherwise; a seed of None would
    draw a different table on every call.

    The blocks are drawn by k = min(CPUs this process may use, blocks)
    processes: this one and k - 1 children forked for the call, each
    claiming the next undrawn block from a shared counter as it finishes
    one.  A block's rows depend on their row indices alone, so any split
    gives the same table and retry count, bit for bit.  The rows go into
    one shared anonymous mmap, on which the table's theta and summaries
    are views.  A failure raises the error of the lowest failed block,
    which is the serial draw's error, after every child has been joined.
    With k = 1, and in a process that ``multiprocessing`` started (a grid
    worker, say), the blocks are drawn in this process alone.
    """
    n = _whole_number(n, "n")
    seed = _whole_number(seed, "seed")
    if model.block_draw is not None and model.batch_summary is None:
        raise ValueError("a block draw needs a batch summary to summarize its blocks")
    if n < 1:
        raise ValueError("table size must be positive")
    if n > 2 ** 32:
        raise ValueError("table size must be at most 2**32")
    root = np.random.SeedSequence(seed)
    prefix = _spawn_prefix(root)
    d, q = model.dim_theta, model.dim_summary
    shared = np.frombuffer(mmap.mmap(-1, 8 * n * (d + q)), dtype=float)
    theta, summ = shared[:n * d].reshape(n, d), shared[n * d:].reshape(n, q)
    draw = partial(_draw_blocks, model, root, prefix, theta, summ)
    workers = min(_cpu_count(), -(-n // _BLOCK_ROWS))
    if workers == 1 or multiprocessing.parent_process() is not None:
        starts = iter(range(0, n, _BLOCK_ROWS))
        retries = draw(lambda: next(starts, n))
    else:
        retries = _draw_in_processes(draw, n, workers)
    return ReferenceTable(theta, summ, np.ones(n), seed=seed,
                          fingerprint=model.fingerprint(), retries=retries,
                          theta_names=list(model.theta_names))


@dataclass
class AbcOutput:
    """Weighted sample, weight diagnostics, and summaries regression_adjust gave slope 0."""

    samples: ReferenceTable
    ess: float
    entropy: float
    dropped: Tuple[int, ...] = ()

    @property
    def weights(self) -> np.ndarray:
        return self.samples.weights


def _weight_diagnostics(w: np.ndarray) -> tuple:
    ess = float((w.sum() ** 2) / np.sum(w * w))
    p = w / w.sum()
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log(nz)))
    return ess, entropy


def _observed_summary(s_obs, table: ReferenceTable) -> np.ndarray:
    """s_obs as a float vector, finite and as wide as the table's summaries."""
    s_obs = _checked(s_obs, (table.summaries.shape[1],), "s_obs")
    if not np.isfinite(s_obs).all():
        raise ValueError("s_obs must be finite")
    return s_obs


def abc_importance(model: Optional[SimulatorModel], table: ReferenceTable,
                   s_obs: np.ndarray, kernel: KernelSpec,
                   scaling: Optional[DistanceScaling] = None) -> AbcOutput:
    """Kernel-weighted sample of a prior-drawn table targeting the ABC
    posterior.

    Weights are K_h(||s_i - s_obs||) on the rows ``kernels.localize``
    keeps, 0 elsewhere (a NaN distance too, at a finite bandwidth),
    normalized to sum to one.  All-zero weights indicate a bandwidth too
    small for the observed summary and raise an error.  ``model`` is
    unused; it keeps the calling convention of the table engines.
    """
    s_obs = _observed_summary(s_obs, table)
    scaling = scaling or _default_scaling(table)
    rows, kept, _ = localize(squared_scaled_distance(table.summaries, s_obs, scaling),
                             kernel)
    if not rows.size:
        raise ArithmeticError(
            "all ABC weights are zero; increase the kernel bandwidth")
    w = np.zeros(len(table))
    w[rows] = kept
    w /= w.sum()
    ess, entropy = _weight_diagnostics(w)
    out = ReferenceTable(table.theta, table.summaries, w, seed=table.seed,
                         fingerprint=table.fingerprint, retries=table.retries,
                         theta_names=list(table.theta_names))
    return AbcOutput(samples=out, ess=ess, entropy=entropy)


def _default_scaling(table: ReferenceTable) -> DistanceScaling:
    """Standard deviations of the summaries over the rows whose summaries
    are all finite; the others get weight 0 at a finite bandwidth."""
    finite = np.isfinite(table.summaries).all(axis=1)
    if not finite.any():
        raise ValueError("no row of the reference table has all its summaries "
                         "finite; the default distance scaling needs one")
    # an all-finite table passes its own array, so its scales keep their bits
    rows = table.summaries if finite.all() else table.summaries[finite]
    return DistanceScaling.from_samples(rows)


def regression_adjust(output: AbcOutput, s_obs: np.ndarray) -> AbcOutput:
    """Linear regression adjustment toward the observed summary.

    Each parameter coordinate is shifted by beta' (s_obs - s_i) where beta
    solves the weighted least squares of that coordinate on the summaries
    (with intercept).  Weights are unchanged.  A summary that
    ``fit_weighted_linear`` drops, as one constant on the positive-weight
    rows or a linear combination of others there (the hierarchy's mean of
    the group means), gets slope 0 and is listed in ``dropped``.  An s_obs
    that breaks such a relation raises ArithmeticError naming the summaries.
    """
    table = output.samples
    s_obs = _observed_summary(s_obs, table)
    design = np.column_stack([np.ones(len(table)), table.summaries])
    fits = [fit_weighted_linear(design, y, table.weights) for y in table.theta.T]
    if outside := [c - 1 for c in fits[0].outside_span(np.r_[1.0, s_obs])]:
        raise ArithmeticError("s_obs lies outside the span of the weighted summaries: it "
                              f"breaks the linear relation of summaries {outside} to the others")
    adjusted = table.theta.copy()
    for d, fit in enumerate(fits):
        adjusted[:, d] += (s_obs - table.summaries) @ fit.beta[1:]
    samples = replace(table, theta=adjusted, theta_names=list(table.theta_names))
    return replace(output, samples=samples, dropped=tuple(c - 1 for c in fits[0].dropped))
