"""Bit-identity of the localization in local Gibbs, global Gibbs and ABC.

``_SpecWorkspace`` stores each distinct design column of a conditional
once, keeps each column's squared scaled term with the query value it was
computed for, and sums a member's terms in numpy's order, starting from
the kept sum of the terms a pooled group's members share.
``kernels.localize`` finds the bandwidth (the kernel's own, or the kNN
one) and the kept rows on squared distances and takes roots and kernel
weights only on the rows inside the bandwidth; local Gibbs, global Gibbs
and ``abc_importance`` all weight their table through it.
On a table of at least 16 m rows it selects the kNN bandwidth among the
rows under a bound sampled from every 8th distance, and it gives the
uniform kernel's kept rows unit weights without taking roots.
``_SpecWorkspace.pooled`` writes the kept rows of all members into one
buffer.  All of it must reproduce the straightforward computation bit for
bit: distances on the full design, the full-table mask path, the
full-partition ``localize`` and the concatenated member rows are kept
here as the oracle, and chain and weight digests recorded before the
change are pinned.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lfgibbs import gibbs
from lfgibbs.abc import ReferenceTable, abc_importance, simulate_reference_table
from lfgibbs.gibbs import ConditionalSpec, GibbsConfig, run_global_gibbs, run_local_gibbs, save_chain
from lfgibbs import kernels
from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    _inflate,
    _pairwise_sum,
    _root_threshold,
    kernel_weight,
    knn_bandwidth,
    localize,
    scaled_distance,
)
from lfgibbs.models.hierarchical import (
    HierarchicalSpec,
    hierarchical_engine_specs,
    hierarchical_initial_state,
    hierarchical_model,
    hierarchical_simulate,
)
from lfgibbs.models.mixture import MixtureSpec, mixture_engine_specs, mixture_model

KERNELS = (KernelSpec(), KernelSpec("epanechnikov"))
SRC = Path(__file__).resolve().parent.parent / "src"


def reference_squared(a, b, scaling):
    """The plain formula on a C-ordered difference matrix, before its root."""
    z = np.ascontiguousarray((a - b) / scaling.scales)
    return np.sum(z * z, axis=-1)


def reference_distance(a, b, scaling):
    return np.sqrt(reference_squared(a, b, scaling))


def brute_force(design, scaling, query, kernel, m=None):
    """Kernel weights over the whole table, then the positive-weight mask.

    The bandwidth is the kNN one of ``m`` rows, or the kernel's own.
    """
    dist = reference_distance(design, query, scaling)
    if m is not None:
        kernel = kernel.with_bandwidth(knn_bandwidth(dist, min(m, dist.size)))
    with np.errstate(over="ignore"):  # d / h overflows for a zero-distance h
        w = kernel_weight(dist, kernel)
    pos = w > 0
    return np.flatnonzero(pos), w[pos], kernel.bandwidth


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def digest(states):
    return hashlib.sha256(np.ascontiguousarray(states, dtype=float).tobytes()).hexdigest()[:16]


def one_blas_thread(script):
    """What a Python script prints when run with BLAS on one thread, with
    the package imported from this checkout's src."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestScaledDistance:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 5, 300])
    def test_bit_identical_to_the_plain_sum(self, layout, n):
        rng = np.random.default_rng(n)
        # every association regime: left to right, 8 partial sums with a
        # tail, and the halving split above 128 terms
        for p in list(range(1, 41)) + [127, 128, 129, 130, 300]:
            values = rng.normal(size=(n, 2 * p)) * 10
            if layout == "strided":
                a = values[:, ::2]
            else:
                a = np.asarray(values[:, :p], order=layout)
            b = rng.normal(size=p)
            scaling = DistanceScaling(rng.lognormal(size=p))
            np.testing.assert_array_equal(
                bits(scaled_distance(a, b, scaling)),
                bits(reference_distance(a, b, scaling)), err_msg=f"p={p}")

    def test_pairwise_sum_of_columns_matches_the_row_sum_and_keeps_the_terms(self):
        rng = np.random.default_rng(2)
        for p in list(range(1, 41)) + [127, 128, 129, 130, 300]:
            z = rng.normal(size=(50, p)) ** 2
            terms = [np.ascontiguousarray(z[:, c]) for c in range(p)]
            kept = [t.copy() for t in terms]
            got = _pairwise_sum(lambda c: terms[c], 0, p)
            np.testing.assert_array_equal(bits(got), bits(np.sum(z, axis=-1)), err_msg=f"p={p}")
            for t, k in zip(terms, kept):
                np.testing.assert_array_equal(bits(t), bits(k), err_msg=f"p={p}")


def continuous_design(rng, n, p):
    x = rng.normal(size=(n, p)) * rng.lognormal(size=p)
    x[:, 0] = 1.0  # an intercept column, floored scale
    return x


def tie_heavy_design(rng, n):
    """0/1 sign columns and their products, as in the mixture designs."""
    b = rng.integers(0, 2, size=(n, 3)).astype(float)
    return np.column_stack([np.ones(n), b, b[:, 0] * b[:, 1], b[:, 1] * b[:, 2],
                            b[:, 0] * b[:, 1] * b[:, 2]])


def workspace(*designs, theta=None):
    """A workspace whose member j has the design ``designs[j]`` and response ``theta[:, j]``."""
    n = designs[0].shape[0]
    spec = ConditionalSpec(name="x", members=tuple(range(len(designs))),
                           feature_map_batch=lambda summ, states, member: designs[member])
    if theta is None:
        theta = np.zeros((n, len(designs)))
    table = ReferenceTable(theta=theta, summaries=np.zeros((n, 1)), weights=np.ones(n))
    return gibbs._SpecWorkspace(spec, table)


def pooled_designs(rng, n, members, shared=4, own=2):
    """Member designs whose first ``shared`` columns are the same arrays."""
    base = continuous_design(rng, n, shared)
    return [np.column_stack([base, rng.normal(size=(n, own)) * rng.lognormal(size=own)])
            for _ in range(members)]


def member_oracle(cond, table, j):
    """Member j's full design, built on its own, and its distance scaling."""
    x = gibbs._member_design(cond, table, cond.members[j])
    return x, DistanceScaling.from_samples(x, table.weights)


class TestLocalize:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("design_kind", ["continuous", "ties", "duplicates"])
    def test_matches_the_mask_path(self, kernel, design_kind):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = 400
            x = (continuous_design(rng, n, 7) if design_kind == "continuous"
                 else tie_heavy_design(rng, n))
            scaling = DistanceScaling.from_samples(x)
            # queries on a table row give exact zero distances and ties
            query = x[rng.integers(n)] + (0.0 if trial % 2 else rng.normal(size=x.shape[1]))
            m = int(rng.integers(60, n + 1))
            if design_kind == "duplicates":
                # a query repeated at least m times: the m-th distance is zero
                query = x[rng.integers(n)]
                zero = np.flatnonzero(reference_distance(x, query, scaling) == 0)
                m = int(rng.integers(1, zero.size + 1))
            rows, w, h = localize(workspace(x).squared_distances(0, query), kernel, m)
            want_rows, want_w, want_h = brute_force(x, scaling, query, kernel, m)
            assert h == want_h
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(bits(w), bits(want_w))
            if design_kind == "duplicates":
                np.testing.assert_array_equal(rows, zero)

    def test_fits_see_the_mask_path_arrays(self, monkeypatch):
        spec = HierarchicalSpec(u_groups=4, l_obs=5)
        model = hierarchical_model(spec)
        table = simulate_reference_table(model, 600, seed=2)
        rng = np.random.default_rng(3)
        data, summaries = hierarchical_simulate(spec, model.prior_sample(rng), rng)
        s_obs = summaries.as_array()
        engine_specs = hierarchical_engine_specs(spec)
        kernel, m = KernelSpec("epanechnikov"), 120
        seen = []
        real_squared, real_fit = gibbs._SpecWorkspace.squared_distances, gibbs._fit_family

        def spy_squared(ws, j, query):
            x, scaling = member_oracle(ws.spec, table, j)
            seen.append(brute_force(x, scaling, query, kernel, m) + (x,))
            d2 = real_squared(ws, j, query)
            np.testing.assert_array_equal(bits(d2), bits(reference_squared(x, query, scaling)))
            return d2

        def spy_fit(cond, x, y, w, rng):
            members = len(cond.members)
            expected = seen[-members:]
            np.testing.assert_array_equal(
                x, np.concatenate([d[r] for r, _, _, d in expected]))
            np.testing.assert_array_equal(bits(y), bits(np.concatenate(
                [table.theta[r, member] for (r, _, _, _), member in zip(expected, cond.members)])))
            np.testing.assert_array_equal(bits(w), bits(np.concatenate(
                [wt for _, wt, _, _ in expected])))
            assert x.flags.c_contiguous
            return real_fit(cond, x, y, w, rng)

        monkeypatch.setattr(gibbs._SpecWorkspace, "squared_distances", spy_squared)
        monkeypatch.setattr(gibbs, "_fit_family", spy_fit)
        config = GibbsConfig(n_iterations=5, initial=hierarchical_initial_state(spec, data),
                             kernel=kernel, m_neighbours=m)
        run_local_gibbs(model, engine_specs, table, s_obs, config, np.random.default_rng(4))
        assert len(seen) == 5 * (1 + spec.u_groups)


TINY = float(np.finfo(float).tiny)
HUGE = float(np.finfo(float).max)


class TestSquaredThreshold:
    """d2 < _root_threshold(h) must hold exactly when sqrt(d2) < h."""

    # the smallest-normal h of a zero m-th distance, the h of the smallest
    # positive squared distance, ordinary h, and h whose square overflows
    BANDWIDTHS = [TINY, 1e-200, math.sqrt(5e-324) * (1 + 1e-9), 1e-160, 1e-5, 0.3, 1.0,
                  2.0, 7.123, 1e100, 1e154, math.sqrt(HUGE), math.nextafter(math.sqrt(HUGE), 0),
                  math.nextafter(math.sqrt(HUGE), math.inf), 1e300, math.inf]

    @pytest.mark.parametrize("h", BANDWIDTHS)
    def test_the_threshold_and_the_double_below_it(self, h):
        t = _root_threshold(h)
        below = math.nextafter(t, 0.0)
        assert math.sqrt(t) >= h > math.sqrt(below)
        d2 = np.array([t, below])
        np.testing.assert_array_equal(d2 < t, np.sqrt(d2) < h)
        np.testing.assert_array_equal(d2 < t, [False, True])

    def test_random_bandwidths(self):
        rng = np.random.default_rng(21)
        for h in 10.0 ** rng.uniform(-307, 154, size=20000):
            t = _root_threshold(h)
            assert math.sqrt(t) >= h > math.sqrt(math.nextafter(t, 0.0)), h

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("kth", [0.0, 5e-324, 1e-300, 1.0, 2.0, 3.7e5, 1e300, HUGE])
    def test_rows_at_the_threshold_match_the_mask_path(self, kernel, kth):
        # the bandwidth the m-th squared distance kth gives, and rows at its
        # threshold, one double below it and one above
        h = knn_bandwidth(np.array([math.sqrt(kth)]), 1)
        t = _root_threshold(h)
        d2 = np.array([math.nextafter(t, math.inf), kth / 4, t, kth, math.nextafter(t, 0.0),
                       kth / 2, 4 * t])
        rows, w, got_h = localize(d2, kernel, 3)
        dist = np.sqrt(d2)
        assert got_h == h == knn_bandwidth(dist, 3)
        with np.errstate(over="ignore"):  # d / h overflows for a zero-distance h
            full = kernel_weight(dist, kernel.with_bandwidth(h))
        np.testing.assert_array_equal(rows, np.flatnonzero(full > 0))
        np.testing.assert_array_equal(bits(w), bits(full[rows]))
        assert 2 not in rows and 4 in rows

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError, match="m must be in"):
            localize(np.ones(5), KernelSpec(), 0)


def full_partition_localize(d2, kernel, m=None):
    """``kernels.localize`` as it was before the sampled bracket and the
    unit weights: the m-th smallest d2 by a partition of the whole table,
    and every kept row weighted by ``kernel_weight`` on its root."""
    h = kernel.bandwidth
    if m is not None:
        h = _inflate(math.sqrt(np.partition(d2, m - 1)[m - 1]))
    elif math.isinf(h):
        return np.arange(d2.size), np.ones(d2.size), h
    rows = np.flatnonzero(d2 < _root_threshold(h))
    return rows, kernel_weight(np.sqrt(d2[rows]), kernel.with_bandwidth(h)), h


def bracket_distances(order, n, m, rng):
    """n squared distances for a kNN selection of m rows, arranged by ``order``."""
    d2 = rng.standard_normal(n) ** 2
    if order == "sorted":
        d2.sort()
    elif order == "period-8":
        # the smallest distances on the sampled rows 0, 8, 16, ...
        d2.sort()
        sampled = np.zeros(n, dtype=bool)
        sampled[::8] = True
        d2[sampled], d2[~sampled] = d2[:sampled.sum()].copy(), d2[sampled.sum():].copy()
    elif order == "ties":
        # up to 2 m rows tied at the value of rank m / 2, the m-th among them
        d2.sort()
        d2[m // 2:m // 2 + 2 * m] = d2[m // 2]
        rng.shuffle(d2)
    elif order == "zeros":
        d2[rng.choice(n, size=min(2 * m, n), replace=False)] = 0.0
    elif order == "few-zeros":
        d2[rng.choice(n, size=m // 2, replace=False)] = 0.0
    elif order == "nans":
        d2[rng.random(n) < 0.1] = np.nan
    elif order == "nan-sample":
        d2[::8] = np.nan
    return d2


def local_paths(monkeypatch):
    """Counts of whole-table partitions and scans ``localize`` makes."""
    calls = {"partition": 0, "scan": 0}
    real_kth, real_below = kernels._kth_smallest, kernels._rows_below

    def kth(d2, m):
        calls["partition"] += 1
        return real_kth(d2, m)

    def below(d2, thr):
        calls["scan"] += 1
        return real_below(d2, thr)

    monkeypatch.setattr(kernels, "_kth_smallest", kth)
    monkeypatch.setattr(kernels, "_rows_below", below)
    return calls


class TestSampledBracket:
    """The bracketed kNN selection and the uniform kernel's unit weights
    give the rows, weights and bandwidth of a full partition, bit for bit."""

    ORDERS = ["random", "sorted", "period-8", "ties", "zeros", "few-zeros", "nans",
              "nan-sample"]
    # (rows, m): around the 16 m cut-off, m = 1, m = n, and the bench's size
    SIZES = [(16 * m - 1, m) for m in (1, 5, 11, 50, 500)] + \
            [(16 * m, m) for m in (1, 5, 11, 50, 500)] + \
            [(20_000, 1), (20_000, 11), (20_000, 500), (20_000, 1250), (800, 800), (1, 1)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_the_full_partition(self, order, kernel):
        rng = np.random.default_rng(31)
        for n, m in self.SIZES:
            d2 = bracket_distances(order, n, m, rng)
            try:
                want_rows, want_w, want_h = full_partition_localize(d2, kernel, m)
            except ValueError as exc:  # a NaN m-th distance
                with pytest.raises(ValueError, match=str(exc)):
                    localize(d2, kernel, m)
                continue
            rows, w, h = localize(d2, kernel, m)
            assert bits(h) == bits(want_h), (n, m)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(bits(w), bits(want_w))
            if kernel.kind == "uniform":
                np.testing.assert_array_equal(
                    bits(w), bits(kernel_weight(np.sqrt(d2[rows]), kernel.with_bandwidth(h))))

    @pytest.mark.parametrize("kernel", [KernelSpec(bandwidth=0.3),
                                        KernelSpec("epanechnikov", 0.3)], ids=lambda k: k.kind)
    def test_the_kernels_own_bandwidth(self, kernel):
        d2 = bracket_distances("nans", 5000, 1, np.random.default_rng(32))
        got, want = localize(d2, kernel), full_partition_localize(d2, kernel)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(bits(got[1]), bits(want[1]))
        assert got[2] == want[2]

    @pytest.mark.parametrize("order,n,m,path", [
        ("random", 20_000, 500, "bracket"),
        ("random", 16 * 50 - 1, 50, "partition"),   # below the 16 m rows
        ("period-8", 20_000, 500, "partition"),     # fewer than m candidates
        ("nan-sample", 20_000, 500, "partition"),   # a NaN bound
        ("sorted", 16 * 5, 5, "partition"),
        ("sorted", 16, 1, "scan"),                  # the bound is the m-th value
        ("ties", 20_000, 500, "scan"),
        ("zeros", 20_000, 500, "scan"),
    ])
    def test_each_path_is_taken(self, order, n, m, path, monkeypatch):
        d2 = bracket_distances(order, n, m, np.random.default_rng(33))
        calls = local_paths(monkeypatch)
        localize(d2, KernelSpec(), m)
        taken = ("partition" if calls["partition"] else "scan" if calls["scan"]
                 else "bracket")
        assert taken == path, calls


# the kernel's own bandwidth (fixed or infinite), or the kNN one of 600 rows
BANDWIDTHS = {"fixed": (3.2, None), "knn": (math.inf, 600), "infinite": (math.inf, None)}


class TestOneLocalizer:
    """Global Gibbs and ``abc_importance`` keep the mask path's rows and weights."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("bandwidth", sorted(BANDWIDTHS))
    def test_global_gibbs_fits_the_mask_path_rows(self, hierarchy, monkeypatch, kernel,
                                                  bandwidth):
        spec, model, table, data, s_obs = hierarchy
        h, m = BANDWIDTHS[bandwidth]
        kernel = kernel.with_bandwidth(h)
        scaling = DistanceScaling.from_samples(table.summaries, table.weights)
        want_rows, want_w, _ = brute_force(table.summaries, scaling, s_obs, kernel, m)
        # only the infinite bandwidth keeps the whole table
        assert 0 < want_rows.size and (want_rows.size == len(table)) == (bandwidth == "infinite")
        seen = []
        real_pooled = gibbs._SpecWorkspace.pooled

        def spy_pooled(ws, kept):
            seen.append((len(ws.spec.members), kept))
            return real_pooled(ws, kept)

        monkeypatch.setattr(gibbs._SpecWorkspace, "pooled", spy_pooled)
        config = GibbsConfig(n_iterations=2, initial=hierarchical_initial_state(spec, data),
                             kernel=kernel, global_m=m)
        run_global_gibbs(model, hierarchical_engine_specs(spec), table, s_obs, config,
                         np.random.default_rng(27))
        assert [members for members, _ in seen] == [1, spec.u_groups]
        for members, kept in seen:
            assert len(kept) == members
            for rows, w in kept:
                np.testing.assert_array_equal(rows, want_rows)
                np.testing.assert_array_equal(bits(w), bits(want_w))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("bandwidth", sorted(BANDWIDTHS))
    def test_abc_importance_weights_the_mask_path_rows(self, hierarchy, kernel, bandwidth):
        spec, model, table, data, s_obs = hierarchy
        h, m = BANDWIDTHS[bandwidth]
        dist = reference_distance(table.summaries, s_obs,
                                  DistanceScaling.from_samples(table.summaries))
        if m is not None:  # a kNN bandwidth passed as the kernel's own
            h = knn_bandwidth(dist, m)
        kernel = kernel.with_bandwidth(h)
        full = kernel_weight(dist, kernel)
        out = abc_importance(model, table, s_obs, kernel)
        np.testing.assert_array_equal(bits(out.weights), bits(full / full.sum()))

    @pytest.mark.parametrize("kernel,expected", [
        (KernelSpec("uniform", 2.0), "2c064870baa0a20e"),
        (KernelSpec("epanechnikov", 2.0), "ce5503fde6eca6fe"),
        (KernelSpec("epanechnikov", 0.7), "77be9c472d9cece8"),
        (KernelSpec("uniform", math.inf), "bbf67be7b356fd59"),
    ], ids=["uniform", "epanechnikov", "epanechnikov-narrow", "infinite"])
    def test_abc_weights_pinned(self, kernel, expected):
        # recorded while abc_importance weighted the whole table itself
        model = hierarchical_model(HierarchicalSpec(u_groups=4, l_obs=5))
        table = simulate_reference_table(model, 3000, seed=5)
        out = abc_importance(model, table, table.summaries[7] + 0.01, kernel)
        assert digest(out.weights) == expected

    def test_global_m_past_the_table_rejected(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        config = GibbsConfig(n_iterations=2, initial=hierarchical_initial_state(spec, data),
                             global_m=len(table) + 1)
        with pytest.raises(ValueError, match="m must be in"):
            run_global_gibbs(model, hierarchical_engine_specs(spec), table, s_obs, config,
                             np.random.default_rng(28))

    def test_too_few_kept_rows_named(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        initial = hierarchical_initial_state(spec, data)
        with pytest.raises(ArithmeticError, match="'tau_x': only 2 positive-weight rows"):
            run_global_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                             GibbsConfig(n_iterations=2, initial=initial, global_m=2),
                             np.random.default_rng(30))
        with pytest.raises(ArithmeticError,
                           match="'tau_x' at iteration 1: only 3 positive-weight rows among 3"):
            run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                            GibbsConfig(n_iterations=2, initial=initial, m_neighbours=3),
                            np.random.default_rng(30))

    def test_local_m_past_the_table_localizes_on_the_whole_table(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        small = table.subset(np.arange(300))
        states = []
        for m in (300, 500):
            config = GibbsConfig(n_iterations=4, initial=hierarchical_initial_state(spec, data),
                                 m_neighbours=m)
            out = run_local_gibbs(model, hierarchical_engine_specs(spec), small, s_obs,
                                  config, np.random.default_rng(29))
            states.append(digest(out.states))
        assert states[0] == states[1]


def query_run(rng, first, steps):
    """Queries whose coordinates repeat, change, or flip 0.0 and -0.0."""
    q = first.copy()
    zero = rng.random(q.size) < 0.3
    q[zero] = 0.0
    yield q.copy()
    for _ in range(steps):
        move = rng.random(q.size)
        flip = (move < 0.3) & (q == 0.0)
        q[flip] = -q[flip]
        change = (move > 0.7) & ~zero
        q[change] = first[change] + rng.normal(size=int(change.sum()))
        yield q.copy()


class TestWorkspace:
    @pytest.mark.parametrize("model_kind", ["hierarchy", "mixture"])
    def test_distances_bit_identical_over_a_query_run(self, model_kind):
        if model_kind == "hierarchy":
            model = hierarchical_model(HierarchicalSpec())
            cond = hierarchical_engine_specs(HierarchicalSpec())[3]  # the pooled mu_u block
        else:
            model = mixture_model(MixtureSpec())
            cond = mixture_engine_specs(MixtureSpec())[0]  # 26 interaction columns
        table = simulate_reference_table(model, 500, seed=12)
        ws = gibbs._SpecWorkspace(cond, table)
        oracles = [member_oracle(cond, table, j) for j in range(len(cond.members))]
        rng = np.random.default_rng(13)
        runs = [query_run(rng, x[rng.integers(len(table))], 12) for x, _ in oracles]
        for queries in zip(*runs):
            for j, (query, (x, scaling)) in enumerate(zip(queries, oracles)):
                np.testing.assert_array_equal(
                    bits(ws.squared_distances(j, query)),
                    bits(reference_squared(x, query, scaling)))
        assert ws.reused > 0

    def test_a_column_one_bit_apart_is_not_shared(self):
        x0 = continuous_design(np.random.default_rng(5), 300, 5)
        x1 = x0.copy()
        x1[17, 3] = np.nextafter(x1[17, 3], np.inf)
        ws = workspace(x0, x1)
        assert [a == b for a, b in zip(ws.index[0], ws.index[1])] == [True] * 3 + [False, True]
        assert len(ws.columns) == 6

    def test_mismatched_widths_rejected(self):
        x = continuous_design(np.random.default_rng(6), 50, 4)
        with pytest.raises(ValueError, match="3 columns for member 1, 4 for member 0"):
            workspace(x, x[:, :3])
        with pytest.raises(ValueError, match="query has shape"):
            workspace(x).squared_distances(0, x[0, :3])

    def test_the_shared_prefix_is_recomputed_when_a_shared_coordinate_moves(self):
        rng = np.random.default_rng(22)
        designs = pooled_designs(rng, 300, 3)
        ws = workspace(*designs)
        assert ws.n_shared == 4
        oracles = [DistanceScaling.from_samples(x) for x in designs]
        shared = designs[0][5, :4].copy()
        for sweep in range(8):
            if sweep in (2, 3, 6):  # move a shared coordinate, a different one each time
                shared[sweep % 3 + 1] += rng.normal()
            for j, (x, scaling) in enumerate(zip(designs, oracles)):
                query = np.concatenate([shared, x[rng.integers(300), 4:]])
                np.testing.assert_array_equal(
                    bits(ws.squared_distances(j, query)),
                    bits(reference_squared(x, query, scaling)), err_msg=f"sweep {sweep}")
                assert ws.prefix_fresh

    def test_only_pooled_groups_of_fewer_than_8_columns_keep_a_prefix(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        tau_x, mu_u = hierarchical_engine_specs(spec)[2:]
        assert gibbs._SpecWorkspace(tau_x, table).prefix is None
        assert gibbs._SpecWorkspace(mu_u, table).n_shared == 4
        rng = np.random.default_rng(23)
        assert workspace(*pooled_designs(rng, 50, 2, shared=1)).prefix is None
        assert workspace(*pooled_designs(rng, 50, 2, shared=4, own=4)).prefix is None
        # every member adds a term of its own
        x = continuous_design(rng, 50, 3)
        assert workspace(x, x).n_shared == 2

    def test_pooled_buffer_equals_the_concatenation(self):
        rng = np.random.default_rng(24)
        n = 400
        designs = pooled_designs(rng, n, 4)
        theta = rng.normal(size=(n, 4))
        ws = workspace(*designs, theta=theta)
        for sizes in [(17, 40, 1, 250), (0, 5, 0, 9), (n, n, n, n)]:
            kept = [(np.sort(rng.choice(n, size=k, replace=False)), rng.random(k))
                    for k in sizes]
            x, y, w = ws.pooled(kept)
            assert x.flags.c_contiguous
            np.testing.assert_array_equal(
                bits(x), bits(np.concatenate([d[r] for d, (r, _) in zip(designs, kept)])))
            np.testing.assert_array_equal(
                bits(y), bits(np.concatenate([theta[r, j] for j, (r, _) in enumerate(kept)])))
            np.testing.assert_array_equal(bits(w), bits(np.concatenate([wj for _, wj in kept])))

    def test_the_hierarchy_stores_7_and_24_columns(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        tau_x, mu_u = hierarchical_engine_specs(spec)[2:]
        assert len(gibbs._SpecWorkspace(tau_x, table).columns) == 7
        assert len(gibbs._SpecWorkspace(mu_u, table).columns) == 24

    def test_terms_are_recomputed_only_where_the_query_moved(self, hierarchy, tmp_path):
        spec, model, table, data, s_obs = hierarchy
        n = 6
        config = GibbsConfig(n_iterations=n, initial=hierarchical_initial_state(spec, data),
                             m_neighbours=200)
        out = run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                              config, np.random.default_rng(6))
        terms = out.diagnostics["distance_terms"]
        # the intercepts, group pairs and symmetric statistics keep their
        # query value; mu_bar, mu_prec, mu, tau_mu and tau_x move every sweep
        assert terms == {"tau_x": {"computed": 7 + 2 * (n - 1), "reused": 5 * (n - 1)},
                         "mu_u": {"computed": 24 + 3 * (n - 1),
                                  "reused": 60 * n - 24 - 3 * (n - 1)}}
        computed = sum(t["computed"] for t in terms.values())
        assert computed == 31 + 5 * (n - 1)
        assert sum(t["reused"] for t in terms.values()) == 67 * n - computed
        save_chain(out, str(tmp_path / "chain.csv"), str(tmp_path / "chain.json"))
        with open(tmp_path / "chain.json") as fh:
            assert json.load(fh)["diagnostics"]["distance_terms"] == terms


def leaves(obj):
    """The JSON tree with every number replaced by 0."""
    if isinstance(obj, dict):
        return {k: leaves(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [leaves(v) for v in obj]
    return 0 if isinstance(obj, (int, float)) else obj


class TestLocalizationHealth:
    def test_matches_a_brute_force_recomputation(self, hierarchy, monkeypatch):
        spec, model, table, data, s_obs = hierarchy
        kernel, m = KernelSpec("epanechnikov"), 200
        seen = {}
        real_squared = gibbs._SpecWorkspace.squared_distances

        def spy_squared(ws, j, query):
            x, scaling = member_oracle(ws.spec, table, j)
            _, w, h = brute_force(x, scaling, query, kernel, m)
            seen.setdefault(ws.spec.name, []).append((h, w.sum() ** 2 / np.sum(w * w)))
            return real_squared(ws, j, query)

        monkeypatch.setattr(gibbs._SpecWorkspace, "squared_distances", spy_squared)
        config = GibbsConfig(n_iterations=5, initial=hierarchical_initial_state(spec, data),
                             kernel=kernel, m_neighbours=m)
        out = run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs, config,
                              np.random.default_rng(25))
        health = out.diagnostics["localization"]
        assert sorted(health) == sorted(seen) == ["mu_u", "tau_x"]
        assert [len(seen["tau_x"]), len(seen["mu_u"])] == [5, 5 * spec.u_groups]
        for name, values in seen.items():
            h, kish = np.array(values).T
            assert health[name]["bandwidth"] == {
                "min": h.min(), "median": np.median(h), "max": h.max()}
            got = health[name]["kish_ess"]
            np.testing.assert_allclose([got["min"], got["median"], got["max"]],
                                       [kish.min(), np.median(kish), kish.max()], rtol=1e-12)
            assert 1.0 <= got["min"] <= got["max"] <= m

    def test_residual_variance_spread(self, hierarchy, monkeypatch, tmp_path):
        # both estimated conditionals are linear; the tau_x design has 7
        # columns and the pooled mu_u design 6
        spec, model, table, data, s_obs = hierarchy
        seen = {7: [], 6: []}
        real_fit = gibbs.fit_weighted_linear

        def spy_fit(x, y, w):
            fit = real_fit(x, y, w)
            seen[x.shape[1]].append(fit.sigma2)
            return fit

        monkeypatch.setattr(gibbs, "fit_weighted_linear", spy_fit)
        config = GibbsConfig(n_iterations=6, initial=hierarchical_initial_state(spec, data),
                             m_neighbours=200)
        out = run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs, config,
                              np.random.default_rng(27))
        save_chain(out, str(tmp_path / "chain.csv"), str(tmp_path / "chain.json"))
        with open(tmp_path / "chain.json") as fh:
            saved = json.load(fh)["diagnostics"]["fit_health"]
        for name, p in (("tau_x", 7), ("mu_u", 6)):
            values = np.array(seen[p])
            assert len(values) == 6 and np.all(values > 0)
            expected = {"min": values.min(), "median": np.median(values), "max": values.max()}
            assert out.diagnostics["fit_health"][name]["sigma2"] == expected
            assert saved[name]["sigma2"] == expected

    def test_the_chain_json_does_not_grow_with_the_sweeps(self, hierarchy, tmp_path):
        spec, model, table, data, s_obs = hierarchy
        saved = []
        for n in (5, 50):
            config = GibbsConfig(n_iterations=n, initial=hierarchical_initial_state(spec, data),
                                 m_neighbours=200)
            out = run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                                  config, np.random.default_rng(26))
            path = tmp_path / f"chain{n}.json"
            save_chain(out, str(tmp_path / f"chain{n}.csv"), str(path))
            with open(path) as fh:
                saved.append(json.load(fh))
        # the same entries, whatever the digits of the numbers in them
        assert leaves(saved[0]) == leaves(saved[1])
        for payload in saved:
            health = payload["diagnostics"]["localization"]
            assert set(health) == {"tau_x", "mu_u"}
            for entry in health.values():
                assert {k: set(v) for k, v in entry.items()} == {
                    "bandwidth": {"min", "median", "max"},
                    "kish_ess": {"min", "median", "max"}}
            # the uniform kernel weighs every kept row 1
            assert health["tau_x"]["kish_ess"]["min"] >= 200


@pytest.fixture(scope="module")
def hierarchy():
    spec = HierarchicalSpec()
    rng = np.random.default_rng(3)
    state = np.concatenate([[0.0, 1.0, 1.0], rng.normal(size=spec.u_groups)])
    data, summaries = hierarchical_simulate(spec, state, rng)
    model = hierarchical_model(spec)
    table = simulate_reference_table(model, 2000, seed=5)
    return spec, model, table, data, summaries.as_array()


class TestPinnedChains:
    """Digests recorded before the column-wise localization (numpy 2.4,
    OpenBLAS, x86-64); a different BLAS may round the fits differently."""

    @pytest.mark.parametrize("kernel,expected", [
        (KernelSpec(), "1f9d9bafcfdf530a"),
        (KernelSpec("epanechnikov"), "ad14b860f5082adf"),
    ], ids=["uniform", "epanechnikov"])
    def test_local_hierarchy(self, hierarchy, kernel, expected):
        spec, model, table, data, s_obs = hierarchy
        config = GibbsConfig(n_iterations=40, initial=hierarchical_initial_state(spec, data),
                             burn_in=5, thinning=2, kernel=kernel, m_neighbours=200)
        out = run_local_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                              config, np.random.default_rng(6))
        assert digest(out.states) == expected

    def test_global_hierarchy(self, hierarchy):
        spec, model, table, data, s_obs = hierarchy
        config = GibbsConfig(n_iterations=200, initial=hierarchical_initial_state(spec, data),
                             burn_in=20, global_m=800, global_weight_indices=(20, 21, 22, 23),
                             global_scaling=DistanceScaling.identity(4))
        out = run_global_gibbs(model, hierarchical_engine_specs(spec), table, s_obs,
                               config, np.random.default_rng(7))
        assert digest(out.states) == "5ebef4a463d1854e"

    def test_local_mixture(self):
        # the 26-column weighted fit forms its Gram matrix through BLAS,
        # whose threaded product may sum in another order, so the chain is
        # pinned in a process that runs BLAS on one thread
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from lfgibbs.abc import simulate_reference_table
            from lfgibbs.gibbs import GibbsConfig, run_local_gibbs
            from lfgibbs.kernels import KernelSpec
            from lfgibbs.models.mixture import MixtureSpec, mixture_engine_specs, mixture_model
            spec = MixtureSpec()
            model = mixture_model(spec)
            table = simulate_reference_table(model, 6000, seed=8)
            config = GibbsConfig(n_iterations=30, initial=[0.0, 2.0, 1.0, 0.0],
                                 m_neighbours=2000, kernel=KernelSpec("epanechnikov"))
            out = run_local_gibbs(model, mixture_engine_specs(spec), table,
                                  np.asarray(spec.s_obs), config, np.random.default_rng(9))
            states = np.ascontiguousarray(out.states, dtype=float)
            print(hashlib.sha256(states.tobytes()).hexdigest()[:16])
        """)
        assert one_blas_thread(script) == "8b9bbf0ef77f3f60"


class TestBenchShapedChain:
    @pytest.mark.parametrize("seed", range(4))
    def test_never_partitions_the_whole_table(self, seed, monkeypatch):
        # the benchmark's hier-local shape: U = L = 10, a 20 000-row table,
        # m = 500 and 120 sweeps, each localizing 11 members; the sampled
        # bracket must hold the m-th distance every time
        spec = HierarchicalSpec(u_groups=10, l_obs=10)
        model = hierarchical_model(spec)
        rng = np.random.default_rng(seed)
        data, summaries = hierarchical_simulate(spec, model.prior_sample(rng), rng)
        table = simulate_reference_table(model, 20_000, seed=seed)
        calls = local_paths(monkeypatch)
        localized = []
        real_localize = gibbs.localize

        def spy(d2, kernel, m=None):
            localized.append(d2.size)
            return real_localize(d2, kernel, m)

        monkeypatch.setattr(gibbs, "localize", spy)
        config = GibbsConfig(n_iterations=120, burn_in=20, m_neighbours=500,
                             initial=hierarchical_initial_state(spec, data))
        run_local_gibbs(model, hierarchical_engine_specs(spec), table, summaries.as_array(),
                        config, np.random.default_rng(seed))
        assert localized == [20_000] * 120 * 11
        assert calls["partition"] == 0, calls
