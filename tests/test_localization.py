"""Bit-identity of the column-wise localization in local Gibbs.

``scaled_distance`` sums the squared terms of a column-major design one
coordinate at a time, and ``run_local_gibbs`` evaluates kernel weights only on the rows inside the
kNN bandwidth.  Both must reproduce the straightforward computation bit
for bit: the full-table mask path is kept here as the oracle, and chain
digests recorded before the change are pinned.
"""

import hashlib

import numpy as np
import pytest

from lfgibbs import gibbs
from lfgibbs.abc import simulate_reference_table
from lfgibbs.gibbs import GibbsConfig, run_global_gibbs, run_local_gibbs
from lfgibbs.kernels import DistanceScaling, KernelSpec, kernel_weight, knn_bandwidth, scaled_distance
from lfgibbs.models.hierarchical import (
    HierarchicalSpec,
    hierarchical_engine_specs,
    hierarchical_initial_state,
    hierarchical_model,
    hierarchical_simulate,
)
from lfgibbs.models.mixture import MixtureSpec, mixture_engine_specs, mixture_model

KERNELS = (KernelSpec(), KernelSpec("epanechnikov"))


def reference_distance(a, b, scaling):
    """The plain formula on a C-ordered difference matrix."""
    z = np.ascontiguousarray((a - b) / scaling.scales)
    return np.sqrt(np.sum(z * z, axis=-1))


def brute_force(design, scaling, query, kernel, m):
    """Kernel weights over the whole table, then the positive-weight mask."""
    dist = reference_distance(design, query, scaling)
    h = knn_bandwidth(dist, min(m, dist.size))
    with np.errstate(over="ignore"):  # d / h overflows for a zero-distance h
        w = kernel_weight(dist, kernel.with_bandwidth(h))
    pos = w > 0
    return np.flatnonzero(pos), w[pos], h


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def digest(states):
    return hashlib.sha256(np.ascontiguousarray(states, dtype=float).tobytes()).hexdigest()[:16]


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


def continuous_design(rng, n, p):
    x = rng.normal(size=(n, p)) * rng.lognormal(size=p)
    x[:, 0] = 1.0  # an intercept column, floored scale
    return x


def tie_heavy_design(rng, n):
    """0/1 sign columns and their products, as in the mixture designs."""
    b = rng.integers(0, 2, size=(n, 3)).astype(float)
    return np.column_stack([np.ones(n), b, b[:, 0] * b[:, 1], b[:, 1] * b[:, 2],
                            b[:, 0] * b[:, 1] * b[:, 2]])


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
            rows, w, h = gibbs._localize(np.asfortranarray(x), scaling, query, kernel, m)
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
        seen = []
        real_localize, real_fit = gibbs._localize, gibbs._fit_family

        def spy_localize(design, scaling, query, kernel, m):
            seen.append(brute_force(design, scaling, query, kernel, m)
                        + (np.ascontiguousarray(design),))
            return real_localize(design, scaling, query, kernel, m)

        def spy_fit(cond, x, y, w, rng):
            members = len(cond.members)
            expected = seen[-members:]
            np.testing.assert_array_equal(
                x, np.concatenate([d[r] for r, _, _, d in expected]))
            np.testing.assert_array_equal(bits(w), bits(np.concatenate(
                [wt for _, wt, _, _ in expected])))
            assert x.flags.c_contiguous
            return real_fit(cond, x, y, w, rng)

        monkeypatch.setattr(gibbs, "_localize", spy_localize)
        monkeypatch.setattr(gibbs, "_fit_family", spy_fit)
        config = GibbsConfig(n_iterations=5, initial=hierarchical_initial_state(spec, data),
                             kernel=KernelSpec("epanechnikov"), m_neighbours=120)
        run_local_gibbs(model, engine_specs, table, s_obs, config, np.random.default_rng(4))
        assert len(seen) == 5 * (1 + spec.u_groups)


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
        spec = MixtureSpec()
        model = mixture_model(spec)
        table = simulate_reference_table(model, 6000, seed=8)
        config = GibbsConfig(n_iterations=30, initial=[0.0, 2.0, 1.0, 0.0],
                             m_neighbours=2000, kernel=KernelSpec("epanechnikov"))
        out = run_local_gibbs(model, mixture_engine_specs(spec), table,
                              np.asarray(spec.s_obs), config, np.random.default_rng(9))
        assert digest(out.states) == "98f76796e7a4d7bd"
