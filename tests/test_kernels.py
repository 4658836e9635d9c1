import math
import warnings

import numpy as np
import pytest

from lfgibbs.kernels import (
    DistanceScaling,
    KernelSpec,
    kernel_weight,
    knn_bandwidth,
    scaled_distance,
)


class TestKernelWeight:
    def test_uniform_inside_support(self):
        spec = KernelSpec("uniform", 2.0)
        assert kernel_weight(0.0, spec) == 1.0
        assert kernel_weight(1.999, spec) == 1.0

    def test_uniform_outside_support(self):
        spec = KernelSpec("uniform", 2.0)
        assert kernel_weight(2.0, spec) == 0.0
        assert kernel_weight(5.0, spec) == 0.0

    def test_uniform_infinite_bandwidth_weights_all_equal(self):
        spec = KernelSpec("uniform", math.inf)
        d = np.array([0.0, 1.0, 1e6])
        assert np.all(kernel_weight(d, spec) == 1.0)

    def test_epanechnikov_formula(self):
        spec = KernelSpec("epanechnikov", 2.0)
        # 1 - (1/2)^2 = 0.75
        assert kernel_weight(1.0, spec) == pytest.approx(0.75)
        assert kernel_weight(0.0, spec) == 1.0

    def test_epanechnikov_zero_at_and_beyond_bandwidth(self):
        spec = KernelSpec("epanechnikov", 1.5)
        assert kernel_weight(1.5, spec) == 0.0
        assert kernel_weight(2.5, spec) == 0.0

    def test_epanechnikov_no_overflow_at_the_smallest_bandwidth(self):
        spec = KernelSpec("epanechnikov", float(np.finfo(float).tiny))
        d = np.array([0.0, 1e-300, 1e-160, 1.0, 1e10, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = kernel_weight(d, spec)
            assert kernel_weight(1e300, spec) == 0.0
        np.testing.assert_array_equal(w, [1.0, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("h", [float(np.finfo(float).tiny), 1e-3, 0.7, 2.0, 1e200])
    def test_epanechnikov_matches_the_direct_formula(self, h):
        rng = np.random.default_rng(17)
        spread = rng.exponential(h, size=2000)
        # tie-heavy: exact multiples of h around the boundary, zeros and inf
        ties = np.repeat([0.0, 0.5 * h, np.nextafter(h, 0), h, np.nextafter(h, np.inf),
                          2 * h, np.inf], 50)
        for d in (spread, ties, np.concatenate([spread, ties])):
            with np.errstate(over="ignore", invalid="ignore"):
                u = d / h
                direct = np.maximum(0.0, 1.0 - u * u)
            got = kernel_weight(d, KernelSpec("epanechnikov", h))
            np.testing.assert_array_equal(got, direct)
            assert not np.signbit(got).any()

    @pytest.mark.parametrize("kind", ["uniform", "epanechnikov"])
    @pytest.mark.parametrize("h", [float(np.finfo(float).tiny), 1e-3, 0.7, 2.0, 1e200,
                                   math.inf])
    def test_matches_the_allocating_formula_bit_for_bit(self, kind, h):
        # the oracle is the formula with a fresh array per step; the
        # kernel runs the same steps in one buffer
        def oracle(distance):
            d = np.asarray(distance, dtype=float)
            if math.isinf(h):
                out = np.ones_like(d)
            elif kind == "uniform":
                out = (d < h).astype(float)
            else:
                u = np.minimum(d, h) / h
                out = 1.0 - u * u
            return float(out) if np.ndim(distance) == 0 else out

        rng = np.random.default_rng(23)
        scale = 1.0 if math.isinf(h) else h
        spread = rng.exponential(scale, size=500)
        ties = np.array([0.0, 0.5 * scale, np.nextafter(scale, 0), scale,
                         np.nextafter(scale, np.inf), 2 * scale, np.inf])
        spec = KernelSpec(kind, h)
        for d in (spread, ties, spread.reshape(20, 25), spread[::3], np.empty(0)):
            original = d.copy()
            got, want = kernel_weight(d, spec), oracle(d)
            assert isinstance(got, np.ndarray) and got.shape == d.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(d, original)  # the input is only read
        for scalar in (*ties.tolist(), np.float64(0.3 * scale), np.array(0.9 * scale)):
            got, want = kernel_weight(scalar, spec), oracle(scalar)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            kernel_weight(-0.1, KernelSpec("uniform", 1.0))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("uniform", 0.0)


class TestKnnBandwidth:
    def test_mth_smallest_with_margin(self):
        d = np.array([3.0, 1.0, 2.0, 5.0])
        h = knn_bandwidth(d, 2)
        assert h == pytest.approx(2.0 * (1 + 1e-9))

    def test_ties_at_boundary_stay_inside(self):
        # four points at distance 1; asking for 2 neighbours must keep all
        # tied points inside the uniform support
        d = np.ones(4)
        h = knn_bandwidth(d, 2)
        w = kernel_weight(d, KernelSpec("uniform", h))
        assert np.all(w == 1.0)

    def test_zero_mth_distance_keeps_exactly_the_zero_rows(self):
        # three points on the query itself and m = 2: the bandwidth stays
        # positive and admits no positive distance, however small
        d = np.array([0.0, 0.5, 0.0, 1e-150, 0.0, 2.0])
        h = knn_bandwidth(d, 2)
        assert h > 0
        for kind in ("uniform", "epanechnikov"):
            w = kernel_weight(d, KernelSpec(kind, h))
            np.testing.assert_array_equal(w, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            knn_bandwidth(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            knn_bandwidth(np.array([1.0, 2.0]), 0)


class TestScaledDistance:
    def test_hand_value(self):
        scaling = DistanceScaling(np.array([1.0, 2.0]))
        a = np.array([1.0, 4.0])
        b = np.array([0.0, 0.0])
        # sqrt(1^2 + 2^2) = sqrt(5)
        assert scaled_distance(a, b, scaling) == pytest.approx(np.sqrt(5.0))

    def test_unit_scaling_is_euclidean(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        d = scaled_distance(a, b, DistanceScaling.identity(5))
        assert d == pytest.approx(np.linalg.norm(a - b))

    def test_matrix_rows(self):
        scaling = DistanceScaling.identity(2)
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        b = np.zeros(2)
        np.testing.assert_allclose(scaled_distance(a, b, scaling), [0.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scaled_distance(np.ones(3), np.ones(2), DistanceScaling.identity(2))

    def test_symmetry_and_triangle_on_random_draws(self):
        rng = np.random.default_rng(11)
        scaling = DistanceScaling(rng.uniform(0.5, 2.0, size=4))
        for _ in range(50):
            x, y, z = rng.normal(size=(3, 4))
            dxy = scaled_distance(x, y, scaling)
            dyx = scaled_distance(y, x, scaling)
            assert dxy == pytest.approx(dyx)
            assert dxy <= scaled_distance(x, z, scaling) + scaled_distance(z, y, scaling) + 1e-12


class TestDistanceScaling:
    def test_from_samples_matches_std(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, [1.0, 3.0], size=(20000, 2))
        s = DistanceScaling.from_samples(x)
        np.testing.assert_allclose(s.scales, [1.0, 3.0], rtol=0.05)

    def test_constant_coordinate_floored(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        s = DistanceScaling.from_samples(x)
        assert s.scales[0] == pytest.approx(1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_weights_must_be_finite_and_non_negative(self, bad):
        x = np.arange(6.0).reshape(3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights must be finite and non-negative"):
                DistanceScaling.from_samples(x, np.array([1.0, bad, 1.0]))

    def test_weighted_std(self):
        x = np.array([[0.0], [1.0]])
        w = np.array([0.5, 0.5])
        s = DistanceScaling.from_samples(x, w)
        assert s.scales[0] == pytest.approx(0.5)
