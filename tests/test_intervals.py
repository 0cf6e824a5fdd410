import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remdecay.intervals import (
    IntervalSpec,
    IntervalSpecError,
    bag_from_json,
    bag_to_json,
    equal_spec,
    generate_interval_bag,
    locate_intervals,
)


class TestIntervalSpec:
    def test_equal_partition_of_180(self):
        spec = equal_spec(4, 180.0)
        np.testing.assert_allclose(spec.gamma, [45.0, 90.0, 135.0, 180.0])
        assert spec.kind == "equal"

    def test_rejects_nonincreasing(self):
        with pytest.raises(IntervalSpecError):
            IntervalSpec(np.array([2.0, 2.0, 5.0]))
        with pytest.raises(IntervalSpecError):
            IntervalSpec(np.array([-1.0, 2.0]))

    def test_kind_width_validation(self):
        IntervalSpec(np.array([1.0, 3.0, 7.0]), kind="increasing")
        with pytest.raises(IntervalSpecError):
            IntervalSpec(np.array([4.0, 6.0, 7.0]), kind="increasing")
        IntervalSpec(np.array([4.0, 6.0, 7.0]), kind="decreasing")

    @pytest.mark.parametrize("n_intervals", [0, -1])
    def test_equal_spec_needs_an_interval(self, n_intervals):
        with pytest.raises(IntervalSpecError, match=f"need at least 1 interval, got {n_intervals}"):
            equal_spec(n_intervals, 10.0)

    def test_json_roundtrip_bitexact(self):
        bag = generate_interval_bag([3, 4], 5, 0.05, 180.0, rng_seed=11)
        again = bag_from_json(json.loads(json.dumps(bag_to_json(bag))))
        assert len(again) == len(bag)
        for a, b in zip(bag, again):
            assert a.kind == b.kind
            assert np.array_equal(a.gamma, b.gamma)


class TestLocate:
    def test_boundary_is_right_closed(self):
        spec = equal_spec(4, 180.0)
        ages = [45.0, 45.0001, 181.0, 0.0, 180.0]
        np.testing.assert_array_equal(locate_intervals(spec, ages), [1, 2, 0, 1, 4])

    def test_matches_first_bound_at_or_above(self, rng):
        spec = IntervalSpec(np.array([1.5, 4.0, 9.0, 20.0]))
        ages = np.concatenate([rng.uniform(0, 25, 200), spec.gamma, [0.0]])
        vec = locate_intervals(spec, ages)
        for age, k in zip(ages, vec):
            want = next((j for j, g in enumerate(spec.gamma, start=1) if age <= g), 0)
            assert k == want

    def test_negative_age_rejected(self):
        for ages in ([-0.5], [-0.5, 0.0, 5.0, 11.0], [3.0, -1e-300]):
            with pytest.raises(IntervalSpecError, match="nonnegative"):
                locate_intervals(equal_spec(2, 10.0), ages)

    def test_nan_age_rejected(self):
        for ages in ([np.nan], [0.0, np.nan, 5.0]):
            with pytest.raises(IntervalSpecError, match="nonnegative"):
                locate_intervals(equal_spec(2, 10.0), ages)


class TestGenerator:
    def test_bag_size_matches_published_setup(self):
        bag = generate_interval_bag([3, 4, 5], 250, 0.05, 180.0, rng_seed=0)
        assert len(bag) == 1503
        sizes = {}
        for spec in bag:
            sizes.setdefault((spec.size, spec.kind), 0)
            sizes[(spec.size, spec.kind)] += 1
        for K in (3, 4, 5):
            assert sizes[(K, "increasing")] == 250
            assert sizes[(K, "decreasing")] == 250
            assert sizes[(K, "equal")] == 1

    def test_last_bound_exact(self):
        bag = generate_interval_bag([3, 5], 20, 0.04, 37.5, rng_seed=5)
        for spec in bag:
            assert spec.gamma[-1] == 37.5

    def test_min_size_too_large_rejected(self):
        with pytest.raises(IntervalSpecError):
            generate_interval_bag([4], 10, 0.25, 10.0, rng_seed=0)
        with pytest.raises(IntervalSpecError):
            generate_interval_bag([2], 10, 0.0, 10.0, rng_seed=0)

    def test_no_k_values_rejected(self):
        # an empty K list would give an empty bag, which no fit can use
        with pytest.raises(IntervalSpecError, match="no K values"):
            generate_interval_bag([], 10, 0.05, 10.0, rng_seed=0)

    @pytest.mark.parametrize("gamma_K", [0.0, -1.0, np.nan, np.inf])
    def test_gamma_k_must_be_finite_and_positive(self, gamma_K):
        with pytest.raises(IntervalSpecError, match="gamma_K must be finite and > 0"):
            generate_interval_bag([3], 10, 0.05, gamma_K, rng_seed=0)

    def test_seed_reproducibility_bit_exact(self):
        a = generate_interval_bag([3, 4], 40, 0.05, 90.0, rng_seed=123)
        b = generate_interval_bag([3, 4], 40, 0.05, 90.0, rng_seed=123)
        for x, y in zip(a, b):
            assert np.array_equal(x.gamma, y.gamma) and x.kind == y.kind
        c = generate_interval_bag([3, 4], 40, 0.05, 90.0, rng_seed=124)
        assert any(not np.array_equal(x.gamma, y.gamma) for x, y in zip(a, c))

    def test_width_properties(self):
        gamma_K = 60.0
        min_size = 0.05
        bag = generate_interval_bag([3, 4, 5], 150, min_size, gamma_K, rng_seed=42)
        for spec in bag:
            w = spec.widths
            assert abs(w.sum() - gamma_K) <= 1e-9 * gamma_K
            assert np.all(w >= min_size * gamma_K - 1e-9 * gamma_K)
            if spec.kind == "increasing":
                assert np.all(np.diff(w) >= 0)
            elif spec.kind == "decreasing":
                assert np.all(np.diff(w) <= 0)


@settings(max_examples=30, deadline=None)
@given(
    K=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    gamma_K=st.floats(0.5, 500.0),
)
def test_generator_invariants_property(K, seed, gamma_K):
    min_size = 0.5 / K
    bag = generate_interval_bag([K], 3, min_size, gamma_K, rng_seed=seed)
    for spec in bag:
        assert spec.gamma[0] > 0
        assert np.all(np.diff(spec.gamma) > 0)
        assert spec.gamma[-1] == gamma_K
        assert np.all(spec.widths >= min_size * gamma_K * (1 - 1e-12))
