import json
import math

import numpy as np
import pytest

from remdecay.decay import (
    CompositeDecay,
    DecayError,
    LinearDecay,
    StepwiseDecay,
    WeibullDecay,
    decay_from_json,
    decay_to_json,
    half_life,
)
from remdecay.intervals import IntervalSpec, equal_spec, locate_intervals


class TestLinear:
    def test_peak_at_zero(self):
        assert LinearDecay(cutoff=2.0, peak=3.0)(0.0) == 3.0

    def test_zero_at_and_beyond_cutoff(self):
        fn = LinearDecay(cutoff=2.0, peak=3.0)
        assert fn(2.0) == 0.0
        assert fn(5.0) == 0.0

    def test_midpoint(self):
        assert LinearDecay(cutoff=2.0, peak=3.0)(1.0) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(DecayError):
            LinearDecay(cutoff=0.0, peak=1.0)
        for peak in (math.nan, math.inf, -math.inf):
            with pytest.raises(DecayError, match="peak must be finite"):
                LinearDecay(cutoff=2.0, peak=peak)
            with pytest.raises(DecayError, match="peak must be finite"):
                WeibullDecay(scale=1.0, shape=1.0, peak=peak)
        for offset in (math.nan, math.inf, -1.0):
            with pytest.raises(DecayError, match="offset must be finite and >= 0"):
                CompositeDecay(((WeibullDecay(1.0, 1.0, 1.0), offset),))


class TestWeibull:
    def test_matches_exponential_weight(self):
        fn = WeibullDecay(scale=10.0, shape=1.0, peak=0.1)
        ages = np.linspace(0, 50, 101)
        np.testing.assert_allclose(fn(ages), 0.1 * np.exp(-ages / 10.0), rtol=1e-14)

    def test_classic_exponential_weight_normalization(self):
        # peak = 1/scale recovers the exponentially decreasing weight
        fn = WeibullDecay(scale=4.0, shape=1.0, peak=1 / 4.0)
        assert fn(0.0) == pytest.approx(0.25)
        assert fn(4.0 * math.log(2)) == pytest.approx(0.125)

    def test_half_life(self):
        assert half_life(WeibullDecay(10.0, 1.0, 0.3)) == pytest.approx(6.9315, abs=1e-4)
        assert half_life(WeibullDecay(1.0, 1.0, 1.0)) == pytest.approx(0.6931, abs=1e-4)
        fn = WeibullDecay(7.0, 1.0, 0.8)
        assert fn(half_life(fn)) == pytest.approx(0.4, rel=1e-12)

    def test_half_life_requires_shape_one(self):
        with pytest.raises(DecayError):
            half_life(WeibullDecay(10.0, 2.0, 1.0))

    def test_sharp_step_regime(self):
        fn = WeibullDecay(scale=5.0, shape=50.0, peak=2.0)
        assert fn(2.5) > 0.99 * 2.0
        assert fn(7.5) < 0.01 * 2.0

    def test_nonincreasing_on_grid(self):
        grid = np.linspace(0, 100, 1000)
        for fn in (
            WeibullDecay(3.0, 0.7, 1.0),
            WeibullDecay(3.0, 5.0, 0.2),
            LinearDecay(12.0, 4.0),
            StepwiseDecay(equal_spec(4, 40.0), (0.4, 0.3, 0.2, 0.1)),
            CompositeDecay(((WeibullDecay(2.0, 8.0, 1.0), 0.0), (WeibullDecay(2.0, 8.0, 0.5), 10.0))),
        ):
            vals = fn(grid)
            assert np.all(np.diff(vals) <= 1e-12)


class TestStepwise:
    def test_matches_locate_plus_level_lookup(self, rng):
        spec = IntervalSpec(np.array([2.0, 5.0, 11.0]))
        fn = StepwiseDecay(spec, (0.5, 0.2, 0.1))
        ages = np.concatenate([rng.uniform(0, 15, 300), spec.gamma, [0.0]])
        for age, k in zip(ages, locate_intervals(spec, ages)):
            expected = 0.0 if k == 0 else fn.levels[k - 1]
            assert fn(float(age)) == expected

    def test_level_count_must_match(self):
        with pytest.raises(DecayError):
            StepwiseDecay(equal_spec(3, 9.0), (1.0, 2.0))


class TestComposite:
    def test_sum_of_offset_terms(self):
        a = WeibullDecay(2.0, 6.0, 1.0)
        b = WeibullDecay(3.0, 6.0, 0.5)
        fn = CompositeDecay(((a, 0.0), (b, 5.0)))
        for age in (0.0, 1.0, 4.0, 5.0, 9.0):
            expected = a(age) + b(max(age - 5.0, 0.0))
            assert fn(age) == pytest.approx(expected, rel=1e-14)

    def test_offset_clamps_to_peak(self):
        b = WeibullDecay(3.0, 6.0, 0.5)
        fn = CompositeDecay(((b, 5.0),))
        assert fn(0.0) == fn(5.0) == 0.5


class TestJson:
    def test_roundtrip_all_variants(self):
        variants = [
            LinearDecay(2.0, 3.0),
            WeibullDecay(10.0, 1.0, 0.1),
            StepwiseDecay(equal_spec(3, 30.0), (0.3, 0.2, 0.1)),
            CompositeDecay(((WeibullDecay(2.0, 8.0, 1.0), 0.0), (WeibullDecay(2.0, 8.0, 0.5), 10.0))),
        ]
        for fn in variants:
            again = decay_from_json(json.loads(json.dumps(decay_to_json(fn))))
            ages = np.linspace(0, 35, 50)
            np.testing.assert_array_equal(fn(ages), again(ages))

    def test_negative_age_rejected(self):
        with pytest.raises(DecayError):
            LinearDecay(2.0, 3.0)(-0.1)

    def test_nan_age_rejected(self):
        for fn in (StepwiseDecay(equal_spec(2, 10.0), (0.2, 0.1)), WeibullDecay(1.0, 1.0, 1.0)):
            for age in (np.nan, [0.0, np.nan]):
                with pytest.raises(DecayError, match="nonnegative"):
                    fn(age)
