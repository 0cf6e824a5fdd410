import math

import numpy as np
import pytest

from remdecay.decay import LinearDecay, StepwiseDecay, WeibullDecay
from remdecay.events import EventSequence, RiskSet
from remdecay.intervals import IntervalSpec
from remdecay.likelihood import fit_mle
from remdecay.sim import SimConfig, SimulationError, _HistoryState, simulate
from remdecay.stats import StatisticKind, compute_stepwise_stats

from oracle import random_sequence


class TestConfigValidation:
    def test_stop_rule_exactly_one(self):
        with pytest.raises(SimulationError):
            SimConfig(n_actors=3, beta0=0.0)
        with pytest.raises(SimulationError):
            SimConfig(n_actors=3, beta0=0.0, n_events=5, end_time=10.0)

    @pytest.mark.parametrize("field, value", [
        ("end_time", math.inf), ("end_time", math.nan), ("end_time", 0.0),
        ("beta0", math.nan), ("beta0", math.inf), ("beta0", -math.inf),
    ])
    def test_non_finite_or_non_positive_value_named(self, field, value):
        # with no n_events, an end time of inf or nan would never stop the
        # thinning loop, so only the config is built here
        kw = dict(n_actors=3, beta0=0.0, end_time=10.0) | {field: value}
        with pytest.raises(SimulationError, match=f"^{field} must be finite"):
            SimConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("n_actors", 2.5), ("n_actors", 3.0), ("n_events", 3.5), ("n_events", 4.0),
    ])
    def test_non_integer_count_named(self, field, value):
        kw = dict(n_actors=3, beta0=-1.0, n_events=3) | {field: value}
        with pytest.raises(SimulationError, match=f"^{field} must be an integer"):
            SimConfig(**kw)

    def test_numpy_integer_counts_accepted(self):
        seq = simulate(SimConfig(n_actors=np.int64(3), beta0=-1.0, n_events=np.int32(4)))
        assert (len(seq), seq.n_actors) == (4, 3)

    def test_negative_decay_rejected(self):
        bad = StepwiseDecay(IntervalSpec(np.array([10.0])), (-0.5,))
        with pytest.raises(SimulationError, match="negative"):
            SimConfig(
                n_actors=3, beta0=0.0, n_events=5, horizon=10.0,
                effects={StatisticKind.INERTIA: bad},
            )

    def test_increasing_decay_rejected(self):
        bad = StepwiseDecay(IntervalSpec(np.array([5.0, 10.0])), (0.1, 0.5))
        with pytest.raises(SimulationError, match="increases"):
            SimConfig(
                n_actors=3, beta0=0.0, n_events=5, horizon=10.0,
                effects={StatisticKind.INERTIA: bad},
            )

    @pytest.mark.parametrize("bounds", [(1.0, 1.000001, 20.0), (1.0, 1.001, 20.0)])
    def test_rise_narrower_than_the_grid_step_rejected(self, bounds):
        # the grid step is 20/999 > 0.001: only the ages just past each bound
        # see the middle level
        bad = StepwiseDecay(IntervalSpec(np.array(bounds)), (0.1, 2.0, 0.05))
        with pytest.raises(SimulationError, match="increases"):
            SimConfig(
                n_actors=3, beta0=0.0, n_events=5, horizon=20.0,
                effects={StatisticKind.INERTIA: bad},
            )

    def test_narrow_falling_level_accepted(self):
        fine = StepwiseDecay(IntervalSpec(np.array([1.0, 1.000001, 20.0])), (2.0, 1.0, 0.05))
        SimConfig(n_actors=3, beta0=0.0, n_events=5, horizon=20.0,
                  effects={StatisticKind.INERTIA: fine})

    @pytest.mark.parametrize("effect", [lambda age: 0.0 * age, 0.5], ids=["function", "float"])
    def test_effect_that_is_not_a_decay_named(self, effect):
        match = r"^decay for reciprocity is a (function|float), not a DecayFn$"
        with pytest.raises(SimulationError, match=match):
            SimConfig(n_actors=3, beta0=0.0, n_events=5,
                      effects={StatisticKind.RECIPROCITY: effect})

    def test_json_roundtrip(self):
        cfg = SimConfig(
            n_actors=4,
            beta0=math.log(0.05),
            effects={StatisticKind.INERTIA: WeibullDecay(10.0, 1.0, 0.2)},
            horizon=30.0,
            n_events=50,
            seed=9,
        )
        again = SimConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg


class TestHomogeneous:
    def test_mean_gap_matches_total_rate(self):
        # 10 actors, no effects: Poisson with total rate 90 * 0.01 = 0.9
        cfg = SimConfig(n_actors=10, beta0=math.log(0.01), n_events=5000, seed=21)
        seq = simulate(cfg)
        gaps = np.diff(seq.times, prepend=0.0)
        rate = 0.9
        se = (1 / rate) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - 1 / rate) < 3 * se

    def test_end_time_stop_rule(self):
        cfg = SimConfig(n_actors=4, beta0=math.log(0.5), end_time=30.0, seed=2)
        seq = simulate(cfg)
        assert len(seq) > 0
        assert seq.times[-1] <= 30.0


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        cfg = SimConfig(
            n_actors=5, beta0=math.log(0.05), n_events=120, seed=77, horizon=20.0,
            effects={StatisticKind.INERTIA: WeibullDecay(5.0, 1.0, 0.4)},
        )
        a, b = simulate(cfg), simulate(cfg)
        assert a == b

    def test_distinct_seeds_differ(self):
        base = dict(n_actors=5, beta0=math.log(0.05), n_events=120)
        a = simulate(SimConfig(seed=1, **base))
        b = simulate(SimConfig(seed=2, **base))
        assert not np.array_equal(a.times, b.times)


class TestOutputContract:
    def test_output_validates_as_event_sequence(self):
        cfg = SimConfig(
            n_actors=6, beta0=math.log(0.03), n_events=300, seed=5, horizon=15.0,
            effects={
                StatisticKind.INERTIA: WeibullDecay(4.0, 1.0, 0.3),
                StatisticKind.RECIPROCITY: WeibullDecay(4.0, 1.0, 0.2),
            },
        )
        seq = simulate(cfg)
        assert len(seq) == 300
        assert np.all(np.diff(seq.times) > 0)
        assert np.all(seq.senders != seq.receivers)
        # constructor revalidates everything
        EventSequence(seq.times, seq.senders, seq.receivers, 6)

    def test_closure_effect_supported(self):
        # closure feedback compounds fast; keep the event density well below
        # the explosive regime
        cfg = SimConfig(
            n_actors=4, beta0=math.log(0.02), n_events=60, seed=13, horizon=8.0,
            effects={StatisticKind.TRANSITIVITY: WeibullDecay(3.0, 1.0, 0.15)},
        )
        seq = simulate(cfg)
        assert len(seq) == 60


class TestThinningEnvelope:
    @pytest.mark.parametrize("kind", list(StatisticKind))
    def test_dominating_rates_bound_every_later_rate(self, kind):
        # the thinning envelope taken at t must bound the true log rates at
        # every later time t + delta, delta in [0, horizon], dyad by dyad
        rng = np.random.default_rng(31)
        horizon = 6.0
        decays = (WeibullDecay(scale=3.0, shape=1.0, peak=0.5), LinearDecay(horizon, 1.0))
        rs = RiskSet(4)
        strict = 0
        for trial in range(3):
            seq = random_sequence(rng, 4, 30)
            cfg = SimConfig(n_actors=4, beta0=-1.0, n_events=1, horizon=horizon,
                            effects={kind: decays[trial % 2]})
            for m in (10, 20, 30):
                state = _HistoryState(cfg, rs)
                for t, s, r in zip(seq.times[:m].tolist(), seq.senders[:m].tolist(),
                                   seq.receivers[:m].tolist()):
                    state.append(t, rs.index_of(s, r))
                t = seq.times[m - 1]
                env = state.log_rates(t, dominating=True)
                # increasing query times: log_rates drops events past the horizon
                for delta in np.linspace(0.0, horizon, 30):
                    now = state.log_rates(t + delta)
                    assert np.all(now <= env)
                    strict += int(np.any(now < env))
        assert strict > 0


class TestRecovery:
    def test_constant_weight_recovers_level(self):
        # constant decay c on a wide window: the single-interval stepwise fit
        # should estimate roughly c
        c = 0.25
        horizon = 12.0
        spec = IntervalSpec(np.array([horizon]))
        hits = 0
        for seed in range(6):
            cfg = SimConfig(
                n_actors=5, beta0=math.log(0.05), n_events=600, seed=seed,
                horizon=horizon,
                effects={StatisticKind.INERTIA: StepwiseDecay(spec, (c,))},
            )
            seq = simulate(cfg)
            stats = compute_stepwise_stats(
                seq, RiskSet(5), [StatisticKind.INERTIA], spec
            )
            fit = fit_mle(stats, seq)
            se = math.sqrt(fit.cov_hat[1, 1])
            if abs(fit.beta_hat[1] - c) < 3 * se:
                hits += 1
        assert hits >= 5

    def test_exponential_decay_gives_decreasing_profile(self):
        # smooth exponential ground truth: a coarse stepwise refit should see
        # beta_1 > beta_K in nearly every replicate
        truth = WeibullDecay(scale=10.0, shape=1.0, peak=0.2)
        spec = IntervalSpec(np.array([5.0, 15.0, 40.0]))
        wins = 0
        for seed in range(20):
            cfg = SimConfig(
                n_actors=5, beta0=math.log(0.02), n_events=1000, seed=100 + seed,
                horizon=40.0, effects={StatisticKind.INERTIA: truth},
            )
            seq = simulate(cfg)
            stats = compute_stepwise_stats(seq, RiskSet(5), [StatisticKind.INERTIA], spec)
            fit = fit_mle(stats, seq)
            if fit.converged and fit.beta_hat[1] > fit.beta_hat[3]:
                wins += 1
        assert wins >= 18
