import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remdecay.bma import _model_columns
from remdecay.decay import LinearDecay, StepwiseDecay, WeibullDecay
from remdecay.events import EventSequence, RiskSet, spread_ties
from remdecay.intervals import IntervalSpec, equal_spec
from remdecay.sim import SimConfig, _HistoryState, simulate
from remdecay.stats import StatisticKind, build_triad_pairs, compute_stepwise_stats

from conftest import SIX_KINDS
from oracle import (
    brute_triad_pairs,
    late_start,
    loop_continuous_stats,
    loop_stepwise_stats,
    random_sequence,
    rescan_stepwise_stats,
    run_bounds,
    to_dense,
)

ALL_KINDS = tuple(StatisticKind)


def three_interval_inertia_sequence():
    """15 events among 3 actors; at the final time the focal dyad has one
    event younger than 0.5h, three between 0.5h and 2h, and two older."""
    i, j, l = 0, 1, 2
    rows = [
        (12.0, i, j),
        (12.2, j, i),
        (12.4, l, j),
        (12.5, i, j),
        (12.7, i, l),
        (12.9, j, i),
        (13.1, i, j),
        (13.25, j, i),
        (13.55, i, j),
        (13.8, j, l),
        (14.1, i, j),
        (14.3, l, j),
        (14.45, j, i),
        (14.6, i, j),
        (15.0, i, j),
    ]
    times, s, r = zip(*[(t, a, b) for t, a, b in rows])
    return EventSequence(times, s, r, 3)


def closure_example_sequence():
    """15 events among 4 actors with two (l, j) mediation chains: the older
    one has two matching (i, l) precursors in its window, the newer one has
    exactly one."""
    i, j, k, l = 0, 1, 2, 3
    rows = [
        (0.8, j, k),
        (2.0, i, l),
        (3.0, k, l),
        (3.8, j, k),
        (4.9, i, l),
        (5.7, l, k),
        (6.8, l, j),
        (7.8, i, l),
        (9.0, j, k),
        (10.0, i, l),
        (10.8, l, i),
        (11.4, l, j),
        (12.0, l, k),
        (13.0, k, l),
        (13.6, i, j),
    ]
    times, s, r = zip(*[(t, a, b) for t, a, b in rows])
    return EventSequence(times, s, r, 4)


class TestInertiaMicro:
    def test_counts_per_interval(self):
        seq = three_interval_inertia_sequence()
        rs = RiskSet(3)
        spec = IntervalSpec(np.array([0.5, 2.0, 6.0]), kind="increasing")
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.INERTIA], spec)
        row = to_dense(st_)[14, rs.index_of(0, 1)]
        np.testing.assert_array_equal(row[1:], [1.0, 3.0, 2.0])

    def test_single_interval_recovers_plain_count(self):
        seq = three_interval_inertia_sequence()
        rs = RiskSet(3)
        spec = IntervalSpec(np.array([6.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.INERTIA], spec)
        assert to_dense(st_)[14, rs.index_of(0, 1), 1] == 6.0

    def test_empty_history_row_is_zero(self):
        seq = three_interval_inertia_sequence()
        rs = RiskSet(3)
        st_ = compute_stepwise_stats(seq, rs, ALL_KINDS, equal_spec(3, 6.0))
        assert to_dense(st_)[0, :, 0].min() == 1.0  # intercept
        assert np.all(to_dense(st_)[0, :, 1:] == 0.0)


class TestClosureMicro:
    def test_transitivity_counts_both_windows(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([15.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.TRANSITIVITY], spec)
        assert to_dense(st_)[14, rs.index_of(0, 1), 1] == 3.0

    def test_interval_split_keeps_total(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([5.0, 15.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.TRANSITIVITY], spec)
        row = to_dense(st_)[14, rs.index_of(0, 1)]
        # newer mediation (age 2.2) in interval 1, older (age 6.8) in interval 2
        np.testing.assert_array_equal(row[1:], [1.0, 2.0])

    def test_matches_loop_oracle(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([4.0, 9.0, 15.0]))
        kinds = [StatisticKind.TRANSITIVITY, StatisticKind.CYCLIC]
        st_ = compute_stepwise_stats(seq, rs, kinds, spec)
        np.testing.assert_array_equal(to_dense(st_), loop_stepwise_stats(seq, rs, kinds, spec))


def assert_run_fields(got, want):
    """``got``'s waits are the oracle's, bit for bit; each of its exposures
    equals the oracle's cell-wise exposure of the same state, and its row sums
    of a few per-state columns equal the sums over the dyads of the oracle's
    dense design times each row's wait."""
    where = {tuple(row): u for u, row in enumerate(want.rows.tolist())}
    same = [where[tuple(row)] for row in got.rows.tolist()]
    assert len(same) == len(want.rows)
    np.testing.assert_array_equal(got.waits, want.waits)
    # the two sum the waits in different orders
    np.testing.assert_allclose(got.exposure, want.exposure[same], rtol=1e-12)
    # integer weights keep every sum exact
    weights = np.random.default_rng(0).integers(-3, 4, size=(got.n_columns, 3))
    columns = (got.rows @ weights).astype(np.float64).T
    want_sums = (to_dense(want) @ weights).sum(axis=1) * want.waits[:, None]
    np.testing.assert_array_equal(got.row_sums(columns, len(columns)), want_sums)


class TestOracleEquivalence:
    def test_small_random_sequences_loop_oracle(self, rng):
        for _ in range(8):
            seq = random_sequence(rng, int(rng.integers(2, 5)), int(rng.integers(5, 22)))
            span = seq.times[-1] - seq.times[0]
            K = int(rng.integers(1, 4))
            bounds = np.sort(rng.uniform(0.05 * span, 1.2 * span, size=K))
            spec = IntervalSpec(np.unique(bounds))
            rs = RiskSet(seq.n_actors)
            got = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
            np.testing.assert_array_equal(
                to_dense(got), loop_stepwise_stats(seq, rs, ALL_KINDS, spec)
            )

    def test_medium_random_sequences_rescan_oracle(self, rng):
        for _ in range(12):
            seq = random_sequence(rng, int(rng.integers(2, 7)), int(rng.integers(20, 90)))
            span = seq.times[-1] - seq.times[0]
            K = int(rng.integers(1, 6))
            spec = IntervalSpec(np.unique(np.sort(rng.uniform(0.02 * span, 1.5 * span, K))))
            rs = RiskSet(seq.n_actors)
            got = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
            want = rescan_stepwise_stats(seq, rs, ALL_KINDS, spec)
            np.testing.assert_array_equal(to_dense(got), to_dense(want))
            assert_run_fields(got, want)

    def test_run_fields_after_a_late_t0_rescan_oracle(self, rng):
        """With the observation starting at t0 > 0, the first row's wait
        times[0] - t0 enters every state in force there, on every kind."""
        for kind in ALL_KINDS:
            seq = late_start(random_sequence(rng, 4, 50), rng)
            rs, spec = RiskSet(4), equal_spec(3, 0.6 * (seq.times[-1] - seq.t0))
            got = compute_stepwise_stats(seq, rs, (kind,), spec)
            assert_run_fields(got, rescan_stepwise_stats(seq, rs, (kind,), spec))

    @pytest.mark.parametrize("K", [2, 5])
    def test_tie_spread_day_times_rescan_oracle(self, K):
        """Spread day-rounded times put many crossing times an ulp from an
        event time, where a crossing's row depends on how its time rounds."""
        sim = simulate(SimConfig(n_actors=4, beta0=-2.0,
                                 effects={StatisticKind.INERTIA: WeibullDecay(4.0, 1.0, 0.3)},
                                 horizon=20.0, n_events=200, seed=1))
        times = spread_ties(np.floor(sim.times), 1.0)
        seq = EventSequence(times, sim.senders, sim.receivers, sim.n_actors)
        rs = RiskSet(seq.n_actors)
        kinds = [StatisticKind.INERTIA, StatisticKind.RECIPROCITY,
                 StatisticKind.TRANSITIVITY, StatisticKind.CYCLIC]
        spec = equal_spec(K, 20.0)
        got = compute_stepwise_stats(seq, rs, kinds, spec)
        want = rescan_stepwise_stats(seq, rs, kinds, spec)
        np.testing.assert_array_equal(to_dense(got), to_dense(want))
        assert_run_fields(got, want)

    def test_bound_crossing_takes_the_row_after_its_time(self):
        """0.1 + 0.2 rounds to 0.30000000000000004, so the first event has not
        crossed g = 0.2 at the second event, whose time is that sum (the
        subtraction 0.30000000000000004 - 0.1 is above 0.2)."""
        seq = EventSequence([0.1, 0.30000000000000004], [0, 0], [1, 1], 2)
        rs, spec = RiskSet(2), IntervalSpec(np.array([0.2, 5.0]))
        kinds = (StatisticKind.INERTIA,)
        got = to_dense(compute_stepwise_stats(seq, rs, kinds, spec))
        np.testing.assert_array_equal(got[1, rs.index_of(0, 1)], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(got, to_dense(rescan_stepwise_stats(seq, rs, kinds, spec)))
        np.testing.assert_array_equal(got, loop_stepwise_stats(seq, rs, kinds, spec))

    @pytest.mark.parametrize("horizon", [5.0, 0.9])
    def test_closure_activates_at_the_row_of_its_time(self, horizon):
        """Inner 0 -> 1 at 1.2 and outer 1 -> 2 at 2.1 switch on at
        2 * 2.1 - 1.2, which rounds to 3.0: the pair counts at the event at
        3.0 (the window 2.1 - (3.0 - 2.1) rounds above 1.2). With horizon
        0.9, 2.1 + 0.9 rounds to 3.0 too, so 3.0 is the outer event's last
        row and the pair counts there."""
        seq = EventSequence([1.2, 2.1, 3.0], [0, 1, 2], [1, 2, 0], 3)
        rs, spec = RiskSet(3), IntervalSpec(np.array([horizon]))
        pairs = build_triad_pairs(seq, rs, horizon)
        np.testing.assert_array_equal(pairs.act_row, [2])
        outer, act, _ = brute_triad_pairs(seq, rs, horizon)
        np.testing.assert_array_equal(act, [2])
        kinds = (StatisticKind.TRANSITIVITY,)
        got = to_dense(compute_stepwise_stats(seq, rs, kinds, spec))
        assert got[2, rs.index_of(0, 2), 1] == 1.0
        np.testing.assert_array_equal(got, to_dense(rescan_stepwise_stats(seq, rs, kinds, spec)))
        np.testing.assert_array_equal(got, loop_stepwise_stats(seq, rs, kinds, spec))

    def test_simulator_counts_a_closure_at_its_time(self):
        """The simulator's intensity at 3.0 counts the closure pair that the
        design counts at its row at 3.0, as the dominating rate does."""
        kind = StatisticKind.TRANSITIVITY
        cfg = SimConfig(n_actors=3, beta0=0.0, n_events=1, horizon=5.0,
                        effects={kind: WeibullDecay(scale=3.0, shape=1.0, peak=0.5)})
        rs = RiskSet(3)
        state = _HistoryState(cfg, rs)
        state.append(1.2, rs.index_of(0, 1))
        state.append(2.1, rs.index_of(1, 2))
        d = rs.index_of(0, 2)
        assert state.log_rates(3.0)[d] == state.log_rates(3.0, dominating=True)[d] > 0.0

    def test_shared_triad_precompute_matches_fresh(self, rng):
        seq = random_sequence(rng, 5, 60)
        rs = RiskSet(5)
        span = seq.times[-1] - seq.times[0]
        horizon = 0.6 * span
        pairs = build_triad_pairs(seq, rs, horizon)
        for K in (1, 3):
            spec = IntervalSpec(np.linspace(horizon / K, horizon, K))
            a = compute_stepwise_stats(seq, rs, ALL_KINDS, spec, triad_pairs=pairs)
            b = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
            np.testing.assert_array_equal(to_dense(a), to_dense(b))

    def test_triad_pairs_match_brute_force(self, rng):
        for _ in range(12):
            seq = random_sequence(rng, int(rng.integers(3, 7)), int(rng.integers(5, 70)))
            rs = RiskSet(seq.n_actors)
            span = seq.times[-1] - seq.times[0]
            horizon = float(rng.uniform(0.02, 1.2) * span)
            pairs = build_triad_pairs(seq, rs, horizon)
            outer, act, positions = brute_triad_pairs(seq, rs, horizon)
            np.testing.assert_array_equal(pairs.outer, outer)
            np.testing.assert_array_equal(pairs.act_row, act)
            for kind in positions:
                np.testing.assert_array_equal(pairs.positions[kind], positions[kind])
            assert pairs.n_pairs == outer.size

    @pytest.mark.parametrize("n_actors", [3, 6])
    def test_risk_set_of_another_actor_count_rejected(self, rng, n_actors):
        seq = random_sequence(rng, 4, 20)
        with pytest.raises(ValueError, match=f"risk set has {n_actors} actors, the sequence 4"):
            compute_stepwise_stats(seq, RiskSet(n_actors), [StatisticKind.INERTIA], equal_spec(2, 5.0))
        with pytest.raises(ValueError, match=f"risk set has {n_actors} actors, the sequence 4"):
            build_triad_pairs(seq, RiskSet(n_actors), 5.0)

    def test_horizon_mismatch_rejected(self, rng):
        seq = random_sequence(rng, 3, 10)
        rs = RiskSet(3)
        pairs = build_triad_pairs(seq, rs, 5.0)
        with pytest.raises(ValueError, match="horizon"):
            compute_stepwise_stats(
                seq, rs, [StatisticKind.TRANSITIVITY], IntervalSpec(np.array([7.0])), triad_pairs=pairs
            )


class TestRunDesign:
    def test_runs_tile_each_dyad(self, rng):
        for _ in range(8):
            seq = random_sequence(rng, int(rng.integers(2, 6)), int(rng.integers(5, 60)))
            span = seq.times[-1] - seq.times[0]
            spec = IntervalSpec(np.unique(np.sort(rng.uniform(0.02 * span, 1.5 * span, 3))))
            rs = RiskSet(seq.n_actors)
            st_ = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
            M, D = len(seq), len(rs)
            dyad, start, stop = run_bounds(st_)
            assert st_.start.dtype == np.int32 and st_.ids.size <= M * D
            # every dyad has a first run at row 0
            assert dyad[-1] == D - 1 and np.all(start < stop)
            for d in range(D):
                starts, stops = start[dyad == d], stop[dyad == d]
                assert starts[0] == 0 and stops[-1] == M
                np.testing.assert_array_equal(starts[1:], stops[:-1])
            dense = to_dense(st_)
            np.testing.assert_array_equal(
                st_.rows[st_.realized], dense[np.arange(M), rs.event_positions(seq)]
            )

    def test_event_that_never_counts_starts_no_run(self):
        """The first event is followed by a gap longer than the horizon, so it
        counts toward no interval and must start no run on any dyad."""
        times = np.r_[0.0, 50.0 + 0.5 * np.arange(10)]
        senders = [0, 1, 2, 1, 3, 2, 1, 3, 2, 1, 2]
        receivers = [1, 2, 3, 3, 1, 1, 2, 2, 1, 3, 3]
        seq = EventSequence(times, senders, receivers, 4)
        rs, spec = RiskSet(4), IntervalSpec(np.array([1.0, 2.5, 6.0]))
        got = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
        want = rescan_stepwise_stats(seq, rs, ALL_KINDS, spec)
        np.testing.assert_array_equal(got.start, want.start)
        np.testing.assert_array_equal(got.rows[got.ids], want.rows[want.ids])
        np.testing.assert_array_equal(got.rows[got.realized], want.rows[want.realized])

    def test_untouched_dyad_has_one_run(self, tiny_seq):
        rs = RiskSet(4)  # actor 3 never appears
        seq = EventSequence(tiny_seq.times, tiny_seq.senders, tiny_seq.receivers, 4)
        kinds = (StatisticKind.INERTIA, StatisticKind.RECIPROCITY)
        st_ = compute_stepwise_stats(seq, rs, kinds, equal_spec(2, 4.0))
        dyad, start, stop = run_bounds(st_)
        for a in range(3):
            for d in (rs.index_of(a, 3), rs.index_of(3, a)):
                mine = np.flatnonzero(dyad == d)
                assert mine.size == 1
                assert (start[mine[0]], stop[mine[0]]) == (0, len(seq))
                np.testing.assert_array_equal(st_.rows[st_.ids[mine[0]]], [1.0, 0, 0, 0, 0])

    def test_design_memory_far_below_dense(self):
        """Scaling guard: 30 actors, 400 events, inertia and reciprocity at
        K = 5. The design must stay well under the dense M x D x P tensor."""
        seq = random_sequence(np.random.default_rng(5), 30, 400)
        rs = RiskSet(30)
        spec = equal_spec(5, 0.5 * (seq.times[-1] - seq.times[0]))
        st_ = compute_stepwise_stats(seq, rs, (StatisticKind.INERTIA, StatisticKind.RECIPROCITY), spec)
        arrays = [v for v in vars(st_).values() if isinstance(v, np.ndarray)]
        design_bytes = sum(a.nbytes for a in arrays) + rs.dyads.nbytes
        M, D, P = len(seq), len(rs), st_.n_columns
        assert design_bytes < M * D * P * 8 / 10


class TestNarrowDesign:
    @pytest.mark.parametrize("n_events, dtype", [(255, np.uint8), (300, np.uint16)])
    def test_type_holds_the_largest_count(self, n_events, dtype):
        """n events on one dyad inside one interval: the last row counts n - 1
        of them, and the type is the smallest that holds that count."""
        times = np.arange(1.0, n_events + 3.0)
        senders = np.r_[np.zeros(n_events, dtype=int), 1, 2]
        receivers = np.r_[np.ones(n_events, dtype=int), 2, 0]
        seq = EventSequence(times, senders, receivers, 3)
        rs = RiskSet(3)
        spec = equal_spec(2, 2.0 * n_events)
        got = compute_stepwise_stats(seq, rs, (StatisticKind.INERTIA, StatisticKind.RECIPROCITY), spec)
        assert got.rows.dtype == dtype
        want = rescan_stepwise_stats(seq, rs, (StatisticKind.INERTIA, StatisticKind.RECIPROCITY), spec)
        np.testing.assert_array_equal(to_dense(got), to_dense(want))
        assert to_dense(got).max() == n_events

    def test_type_widens_after_narrow_columns(self):
        """300 events on one dyad a unit apart: the first interval, (0, 1.5],
        counts at most 1 of them, the second up to 298. So the second column
        widens the type to uint16 after the first was written as uint8."""
        n_events = 300
        times = np.arange(1.0, n_events + 3.0)
        senders = np.r_[np.zeros(n_events, dtype=int), 1, 2]
        receivers = np.r_[np.ones(n_events, dtype=int), 2, 0]
        seq = EventSequence(times, senders, receivers, 3)
        rs, spec = RiskSet(3), IntervalSpec(np.array([1.5, 1000.0]))
        got = compute_stepwise_stats(seq, rs, (StatisticKind.INERTIA,), spec)
        assert got.rows.dtype == np.uint16
        assert got.rows[:, 1].max() == 1 and got.rows[:, 2].max() > 255
        want = rescan_stepwise_stats(seq, rs, (StatisticKind.INERTIA,), spec)
        np.testing.assert_array_equal(to_dense(got), to_dense(want))

    def test_no_kinds_builds_the_intercept(self, rng):
        seq = random_sequence(rng, 4, 30)
        rs, spec = RiskSet(4), equal_spec(2, 0.5 * (seq.times[-1] - seq.times[0]))
        got = compute_stepwise_stats(seq, rs, (), spec)
        assert got.rows.shape == (1, 1) and got.rows.dtype == np.uint8
        np.testing.assert_array_equal(to_dense(got), to_dense(rescan_stepwise_stats(seq, rs, (), spec)))

    def test_rows_own_exactly_the_distinct_states(self, rng):
        """The six-kind rows are column-major, and the array that owns their
        memory holds the U x P states and nothing more: no buffer of every
        run's counts is kept alive behind them."""
        seq = random_sequence(rng, 6, 120)
        rs, spec = RiskSet(6), equal_spec(3, 0.6 * (seq.times[-1] - seq.times[0]))
        got = compute_stepwise_stats(seq, rs, SIX_KINDS, spec)
        assert got.rows.flags.f_contiguous and len(got.rows) < got.ids.size
        owner = got.rows
        while owner.base is not None:
            owner = owner.base
        assert owner.size == got.rows.size
        want = rescan_stepwise_stats(seq, rs, SIX_KINDS, spec)
        np.testing.assert_array_equal(to_dense(got), to_dense(want))

    def test_build_holds_no_float_design(self, wide_seq):
        """Memory guard: the six-kind build at K = 5 (closure precompute
        included) peaks below 0.43 of one runs x columns float64 array. It
        reads about 0.39 with one key per boundary crossing; an enter key and
        a leave key per interval read 0.47."""
        tracemalloc.start()
        try:
            st_ = compute_stepwise_stats(wide_seq, RiskSet(10), SIX_KINDS, equal_spec(5, 20.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.rows.dtype.kind == "u"
        assert peak < 0.43 * st_.ids.size * st_.n_columns * 8


def key_space(st_) -> int:
    """The product over columns of (largest count + 1): the number of keys an
    exact mixed-radix key of the rows needs."""
    return math.prod(int(col.max()) + 1 for col in st_.rows.T)


class TestDistinctStates:
    def assert_rows_exact(self, got, want):
        """The built rows are pairwise distinct, and each run's row is the
        oracle's state of that run."""
        assert len(np.unique(got.rows, axis=0)) == len(got.rows)
        assert got.ids.max() == len(got.rows) - 1
        assert got.ids.dtype == np.min_scalar_type(len(got.rows) - 1)
        np.testing.assert_array_equal(got.start, want.start)
        np.testing.assert_array_equal(got.rows[got.ids], want.rows[want.ids])
        np.testing.assert_array_equal(got.rows[got.realized], want.rows[want.realized])

    def test_rows_reproduce_states_on_every_kind(self, rng):
        for kind in ALL_KINDS:
            seq = random_sequence(rng, 5, 80)
            span = seq.times[-1] - seq.times[0]
            rs, spec = RiskSet(5), equal_spec(3, 0.6 * span)
            st_ = compute_stepwise_stats(seq, rs, (kind,), spec)
            self.assert_rows_exact(st_, rescan_stepwise_stats(seq, rs, (kind,), spec))
            assert len(st_.rows) < st_.ids.size  # some runs share a state

    def test_rows_exact_on_random_sequences(self, rng):
        for _ in range(8):
            seq = random_sequence(rng, int(rng.integers(2, 7)), int(rng.integers(5, 90)))
            span = seq.times[-1] - seq.times[0]
            spec = IntervalSpec(np.unique(np.sort(rng.uniform(0.02 * span, 1.5 * span, 4))))
            rs = RiskSet(seq.n_actors)
            got = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
            self.assert_rows_exact(got, rescan_stepwise_stats(seq, rs, ALL_KINDS, spec))

    def test_rows_exact_above_2_63_key_space(self, rng):
        """The six-kind K = 5 design of 240 events among 6 actors, with the
        horizon over the whole sequence: its counts need a key space above
        2^63, so compute_stepwise_stats re-ranks its partial key on the way."""
        seq = random_sequence(rng, 6, 240)
        rs, spec = RiskSet(6), equal_spec(5, seq.times[-1] - seq.times[0])
        got = compute_stepwise_stats(seq, rs, SIX_KINDS, spec)
        assert key_space(got) >= 2**63
        self.assert_rows_exact(got, rescan_stepwise_stats(seq, rs, SIX_KINDS, spec))


    def test_rows_exact_where_a_wrapped_key_collides(self):
        """15 events on one dyad within 0.15, then one event on another dyad
        at every half age 0.5, 1.5, ..., 16.5: each of 17 unit inertia
        intervals holds all 15 at some row, so every digit has radix 16, and
        an unranked key would wrap the first digit to 0 mod 16^16 = 2^64."""
        times = np.r_[np.arange(15) * 0.01, np.arange(17) + 0.5]
        seq = EventSequence(times, [0] * 15 + [1] * 17, [1] * 15 + [2] * 17, 3)
        rs, spec = RiskSet(3), IntervalSpec(np.arange(1.0, 18.0))
        got = compute_stepwise_stats(seq, rs, (StatisticKind.INERTIA,), spec)
        assert all(col.max() == 15 for col in got.rows.T[1:])
        self.assert_rows_exact(got, rescan_stepwise_stats(seq, rs, (StatisticKind.INERTIA,), spec))


def continuous_stats(seq, rs, kinds, decay_per_kind):
    """Continuously weighted statistics from the simulator's intensity engine.

    With beta0 = 0 and a single effect, the log rate of every dyad at t_m,
    given the events before it, is that effect's weighted statistic.
    Returns values[m, dyad, column] with the intercept in column 0.
    """
    values = np.zeros((len(seq), len(rs), 1 + len(kinds)))
    values[:, :, 0] = 1.0
    for c, kind in enumerate(kinds):
        cfg = SimConfig(n_actors=seq.n_actors, beta0=0.0, n_events=1,
                        effects={kind: decay_per_kind[kind]})
        state = _HistoryState(cfg, rs)
        events = zip(seq.times.tolist(), seq.senders.tolist(), seq.receivers.tolist())
        for m, (t, s, r) in enumerate(events):
            values[m, :, 1 + c] = state.log_rates(t)
            state.append(t, rs.index_of(s, r))
    return values


# every other kind Weibull, the rest linear
MIXED_DECAYS = {
    k: WeibullDecay(scale=3.0, shape=1.0, peak=0.5) if i % 2 == 0 else LinearDecay(6.0, 1.0)
    for i, k in enumerate(ALL_KINDS)
}


class TestContinuous:
    def test_unit_weight_equals_single_interval_counts(self, rng):
        seq = random_sequence(rng, 4, 40)
        rs = RiskSet(4)
        horizon = 0.7 * (seq.times[-1] - seq.times[0])
        spec = IntervalSpec(np.array([horizon]))
        unit = StepwiseDecay(spec, (1.0,))
        cont = continuous_stats(seq, rs, ALL_KINDS, {k: unit for k in ALL_KINDS})
        step = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
        np.testing.assert_array_equal(cont, to_dense(step))

    def test_zero_decay_gives_zeros(self, rng):
        seq = random_sequence(rng, 3, 15)
        rs = RiskSet(3)
        zero = StepwiseDecay(IntervalSpec(np.array([100.0])), (0.0,))
        cont = continuous_stats(seq, rs, [StatisticKind.INERTIA], {StatisticKind.INERTIA: zero})
        assert np.all(cont[:, :, 1:] == 0.0)

    def test_exponential_weights_match_hand_sum(self):
        times = [1.0, 2.0, 4.0, 7.0]
        seq = EventSequence(times, [0, 1, 0, 0], [1, 0, 1, 1], 2)
        rs = RiskSet(2)
        fn = WeibullDecay(scale=10.0, shape=1.0, peak=0.3)
        cont = continuous_stats(seq, rs, [StatisticKind.INERTIA], {StatisticKind.INERTIA: fn})
        # at the 4th time, dyad (0,1) saw events at ages 6 and 3
        expected = 0.3 * (np.exp(-6 / 10) + np.exp(-3 / 10))
        assert cont[3, rs.index_of(0, 1), 1] == pytest.approx(expected, rel=1e-14)
        # reciprocity column via the reversed dyad: event at age 5
        cont_r = continuous_stats(
            seq, rs, [StatisticKind.RECIPROCITY], {StatisticKind.RECIPROCITY: fn}
        )
        assert cont_r[3, rs.index_of(0, 1), 1] == pytest.approx(
            0.3 * np.exp(-5 / 10), rel=1e-14
        )

    def test_matches_loop_oracle_all_kinds(self, rng):
        seq = random_sequence(rng, 4, 18)
        rs = RiskSet(4)
        cont = continuous_stats(seq, rs, ALL_KINDS, MIXED_DECAYS)
        want = loop_continuous_stats(seq, rs, ALL_KINDS, MIXED_DECAYS)
        np.testing.assert_allclose(cont, want, rtol=1e-12, atol=1e-12)

    def test_one_history_serves_every_kind(self, rng):
        # all eight kinds read the same event dyads and closure pairs; with
        # beta0 = 0 the log rate is the sum of the weighted statistics
        seq = random_sequence(rng, 4, 18)
        rs = RiskSet(4)
        want = loop_continuous_stats(seq, rs, ALL_KINDS, MIXED_DECAYS)[:, :, 1:].sum(axis=2)
        cfg = SimConfig(n_actors=4, beta0=0.0, n_events=1, effects=MIXED_DECAYS)
        state = _HistoryState(cfg, rs)
        env = state.log_rates(seq.times[0], dominating=True)
        events = zip(seq.times.tolist(), seq.senders.tolist(), seq.receivers.tolist())
        for m, (t, s, r) in enumerate(events):
            got = state.log_rates(t)
            np.testing.assert_allclose(got, want[m], rtol=1e-12, atol=1e-12)
            assert np.all(got <= env)  # the envelope taken at the previous event
            state.append(t, rs.index_of(s, r))
            env = state.log_rates(t, dominating=True)

    def test_negative_decay_rejected(self, rng):
        seq = random_sequence(rng, 3, 8)
        rs = RiskSet(3)
        bad = StepwiseDecay(IntervalSpec(np.array([50.0])), (-0.1,))
        with pytest.raises(Exception, match="negative"):
            continuous_stats(seq, rs, [StatisticKind.INERTIA], {StatisticKind.INERTIA: bad})


def _spec_strategy(draw, span):
    K = draw(st.integers(1, 4))
    fracs = sorted(draw(st.lists(st.floats(0.05, 1.4), min_size=K, max_size=K, unique=True)))
    return IntervalSpec(np.asarray(fracs) * span)


@st.composite
def _seq_and_spec(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_actors = int(rng.integers(2, 6))
    seq = random_sequence(rng, n_actors, int(rng.integers(4, 36)))
    span = float(seq.times[-1] - seq.times[0]) or 1.0
    return seq, _spec_strategy(draw, span), seed


@settings(max_examples=25, deadline=None)
@given(data=_seq_and_spec())
def test_interval_additivity_property(data):
    """Splitting one interval in two leaves the summed counts unchanged."""
    seq, spec, seed = data
    rs = RiskSet(seq.n_actors)
    rng = np.random.default_rng(seed + 1)
    k = int(rng.integers(0, spec.size))
    lo = 0.0 if k == 0 else spec.gamma[k - 1]
    cut = float(rng.uniform(lo, spec.gamma[k]))
    if cut <= lo or cut >= spec.gamma[k]:
        return
    refined = IntervalSpec(np.sort(np.append(spec.gamma, cut)))
    base = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, spec))
    fine = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, refined))
    K, Kf = spec.size, refined.size
    for b, kind in enumerate(ALL_KINDS):
        coarse_block = base[:, :, 1 + b * K : 1 + (b + 1) * K]
        fine_block = fine[:, :, 1 + b * Kf : 1 + (b + 1) * Kf]
        merged = np.concatenate(
            [
                fine_block[:, :, :k],
                (fine_block[:, :, k] + fine_block[:, :, k + 1])[:, :, None],
                fine_block[:, :, k + 2 :],
            ],
            axis=2,
        )
        np.testing.assert_array_equal(coarse_block, merged)


@settings(max_examples=25, deadline=None)
@given(data=_seq_and_spec())
def test_union_and_horizon_monotonicity_property(data):
    """Summing all interval columns equals the single-interval count, and
    growing the horizon never decreases any count."""
    seq, spec, _ = data
    rs = RiskSet(seq.n_actors)
    multi = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, spec))
    single = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, IntervalSpec(spec.gamma[-1:])))
    K = spec.size
    for b in range(len(ALL_KINDS)):
        block_sum = multi[:, :, 1 + b * K : 1 + (b + 1) * K].sum(axis=2)
        np.testing.assert_array_equal(block_sum, single[:, :, 1 + b])
    bigger = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, IntervalSpec(spec.gamma[-1:] * 1.7)))
    assert np.all(bigger[:, :, 1:] >= single[:, :, 1:])


@settings(max_examples=20, deadline=None)
@given(data=_seq_and_spec())
def test_no_lookahead_property(data):
    """Permuting the dyads of later events leaves earlier rows unchanged."""
    seq, spec, seed = data
    if len(seq) < 6:
        return
    rs = RiskSet(seq.n_actors)
    m_cut = len(seq) // 2
    rng = np.random.default_rng(seed + 2)
    senders = np.array(seq.senders)
    receivers = np.array(seq.receivers)
    tail = np.arange(m_cut, len(seq))
    perm = rng.permutation(tail)
    senders[tail], receivers[tail] = senders[perm], receivers[perm]
    other = EventSequence(seq.times, senders, receivers, seq.n_actors)
    a = to_dense(compute_stepwise_stats(seq, rs, ALL_KINDS, spec))
    b = to_dense(compute_stepwise_stats(other, rs, ALL_KINDS, spec))
    np.testing.assert_array_equal(a[:m_cut], b[:m_cut])


def test_column_index_lookup(rng):
    seq = random_sequence(rng, 3, 6)
    rs = RiskSet(3)
    kinds = [StatisticKind.INERTIA, StatisticKind.RECIPROCITY]
    st_ = compute_stepwise_stats(seq, rs, kinds, equal_spec(3, 5.0))
    assert st_.labels.index("inertia_k1") == 1
    assert st_.labels.index("reciprocity_k3") == 6
    assert st_.labels[5] == "reciprocity_k2"
    # the trend reads a fit's columns with the same layout
    fit = SimpleNamespace(n_params=st_.n_columns, kinds=st_.kinds, spec=st_.spec)
    for kind in kinds:
        cols = _model_columns(fit, kind, st_.spec.gamma)
        assert [st_.labels[c] for c in cols] == [f"{kind.value}_k{k}" for k in (1, 2, 3)]
