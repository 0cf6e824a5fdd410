import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remdecay.decay import LinearDecay, StepwiseDecay, WeibullDecay
from remdecay.events import EventSequence, RiskSet
from remdecay.intervals import IntervalSpec, equal_spec
from remdecay.sim import SimConfig, _HistoryState
from remdecay.stats import StatisticKind, build_triad_pairs, compute_stepwise_stats

from oracle import (
    loop_continuous_stats,
    loop_stepwise_stats,
    random_sequence,
    rescan_stepwise_stats,
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
        row = st_.values[14, rs.index_of(0, 1)]
        np.testing.assert_array_equal(row[1:], [1.0, 3.0, 2.0])

    def test_single_interval_recovers_plain_count(self):
        seq = three_interval_inertia_sequence()
        rs = RiskSet(3)
        spec = IntervalSpec(np.array([6.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.INERTIA], spec)
        assert st_.values[14, rs.index_of(0, 1), 1] == 6.0

    def test_empty_history_row_is_zero(self):
        seq = three_interval_inertia_sequence()
        rs = RiskSet(3)
        st_ = compute_stepwise_stats(seq, rs, ALL_KINDS, equal_spec(3, 6.0))
        assert st_.values[0, :, 0].min() == 1.0  # intercept
        assert np.all(st_.values[0, :, 1:] == 0.0)


class TestClosureMicro:
    def test_transitivity_counts_both_windows(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([15.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.TRANSITIVITY], spec)
        assert st_.values[14, rs.index_of(0, 1), 1] == 3.0

    def test_interval_split_keeps_total(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([5.0, 15.0]))
        st_ = compute_stepwise_stats(seq, rs, [StatisticKind.TRANSITIVITY], spec)
        row = st_.values[14, rs.index_of(0, 1)]
        # newer mediation (age 2.2) in interval 1, older (age 6.8) in interval 2
        np.testing.assert_array_equal(row[1:], [1.0, 2.0])

    def test_matches_loop_oracle(self):
        seq = closure_example_sequence()
        rs = RiskSet(4)
        spec = IntervalSpec(np.array([4.0, 9.0, 15.0]))
        kinds = [StatisticKind.TRANSITIVITY, StatisticKind.CYCLIC]
        st_ = compute_stepwise_stats(seq, rs, kinds, spec)
        np.testing.assert_array_equal(st_.values, loop_stepwise_stats(seq, rs, kinds, spec))


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
                got.values, loop_stepwise_stats(seq, rs, ALL_KINDS, spec)
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
            np.testing.assert_array_equal(got.values, want.values)

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
            np.testing.assert_array_equal(a.values, b.values)

    def test_horizon_mismatch_rejected(self, rng):
        seq = random_sequence(rng, 3, 10)
        rs = RiskSet(3)
        pairs = build_triad_pairs(seq, rs, 5.0)
        with pytest.raises(ValueError, match="horizon"):
            compute_stepwise_stats(
                seq, rs, [StatisticKind.TRANSITIVITY], IntervalSpec(np.array([7.0])), triad_pairs=pairs
            )


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
        for m, ev in enumerate(seq):
            values[m, :, 1 + c] = state.log_rates(ev.time)
            state.append(ev.time, ev.sender, ev.receiver)
    return values


class TestContinuous:
    def test_unit_weight_equals_single_interval_counts(self, rng):
        seq = random_sequence(rng, 4, 40)
        rs = RiskSet(4)
        horizon = 0.7 * (seq.times[-1] - seq.times[0])
        spec = IntervalSpec(np.array([horizon]))
        unit = StepwiseDecay(spec, (1.0,))
        cont = continuous_stats(seq, rs, ALL_KINDS, {k: unit for k in ALL_KINDS})
        step = compute_stepwise_stats(seq, rs, ALL_KINDS, spec)
        np.testing.assert_array_equal(cont, step.values)

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
        decays = {
            k: WeibullDecay(scale=3.0, shape=1.0, peak=0.5) if i % 2 == 0 else LinearDecay(6.0, 1.0)
            for i, k in enumerate(ALL_KINDS)
        }
        cont = continuous_stats(seq, rs, ALL_KINDS, decays)
        want = loop_continuous_stats(seq, rs, ALL_KINDS, decays)
        np.testing.assert_allclose(cont, want, rtol=1e-12, atol=1e-12)

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
    base = compute_stepwise_stats(seq, rs, ALL_KINDS, spec).values
    fine = compute_stepwise_stats(seq, rs, ALL_KINDS, refined).values
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
    multi = compute_stepwise_stats(seq, rs, ALL_KINDS, spec).values
    single = compute_stepwise_stats(
        seq, rs, ALL_KINDS, IntervalSpec(spec.gamma[-1:])
    ).values
    K = spec.size
    for b in range(len(ALL_KINDS)):
        block_sum = multi[:, :, 1 + b * K : 1 + (b + 1) * K].sum(axis=2)
        np.testing.assert_array_equal(block_sum, single[:, :, 1 + b])
    bigger = compute_stepwise_stats(
        seq, rs, ALL_KINDS, IntervalSpec(spec.gamma[-1:] * 1.7)
    ).values
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
    a = compute_stepwise_stats(seq, rs, ALL_KINDS, spec).values
    b = compute_stepwise_stats(other, rs, ALL_KINDS, spec).values
    np.testing.assert_array_equal(a[:m_cut], b[:m_cut])


def test_column_index_lookup(rng):
    seq = random_sequence(rng, 3, 6)
    rs = RiskSet(3)
    kinds = [StatisticKind.INERTIA, StatisticKind.RECIPROCITY]
    st_ = compute_stepwise_stats(seq, rs, kinds, equal_spec(3, 5.0))
    assert st_.column_index(StatisticKind.INERTIA, 1) == 1
    assert st_.column_index(StatisticKind.RECIPROCITY, 3) == 6
    assert st_.labels[st_.column_index(StatisticKind.RECIPROCITY, 2)] == "reciprocity_k2"
