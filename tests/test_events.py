import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remdecay.events import EventDataError, EventSequence, RiskSet, load_events, spread_ties

CSV3 = "time,sender,receiver\n1.0,a,b\n2.0,b,c\n3.5,c,a\n"


class TestLoadEvents:
    def test_three_rows_distinct_times(self):
        seq = load_events(io.StringIO(CSV3))
        assert len(seq) == 3
        assert np.all(np.diff(seq.times) > 0)
        assert seq.n_actors == 3
        assert seq.labels == ("a", "b", "c")

    def test_ninety_dyads_from_ten_labels(self):
        rows = ["time,sender,receiver"]
        labels = [f"actor{i}" for i in range(10)]
        for m in range(30):
            rows.append(f"{m + 1}.0,{labels[m % 10]},{labels[(m + 3) % 10]}")
        seq = load_events(io.StringIO("\n".join(rows)))
        assert seq.n_actors == 10
        assert len(RiskSet(seq.n_actors)) == 90

    def test_spread_policy_three_same_day(self):
        csv = "time,sender,receiver\n7,a,b\n7,b,a\n7,a,c\n"
        seq = load_events(io.StringIO(csv), tie_policy="spread", tie_unit=1.0)
        np.testing.assert_allclose(seq.times, [7.25, 7.5, 7.75])

    def test_custom_columns(self):
        csv = "when,src,dst\n1.0,x,y\n2.0,y,x\n"
        columns = {"time": "when", "sender": "src", "receiver": "dst"}
        seq = load_events(io.StringIO(csv), columns=columns)
        assert len(seq) == 2

    def test_errors_report_row_numbers(self):
        with pytest.raises(EventDataError, match="row 2"):
            load_events(io.StringIO("time,sender,receiver\n1.0,a,b\nnope,b,a\n"))
        with pytest.raises(EventDataError, match="row 2: unparsable time 'nan'"):
            load_events(io.StringIO("time,sender,receiver\n1.0,a,b\nnan,b,a\n3.0,a,b\n"))
        with pytest.raises(EventDataError, match="row 3: unparsable time 'inf'"):
            load_events(io.StringIO("time,sender,receiver\n1.0,a,b\n2.0,b,a\ninf,a,b\n"))
        with pytest.raises(EventDataError, match="row 2.*self-loop"):
            load_events(io.StringIO("time,sender,receiver\n1.0,a,b\n2.0,b,b\n"))
        with pytest.raises(EventDataError, match="row 2.*backwards"):
            load_events(io.StringIO("time,sender,receiver\n3.0,a,b\n2.0,b,a\n"))
        with pytest.raises(EventDataError, match="tied"):
            load_events(io.StringIO("time,sender,receiver\n1.0,a,b\n1.0,b,a\n"))

    def test_roundtrip_identity(self, tmp_path):
        seq = load_events(io.StringIO(CSV3))
        path = tmp_path / "events.csv"
        seq.to_csv(path)
        for source in (path, str(path)):
            again = load_events(source)
            assert np.array_equal(again.times, seq.times)
            assert np.array_equal(again.senders, seq.senders)
            assert np.array_equal(again.receivers, seq.receivers)

    def test_utf8_bom_path_loads_like_plain(self, tmp_path):
        # spreadsheet exports start the file with a BOM; a path is decoded as utf-8-sig
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(CSV3.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + CSV3.encode())
        want, got = load_events(plain), load_events(bom)
        for name in ("times", "senders", "receivers"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.labels == want.labels == ("a", "b", "c")


class TestSpreadTies:
    def test_single_event_unchanged(self):
        out = spread_ties(np.array([5.0]), unit=1.0)
        assert out[0] == 5.0

    def test_two_events_at_zero(self):
        csv = "time,sender,receiver\n0,a,b\n0,b,a\n"
        seq = load_events(io.StringIO(csv), tie_policy="spread", tie_unit=1.0)
        np.testing.assert_allclose(seq.times, [1 / 3, 2 / 3])

    def test_four_events_unit_one(self):
        csv = "time,sender,receiver\n2,a,b\n2,b,a\n2,a,c\n2,c,a\n"
        seq = load_events(io.StringIO(csv), tie_policy="spread", tie_unit=1.0)
        np.testing.assert_allclose(seq.times, [2.2, 2.4, 2.6, 2.8])

    def test_overlap_next_timestamp_rejected(self):
        csv = "time,sender,receiver\n0,a,b\n0,b,a\n0.5,a,b\n"
        with pytest.raises(EventDataError, match="overlap"):
            load_events(io.StringIO(csv), tie_policy="spread", tie_unit=1.0)

    @pytest.mark.parametrize("unit", [float("nan"), float("inf"), 0.0, 1e-300])
    def test_unit_that_cannot_spread_rejected_by_name(self, unit):
        """A unit that is not finite and > 0, or below the float resolution
        of the tied time, is an error that names the option, not a later
        complaint about the times."""
        csv = "time,sender,receiver\n2,a,b\n2,b,a\n2,a,c\n3,c,a\n"
        with pytest.raises(EventDataError, match="tie_unit"):
            load_events(io.StringIO(csv), tie_policy="spread", tie_unit=unit)

    def test_order_preserved_within_block(self):
        csv = "time,sender,receiver\n3,a,b\n3,c,a\n4,b,c\n"
        seq = load_events(io.StringIO(csv), tie_policy="spread", tie_unit=1.0)
        assert seq.labels == ("a", "b", "c")
        assert (seq.senders[0], seq.receivers[0]) == (0, 1)
        assert (seq.senders[1], seq.receivers[1]) == (2, 0)
        assert np.all(np.diff(seq.times) > 0)


class TestRiskSet:
    def test_two_actors(self):
        rs = RiskSet(2)
        assert [tuple(d) for d in rs.dyads] == [(0, 1), (1, 0)]

    def test_ten_actors_ninety_dyads(self):
        assert len(RiskSet(10)) == 90

    def test_three_actors_lexicographic(self):
        rs = RiskSet(3)
        assert [tuple(d) for d in rs.dyads] == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
        ]

    def test_index_of_matches_order(self):
        rs = RiskSet(5)
        for pos, (s, r) in enumerate(rs.dyads):
            assert rs.index_of(int(s), int(r)) == pos
        pos = rs.positions(rs.senders, rs.receivers)
        np.testing.assert_array_equal(pos, np.arange(len(rs)))

    def test_too_few_actors(self):
        with pytest.raises(EventDataError):
            RiskSet(1)

    def test_every_event_dyad_is_member(self, tiny_seq, tiny_rs):
        pos = tiny_rs.event_positions(tiny_seq)
        assert np.all((0 <= pos) & (pos < len(tiny_rs)))
        for m, p in enumerate(pos):
            assert tuple(tiny_rs.dyads[p]) == (tiny_seq.senders[m], tiny_seq.receivers[m])


class TestEventSequence:
    def test_event_validation(self):
        with pytest.raises(EventDataError, match="self-loop"):
            EventSequence([0.5], [1], [1], 2)
        with pytest.raises(EventDataError, match="nonnegative"):
            EventSequence([-1.0], [0], [1], 2)
        with pytest.raises(EventDataError, match="finite.*event 1"):
            EventSequence([1.0, np.nan, 3.0], [0, 1, 0], [1, 0, 1], 2)

    def test_strictly_increasing_enforced(self):
        with pytest.raises(EventDataError, match="strictly increasing"):
            EventSequence([1.0, 1.0], [0, 1], [1, 0], 2)

    def test_t0_before_first_event(self):
        # a non-finite t0 would make the first wait, and so exposures, non-finite
        for t0 in (2.0, np.inf, -np.inf, np.nan):
            with pytest.raises(EventDataError, match="t0"):
                EventSequence([1.0], [0], [1], 2, t0=t0)

    def test_immutable(self, tiny_seq):
        with pytest.raises(AttributeError):
            tiny_seq.t0 = 3.0
        with pytest.raises(ValueError):
            tiny_seq.times[0] = 0.0

    def test_pickle_roundtrip(self):
        seq = load_events(io.StringIO(CSV3), t0=0.5)
        again = pickle.loads(pickle.dumps(seq))
        assert again == seq
        assert again.labels == ("a", "b", "c") and again.t0 == 0.5
        with pytest.raises(ValueError):
            again.times[0] = 0.0


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=6
    ),
    unit=st.floats(0.05, 0.9),
)
def test_spread_property(blocks, unit):
    """After spreading, times are strictly increasing, stay inside their own
    day, and singleton blocks are untouched."""
    times, senders, receivers = [], [], []
    day = 0.0
    for size, gap in blocks:
        day += 1.0 + gap
        for k in range(size):
            times.append(day)
            senders.append(k % 2)
            receivers.append((k + 1) % 2)
    raw = "time,sender,receiver\n" + "".join(
        f"{t},{'ab'[s]},{'ab'[r]}\n" for t, s, r in zip(times, senders, receivers)
    )
    seq = load_events(io.StringIO(raw), tie_policy="spread", tie_unit=unit)
    assert np.all(np.diff(seq.times) > 0)
    arr = np.asarray(times)
    for t_orig, t_new in zip(arr, seq.times):
        assert t_orig <= t_new < t_orig + unit
    for blk in np.unique(arr):
        idx = np.flatnonzero(arr == blk)
        if idx.size == 1:
            assert seq.times[idx[0]] == blk
