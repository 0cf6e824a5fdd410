"""Endogenous network statistics per event time, dyad, and memory interval.

Event row m holds the statistics in force on (t_{m-1}, t_m]: they are
computed from events strictly before t_m, and drive both the hazard of the
event at t_m and the survival increment over the waiting time. The design
stores them as per-dyad runs of rows over which a dyad's statistics do not
change, held as their distinct statistic vectors (see ``StatTensor``).

A past event changes a dyad's statistics at a crossing time: t_e + g when
its age passes the bound g, and 2 t_outer - t_inner when a closure pair
switches on (the outer event's backward window reaches the inner event).
Each crossing takes effect at the row whose wait holds its time, found by
one ``np.searchsorted`` over the event times: ``side="right"`` for a bound
(an age equal to g is still inside g) and ``side="left"`` for an activation
(a window that reaches the inner time holds it). So with T = (t0, times),
T[row] <= crossing time <= T[row + 1], and any rescan that applies the same
two rules agrees with this engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .events import EventSequence, RiskSet
from .intervals import IntervalSpec

__all__ = [
    "StatisticKind",
    "StatTensor",
    "TriadPairs",
    "build_triad_pairs",
    "closure_partners",
    "closure_positions",
    "compute_stepwise_stats",
    "touched_dyads",
]


class StatisticKind(str, Enum):
    INERTIA = "inertia"
    RECIPROCITY = "reciprocity"
    INDEGREE_SENDER = "indegree_sender"
    OUTDEGREE_SENDER = "outdegree_sender"
    INDEGREE_RECEIVER = "indegree_receiver"
    OUTDEGREE_RECEIVER = "outdegree_receiver"
    TRANSITIVITY = "transitivity_closure"
    CYCLIC = "cyclic_closure"


SECOND_ORDER = (StatisticKind.TRANSITIVITY, StatisticKind.CYCLIC)


@dataclass
class StatTensor:
    """Run-length design held as its distinct states.

    A run is a span of event rows over which one dyad's statistic vector does
    not change. Runs are sorted by (dyad, start row) and each dyad's runs tile
    [0, M): a dyad's first run starts at row 0, and run r stops where run
    r + 1 starts (at M when that run starts at row 0, or r is the last run).
    ``rows`` holds the distinct statistic vectors, ``ids[r]`` is run r's row
    and ``realized[m]`` the row of the event's own dyad at event row m.
    ``waits[m]`` = T[m + 1] - T[m], with T = (t0, times), is the wait that
    ends at event m and ``exposure[u]`` the summed wait T[stop] - T[start] of
    the runs in state u: a dyad's rate is constant over a run, so the
    likelihood reads the runs and the waits only through ``exposure`` and
    ``row_sums``. Column 0 is the intercept (identically 1); the remaining
    columns are one block per statistic kind, in declared order, with one
    column per memory interval. Memory grows with the number of state
    changes, not M x N(N-1).

    Every entry is an exact count, so ``compute_stepwise_stats`` stores
    ``rows`` column-major in the smallest unsigned integer type that holds
    its largest count (``np.min_scalar_type``: uint8 up to 255, then uint16,
    ...), ``ids`` in the smallest unsigned type that holds U - 1, and
    ``start`` as int32. Its ``rows`` is a view of one run-state buffer,
    compacted in place to the U distinct states, whose memory holds exactly
    U x P entries. Consumers cast rows to float64 one block at a time.
    Designs built by hand may hold any real dtype; they carry ``waits`` and
    ``exposure`` too.
    """

    rows: np.ndarray
    ids: np.ndarray
    start: np.ndarray
    realized: np.ndarray
    waits: np.ndarray
    exposure: np.ndarray
    labels: tuple[str, ...]
    kinds: tuple[StatisticKind, ...]
    spec: IntervalSpec | None = None

    @property
    def n_events(self) -> int:
        return self.realized.size

    @property
    def n_columns(self) -> int:
        return self.rows.shape[1]

    def row_sums(self, columns: Iterable[np.ndarray], n_columns: int) -> np.ndarray:
        """The (M, C) integrals over each event's wait of ``n_columns``
        per-state columns (each of length U): row m is the sum over the runs
        in force at row m, times ``waits[m]``. A column is added at its runs'
        start rows and taken off at their stop rows, one ``np.bincount`` each,
        and the differences are summed down the rows; no runs x columns array
        is formed. Non-finite values give non-finite sums from their first
        row on."""
        M = self.n_events
        runs = (self.ids, self.start, _stops(self.start, M))
        ids, starts, stops = (np.asarray(a, dtype=np.intp) for a in runs)
        out = np.empty((M, n_columns))
        for c, column in enumerate(columns):
            w = column.take(ids)
            delta = np.bincount(starts, w, minlength=M + 1) - np.bincount(stops, w, minlength=M + 1)
            np.cumsum(delta[:M], out=out[:, c])
        out *= self.waits[:, None]
        return out


def _stops(start: np.ndarray, M: int) -> np.ndarray:
    """Each run's stop row: the next run's start, or M after a dyad's last run."""
    stop = np.append(start[1:], start.dtype.type(M))
    stop[stop == 0] = M
    return stop


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One position of each distinct value of ``key``, in increasing order of
    the values, and each entry's index among the distinct values, in the
    smallest unsigned type that holds it. Unlike np.unique(return_index=True,
    return_inverse=True), it needs no stable sort, and its only key-length
    intp array is the sort order."""
    order = np.argsort(key)
    ranked = key[order]
    new = np.empty(ranked.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    del ranked
    first = order[new]
    index = np.empty(order.size, dtype=np.min_scalar_type(first.size - 1))
    rank = np.cumsum(new, dtype=index.dtype)
    del new
    rank -= 1
    index[order] = rank
    return first, index


def _closes(senders: np.ndarray, receivers: np.ndarray, inner, outer) -> np.ndarray:
    """The closure rule: inner event pairs with outer event when the inner
    receiver is the outer sender and the inner sender is not the outer
    receiver (that pair would close onto a self-loop). ``inner`` and
    ``outer`` index the events: index arrays of one shape, a slice, or an int."""
    return (receivers[inner] == senders[outer]) & (senders[inner] != receivers[outer])


def closure_partners(senders: np.ndarray, receivers: np.ndarray, lo: int, e: int) -> np.ndarray:
    """The events among lo..e-1 that pair as the inner event with outer event
    e under the closure rule of ``_closes``."""
    return lo + np.flatnonzero(_closes(senders, receivers, slice(lo, e), e))


def closure_positions(
    rs: RiskSet, kind: StatisticKind, inner_senders: np.ndarray, outer_receivers: np.ndarray | int
) -> np.ndarray:
    """Risk-set positions that closure pairs count toward: (i, j) for
    transitivity and (j, i) for cyclic closure, where i is the inner sender
    and j the outer receiver."""
    if kind is StatisticKind.TRANSITIVITY:
        return rs.positions(inner_senders, outer_receivers)
    return rs.positions(outer_receivers, inner_senders)


def touched_dyads(
    rs: RiskSet, kind: StatisticKind, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """(n, width) risk-set positions whose first-order ``kind`` statistic
    counts each event (senders[m], receivers[m]): the dyad itself, its
    reverse, or the N-1 dyads sent or received by the event's sender or
    receiver."""
    if kind is StatisticKind.INERTIA:
        return rs.positions(senders, receivers)[:, None]
    if kind is StatisticKind.RECIPROCITY:
        return rs.positions(receivers, senders)[:, None]
    N = rs.n_actors
    by_sender = np.arange(len(rs)).reshape(N, N - 1)
    by_receiver = np.argsort(rs.receivers, kind="stable").reshape(N, N - 1)
    table = {
        StatisticKind.INDEGREE_SENDER: (by_sender, receivers),
        StatisticKind.OUTDEGREE_SENDER: (by_sender, senders),
        StatisticKind.INDEGREE_RECEIVER: (by_receiver, receivers),
        StatisticKind.OUTDEGREE_RECEIVER: (by_receiver, senders),
    }
    dyads, actor = table[kind]
    return dyads[actor]


@dataclass(frozen=True)
class TriadPairs:
    """Spec-independent precompute for the closure statistics.

    One entry per pair of events (inner, outer) that ``closure_partners``
    pairs: the pair starts counting toward its ``closure_positions`` of each
    closure kind at ``act_row``, the row of its activation time
    2 t_outer - t_inner. Pairs that activate only after the outer event
    leaves the horizon are dropped at build time.
    """

    horizon: float
    outer: np.ndarray
    act_row: np.ndarray
    positions: dict[StatisticKind, np.ndarray]

    @property
    def n_pairs(self) -> int:
        return self.outer.size


def _check_actors(seq: EventSequence, rs: RiskSet) -> None:
    if rs.n_actors != seq.n_actors:
        raise ValueError(f"risk set has {rs.n_actors} actors, the sequence {seq.n_actors}")


def build_triad_pairs(seq: EventSequence, rs: RiskSet, horizon: float) -> TriadPairs:
    """Every (inner, outer) pair of ``closure_partners`` in one vectorized pass.

    Each outer event e searches the inner window [lo, e) that its backward
    search reaches by the last row before e leaves the horizon. Events are
    grouped by receiver, so the candidates of e are one contiguous slice of
    its sender's group; the slices are expanded with ``np.repeat``, and a
    candidate is kept when it pairs under the closure rule and its
    activation row is at most e's last row.
    """
    _check_actors(seq, rs)
    times, S, R = seq.times, seq.senders, seq.receivers
    M = times.size
    last_row = np.searchsorted(times, times + float(horizon), side="right") - 1
    e = np.flatnonzero(last_row > np.arange(M))
    te = times[e]
    # 2 te - t_inner rounds down onto times[last_row] from up to half an ulp
    # above it, where t_inner < 2 te - times[last_row]: so the window starts
    # one ulp of times[last_row] further back, and the candidates that
    # activate after the last row are dropped below
    lo = np.searchsorted(times, 2.0 * te - np.nextafter(times[last_row[e]], np.inf), side="left")
    # events keyed by (receiver, index): the inner candidates of e are the
    # keys in [S[e] * M + lo, S[e] * M + e)
    by_receiver = np.argsort(R, kind="stable")
    keys = R[by_receiver] * M + by_receiver
    left = np.searchsorted(keys, S[e] * M + lo)
    count = np.searchsorted(keys, S[e] * M + e) - left
    outer = np.repeat(e, count)
    slot = np.arange(outer.size) - np.repeat(np.cumsum(count) - count - left, count)
    inner = by_receiver[slot]
    act = np.searchsorted(times, 2.0 * times[outer] - times[inner], side="left")
    keep = _closes(S, R, inner, outer) & (act <= last_row[outer])
    inner, outer, act = inner[keep], outer[keep], act[keep]
    positions = {kind: closure_positions(rs, kind, S[inner], R[outer]) for kind in SECOND_ORDER}
    return TriadPairs(horizon=float(horizon), outer=outer, act_row=act, positions=positions)


def _labels(kinds: Sequence[StatisticKind], K: int) -> tuple[str, ...]:
    labels = ["intercept"]
    for kind in kinds:
        if K == 1:
            labels.append(kind.value)
        else:
            labels.extend(f"{kind.value}_k{k}" for k in range(1, K + 1))
    return tuple(labels)


def _distinct_kinds(kinds: Iterable[StatisticKind]) -> tuple[StatisticKind, ...]:
    """``kinds`` as StatisticKind members; a kind given twice is a ValueError."""
    kinds = tuple(StatisticKind(k) for k in kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate statistic kinds")
    return kinds


def compute_stepwise_stats(
    seq: EventSequence,
    rs: RiskSet,
    kinds: Iterable[StatisticKind],
    spec: IntervalSpec,
    triad_pairs: TriadPairs | None = None,
) -> StatTensor:
    """Interval-partitioned counts for every event time and risk-set dyad.

    Events older than the last bound contribute to nothing. The closure
    statistics restrict only the outer (later) event of the pattern to the
    interval; the backward search for the inner event runs over the full
    prior history. ``triad_pairs`` may carry a shared precompute for the
    sequence and horizon, which is spec-independent and reusable across a
    whole bag of models.

    Every contribution that counts at all emits one key per boundary crossing
    on each dyad it touches: it counts toward interval k from the row where it
    crosses g_{k-1} (g_0 = 0; a closure pair not before its activation row)
    to the row where it crosses g_k. So an interval's count is the running
    sum of its lower boundary's crossings minus its upper boundary's. A
    dyad's runs start at row 0 and at every row where it has a crossing; each
    run's state is those running sums at the run's start. The keys are built
    in the smallest unsigned type that holds D * (M + 1). Each run's counts
    are written once, into one column-major runs x columns buffer in the
    smallest unsigned type that holds the largest count so far. The distinct
    states are told apart by one exact mixed-radix key per run whose digits
    are the run's counts; the buffer is then compacted in place to those
    states and trimmed, and becomes ``rows``. So no second states x columns
    array is formed, and no runs x columns array in a type wider than the
    counts need. Each state's ``exposure`` pools its runs' ``waits``, last.
    """
    _check_actors(seq, rs)
    kinds = _distinct_kinds(kinds)
    times = seq.times
    M, D, K = times.size, len(rs), spec.size
    P = 1 + K * len(kinds)
    ends = np.searchsorted(times, times[:, None] + np.concatenate(([0.0], spec.gamma)), side="right")

    needs_triads = any(k in SECOND_ORDER for k in kinds)
    if needs_triads:
        if triad_pairs is None:
            triad_pairs = build_triad_pairs(seq, rs, spec.horizon)
        elif triad_pairs.horizon != spec.horizon:
            raise ValueError(
                f"triad precompute horizon {triad_pairs.horizon} != spec horizon {spec.horizon}"
            )

    # crossing keys dyad * (M + 1) + row: after the D head keys, for each kind
    # one group per boundary 0..K of the rows where a contribution crosses it.
    # Keys are below D * (M + 1), so they are built in the smallest type that
    # holds it; every operand is cast to it, as int64 with uint64 gives float64.
    key_type = np.min_scalar_type(D * (M + 1))
    stride = key_type.type(M + 1)
    keys = [np.arange(D, dtype=key_type) * stride]

    def emit(dyads: np.ndarray, rows: np.ndarray) -> None:
        live = rows[:, 0] < rows[:, K]
        dyads, rows = dyads[live].astype(key_type), rows[live].astype(key_type)
        for crossed in rows.T:
            inside = crossed < M
            keys.append((dyads[inside] * stride + crossed[inside, None]).ravel())

    for kind in kinds:
        if kind in SECOND_ORDER:
            rows = np.maximum(ends[triad_pairs.outer], triad_pairs.act_row[:, None])
            emit(triad_pairs.positions[kind][:, None], rows)
        else:
            emit(touched_dyads(rs, kind, seq.senders, seq.receivers), ends)

    bounds = np.cumsum([k.size for k in keys])
    # the runs start at the distinct keys; inverse[i] is the run of entry i
    keys = np.concatenate(keys)
    first, inverse = _distinct(keys)
    run_keys = keys[first]
    del keys, first
    R = run_keys.size
    start = (run_keys % stride).astype(np.int32)
    event_positions = rs.event_positions(seq)
    realized = np.searchsorted(run_keys, event_positions * (M + 1) + np.arange(M), side="right") - 1
    del run_keys
    heads = np.flatnonzero(start == 0)  # each dyad's first run

    # each run's counts are written once, column c at buf[c * R : (c + 1) * R],
    # widening buf when a column's largest count needs it. A column's digit
    # has radix (largest count + 1); where the next digit would take the key
    # space to 2^63, the partial key becomes its rank among the distinct
    # partial keys
    buf = np.empty(R * P, dtype=np.uint8)
    buf[:R] = 1
    key = np.zeros(R, dtype=np.int64)
    space = 1
    for col in range(1, P):
        g = col + (col - 1) // K  # the group of the column's lower boundary
        count = np.bincount(inverse[bounds[g - 1] : bounds[g]], minlength=R)
        count -= np.bincount(inverse[bounds[g] : bounds[g + 1]], minlength=R)
        # segmented running sum: cancel each dyad's total at the next dyad's first run
        count[heads[1:]] -= np.add.reduceat(count, heads)[:-1]
        np.cumsum(count, out=count)
        radix = int(count.max()) + 1
        wider = np.promote_types(buf.dtype, np.min_scalar_type(radix - 1))
        if wider != buf.dtype:
            buf = buf.astype(wider)
        buf[col * R : (col + 1) * R] = count
        if space * radix >= 2**63:
            partial, rank = _distinct(key)
            space = partial.size
            key = rank.astype(np.int64)
        space *= radix
        key *= radix
        key += count
    del inverse

    # compact buf in place to the U distinct states (column 0's first U
    # entries are already 1): column c's source starts at c * R >= c * U,
    # past every destination written before it, and the fancy index copies
    # its source before the write; no view of buf is alive at the resize
    first, ids = _distinct(key)
    del key
    U = first.size
    for col in range(1, P):
        buf[col * U : (col + 1) * U] = buf[col * R : (col + 1) * R][first]
    buf.resize(U * P, refcheck=False)
    rows = buf.reshape(P, U).T
    T = np.concatenate(([seq.t0], times))
    exposure = np.bincount(ids, weights=T[_stops(start, M)] - T[start], minlength=U)
    return StatTensor(
        rows=rows,
        ids=ids,
        start=start,
        realized=ids[realized],
        waits=np.diff(T),
        exposure=exposure,
        labels=_labels(kinds, K),
        kinds=kinds,
        spec=spec,
    )
