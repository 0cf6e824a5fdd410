"""Endogenous network statistics per event time, dyad, and memory interval.

Event row m holds the statistics in force on (t_{m-1}, t_m]: they are
computed from events strictly before t_m, and drive both the hazard of the
event at t_m and the survival increment over the waiting time. The design
stores them as per-dyad runs of rows over which a dyad's statistics do not
change (see ``StatTensor``).

All age arithmetic uses the canonical expressions

    age(e, m)        = times[m] - times[e]
    window_lo(e, m)  = times[e] - (times[m] - times[e])

so that this engine and any straightforward rescan implementation agree
bit-for-bit on boundary membership.
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
    """Run-length design: one row per run of a dyad's statistics.

    Run r covers the event rows [start[r], stop[r]) of dyad ``dyad[r]``, over
    which that dyad's statistic vector ``states[r]`` does not change. Runs are
    sorted by (dyad, start), and each dyad's runs tile [0, M). ``realized[m]``
    is the run of the event's own dyad at row m. Column 0 is the intercept
    (identically 1); the remaining columns are one block per statistic kind,
    in declared order, with one column per memory interval. Memory grows with
    the number of state changes, not with M x N(N-1).
    """

    states: np.ndarray
    dyad: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    realized: np.ndarray
    labels: tuple[str, ...]
    kinds: tuple[StatisticKind, ...]
    risk_set: RiskSet
    event_positions: np.ndarray
    spec: IntervalSpec | None = None

    @property
    def n_events(self) -> int:
        return self.realized.size

    @property
    def n_columns(self) -> int:
        return self.states.shape[1]

    def column_index(self, kind: StatisticKind, k: int = 1) -> int:
        """Column of interval k (1-based) of ``kind``; intercept is column 0."""
        block = self.kinds.index(StatisticKind(kind))
        width = (self.n_columns - 1) // len(self.kinds)
        if not 1 <= k <= width:
            raise IndexError(f"interval index {k} outside 1..{width}")
        return 1 + block * width + (k - 1)

    def distinct_states(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of ``states`` and each run's row among them, so
        that ``rows[ids]`` equals ``states`` exactly.

        Rows are told apart by one exact int64 key per run: the mixed-radix
        number whose digits are the run's counts in the columns that vary
        (a constant column, such as the intercept, is a digit of radix 1).
        When a varying column is not a nonnegative integer, or the key space
        reaches 2^63, every run keeps its own row.
        """
        states = self.states
        R = len(states)
        key = np.zeros(R, dtype=np.int64)
        space = 1
        for col in states.T:
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue
            if not (lo >= 0.0 and hi < 2.0**63 and np.array_equal(col, np.floor(col))):
                return states, np.arange(R)
            radix = int(hi) + 1
            space *= radix
            if space >= 2**63:
                return states, np.arange(R)
            key *= radix
            key += col.astype(np.int64)
        _, first, ids = np.unique(key, return_index=True, return_inverse=True)
        return states[first], ids

    def to_dense(self) -> np.ndarray:
        """The (M, D, P) tensor values[m, dyad, column] these runs encode."""
        M, D = self.n_events, len(self.risk_set)
        dense = np.repeat(self.states, self.stop - self.start, axis=0)
        return np.ascontiguousarray(dense.reshape(D, M, -1).swapaxes(0, 1))


def _first_rows(times: np.ndarray, idx: np.ndarray, reached) -> np.ndarray:
    """Nudge searchsorted seeds ``idx`` to the first row m where ``reached(m)``
    holds, entry by entry (M where it never does). ``reached`` is the
    subtraction-form predicate, monotone in the row; the seeds come from its
    addition form and can be off by an ulp."""
    M = times.size
    while True:
        dec = (idx > 0) & reached(np.maximum(idx - 1, 0))
        if not dec.any():
            break
        idx[dec] -= 1
    while True:
        inc = (idx < M) & ~reached(np.minimum(idx, M - 1))
        if not inc.any():
            break
        idx[inc] += 1
    return idx


def _threshold_rows(times: np.ndarray, bound: float) -> np.ndarray:
    """For every event e, the first row m with times[m] - times[e] > bound."""
    idx = np.searchsorted(times, times + bound, side="right")
    return _first_rows(times, idx, lambda j: times[j] - times > bound)


def _interval_row_ends(times: np.ndarray, spec: IntervalSpec) -> np.ndarray:
    """ends[e, j]: first row where event e's age exceeds bound j (0, g_1..g_K)."""
    bounds = np.concatenate(([0.0], spec.gamma))
    ends = np.empty((times.size, bounds.size), dtype=np.int64)
    for j, g in enumerate(bounds):
        ends[:, j] = _threshold_rows(times, float(g))
    return ends


def _activation_rows(times: np.ndarray, t_outer: float, t_inner: np.ndarray) -> np.ndarray:
    """First row m where the inner-search window of the outer event reaches
    back to each inner time: times[e] - (times[m] - times[e]) <= t_inner."""
    idx = np.searchsorted(times, 2.0 * t_outer - t_inner, side="left")
    return _first_rows(times, idx, lambda j: t_outer - (times[j] - t_outer) <= t_inner)


def closure_partners(senders: np.ndarray, receivers: np.ndarray, lo: int, e: int) -> np.ndarray:
    """The events among lo..e-1 that pair as the inner event with outer event
    e: the inner receiver is the outer sender, and the inner sender is not the
    outer receiver (that pair would close onto a self-loop)."""
    inner = slice(lo, e)
    hit = (receivers[inner] == senders[e]) & (senders[inner] != receivers[e])
    return lo + np.flatnonzero(hit)


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
    closure kind once the evaluation row ``act_row`` is late enough that the
    backward search window of the outer event covers the inner one. Pairs
    that could only activate after the outer event leaves the horizon are
    dropped at build time.
    """

    horizon: float
    outer: np.ndarray
    act_row: np.ndarray
    positions: dict[StatisticKind, np.ndarray]

    @property
    def n_pairs(self) -> int:
        return self.outer.size


def build_triad_pairs(seq: EventSequence, rs: RiskSet, horizon: float) -> TriadPairs:
    times, S, R = seq.times, seq.senders, seq.receivers
    horizon_end = _threshold_rows(times, float(horizon))

    outer_chunks, inner_chunks, act_chunks = [], [], []
    for e in range(times.size):
        last_row = horizon_end[e] - 1
        if last_row <= e:
            continue
        te = times[e]
        lo_final = te - (times[last_row] - te)  # widest window before horizon exit
        inner = closure_partners(S, R, np.searchsorted(times, lo_final, side="left"), e)
        if inner.size == 0:
            continue
        outer_chunks.append(np.full(inner.size, e, dtype=np.int64))
        inner_chunks.append(inner)
        act_chunks.append(_activation_rows(times, te, times[inner]))

    if outer_chunks:
        outer, inner, act = (np.concatenate(c) for c in (outer_chunks, inner_chunks, act_chunks))
    else:
        outer = inner = act = np.empty(0, dtype=np.int64)
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

    Every count is a difference array: +1 on the dyads a contribution touches
    at the row it enters an interval, -1 at the row it leaves. A dyad's runs
    start at row 0 and at every row where it has such an entry; each run's
    state is the dyad's running sum of its entries.
    """
    kinds = tuple(StatisticKind(k) for k in kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate statistic kinds")
    times = seq.times
    M, D, K = times.size, len(rs), spec.size
    P = 1 + K * len(kinds)
    ends = _interval_row_ends(times, spec)

    needs_triads = any(k in SECOND_ORDER for k in kinds)
    if needs_triads:
        if triad_pairs is None:
            triad_pairs = build_triad_pairs(seq, rs, spec.horizon)
        elif triad_pairs.horizon != spec.horizon:
            raise ValueError(
                f"triad precompute horizon {triad_pairs.horizon} != spec horizon {spec.horizon}"
            )

    # difference-array entries: key = dyad * (M + 1) + row, column, +-1
    keys = [np.arange(D, dtype=np.int64) * (M + 1)]
    cols, deltas = [np.empty(0, dtype=np.int64)], [np.empty(0)]

    def emit(dyads: np.ndarray, a: np.ndarray, b: np.ndarray, col: int) -> None:
        live = a < b
        dyads, a, b = dyads[live], a[live], b[live]
        for rows, sign in ((a, 1.0), (b, -1.0)):
            inside = rows < M
            key = (dyads[inside] * (M + 1) + rows[inside, None]).ravel()
            keys.append(key)
            cols.append(np.full(key.size, col, dtype=np.int64))
            deltas.append(np.full(key.size, sign))

    col = 1
    for kind in kinds:
        if kind in SECOND_ORDER:
            outer, pos = triad_pairs.outer, triad_pairs.positions[kind]
            for k in range(K):
                a = np.maximum(ends[outer, k], triad_pairs.act_row)
                emit(pos[:, None], a, ends[outer, k + 1], col + k)
        else:
            touched = touched_dyads(rs, kind, seq.senders, seq.receivers)
            for k in range(K):
                emit(touched, ends[:, k], ends[:, k + 1], col + k)
        col += K

    run_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    R = run_keys.size
    states = np.bincount(
        inverse[D:] * P + np.concatenate(cols),
        weights=np.concatenate(deltas),
        minlength=R * P,
    ).reshape(R, P)
    dyad, start = np.divmod(run_keys, M + 1)
    first = np.searchsorted(run_keys, np.arange(D, dtype=np.int64) * (M + 1))
    stop = np.append(start[1:], M)
    stop[first[1:] - 1] = M
    # segmented running sum: cancel each dyad's total at the next dyad's first run
    states[first[1:]] -= np.add.reduceat(states, first, axis=0)[:-1]
    np.cumsum(states, axis=0, out=states)
    states[:, 0] = 1.0

    event_positions = rs.event_positions(seq)
    realized = np.searchsorted(run_keys, event_positions * (M + 1) + np.arange(M), side="right") - 1
    return StatTensor(
        states=states,
        dyad=dyad,
        start=start,
        stop=stop,
        realized=realized,
        labels=_labels(kinds, K),
        kinds=kinds,
        risk_set=rs,
        event_positions=event_positions,
        spec=spec,
    )
