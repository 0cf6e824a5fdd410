"""Endogenous network statistics per event time, dyad, and memory interval.

Row m of a tensor holds the statistics in force on (t_{m-1}, t_m]: they are
computed from events strictly before t_m, and drive both the hazard of the
event at t_m and the survival increment over the waiting time.

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
    "compute_stepwise_stats",
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


FIRST_ORDER = (
    StatisticKind.INERTIA,
    StatisticKind.RECIPROCITY,
    StatisticKind.INDEGREE_SENDER,
    StatisticKind.OUTDEGREE_SENDER,
    StatisticKind.INDEGREE_RECEIVER,
    StatisticKind.OUTDEGREE_RECEIVER,
)
SECOND_ORDER = (StatisticKind.TRANSITIVITY, StatisticKind.CYCLIC)


@dataclass
class StatTensor:
    """Dense design tensor: values[m, dyad, column].

    Column 0 is the intercept (identically 1); the remaining columns are one
    block per statistic kind, in declared order, with one column per memory
    interval.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    kinds: tuple[StatisticKind, ...]
    risk_set: RiskSet
    event_positions: np.ndarray
    spec: IntervalSpec | None = None

    @property
    def n_events(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[2]

    def column_index(self, kind: StatisticKind, k: int = 1) -> int:
        """Column of interval k (1-based) of ``kind``; intercept is column 0."""
        block = self.kinds.index(StatisticKind(kind))
        width = (self.n_columns - 1) // len(self.kinds)
        if not 1 <= k <= width:
            raise IndexError(f"interval index {k} outside 1..{width}")
        return 1 + block * width + (k - 1)


def _threshold_rows(times: np.ndarray, bound: float) -> np.ndarray:
    """For every event e, the first row m with times[m] - times[e] > bound.

    Seeded by searchsorted on times[e] + bound, then nudged until it agrees
    with the subtraction-form predicate (the two can differ by an ulp).
    """
    M = times.size
    idx = np.searchsorted(times, times + bound, side="right")
    while True:
        j = np.maximum(idx - 1, 0)
        dec = (idx > 0) & (times[j] - times > bound)
        if not dec.any():
            break
        idx[dec] -= 1
    while True:
        j = np.minimum(idx, M - 1)
        inc = (idx < M) & (times[j] - times <= bound)
        if not inc.any():
            break
        idx[inc] += 1
    return idx


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
    M = times.size
    idx = np.searchsorted(times, 2.0 * t_outer - t_inner, side="left")
    idx = np.minimum(idx, M - 1)
    while True:
        j = np.maximum(idx - 1, 0)
        dec = (idx > 0) & (t_outer - (times[j] - t_outer) <= t_inner)
        if not dec.any():
            break
        idx[dec] -= 1
    while True:
        inc = (idx < M) & (t_outer - (times[np.minimum(idx, M - 1)] - t_outer) > t_inner)
        if not inc.any():
            break
        idx[inc] += 1
    return idx


@dataclass(frozen=True)
class TriadPairs:
    """Spec-independent precompute for the closure statistics.

    One entry per ordered pair (inner, outer) with inner = (i, l) preceding
    outer = (l, j): the pair starts counting toward transitivity of (i, j)
    and cyclic closure of (j, i) once the evaluation time is late enough
    that the backward search window of the outer event covers the inner one.
    Pairs that could only activate after the outer event leaves the horizon
    are dropped at build time.
    """

    horizon: float
    outer: np.ndarray
    act_row: np.ndarray
    trans_pos: np.ndarray
    cyc_pos: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.outer.size


def build_triad_pairs(seq: EventSequence, rs: RiskSet, horizon: float) -> TriadPairs:
    times, S, R = seq.times, seq.senders, seq.receivers
    M = times.size
    recv_lists = [np.flatnonzero(R == a) for a in range(seq.n_actors)]
    horizon_end = _threshold_rows(times, float(horizon))

    outer_chunks, act_chunks, tpos_chunks, cpos_chunks = [], [], [], []
    for e in range(M):
        last_row = horizon_end[e] - 1
        if last_row <= e:
            continue
        te = times[e]
        lo_final = te - (times[last_row] - te)  # widest window before horizon exit
        cand = recv_lists[S[e]]
        cand = cand[: np.searchsorted(cand, e)]  # inner strictly earlier than outer
        if cand.size == 0:
            continue
        ct = times[cand]
        cut = np.searchsorted(ct, lo_final, side="left")
        cand, ct = cand[cut:], ct[cut:]
        if cand.size == 0:
            continue
        keep = S[cand] != R[e]  # inner sender == outer receiver would self-loop the dyad
        cand, ct = cand[keep], ct[keep]
        if cand.size == 0:
            continue
        act = _activation_rows(times, te, ct)
        outer_chunks.append(np.full(cand.size, e, dtype=np.int64))
        act_chunks.append(act)
        recv = np.full(cand.size, R[e], dtype=np.int64)
        tpos_chunks.append(rs.positions(S[cand], recv))
        cpos_chunks.append(rs.positions(recv, S[cand]))

    if outer_chunks:
        outer = np.concatenate(outer_chunks)
        act = np.concatenate(act_chunks)
        tpos = np.concatenate(tpos_chunks)
        cpos = np.concatenate(cpos_chunks)
    else:
        outer = act = tpos = cpos = np.empty(0, dtype=np.int64)
    return TriadPairs(
        horizon=float(horizon),
        outer=outer,
        act_row=act,
        trans_pos=tpos,
        cyc_pos=cpos,
    )


_DYAD = "dyad"
_SENDER = "sender"
_RECEIVER = "receiver"

# (class table, gather side) per first-order kind: which event attribute is
# counted, and which dyad endpoint the count is read back for.
_FIRST_ORDER_PLAN = {
    StatisticKind.INERTIA: (_DYAD, "same"),
    StatisticKind.RECIPROCITY: (_DYAD, "reversed"),
    StatisticKind.INDEGREE_SENDER: (_RECEIVER, "sender"),
    StatisticKind.OUTDEGREE_SENDER: (_SENDER, "sender"),
    StatisticKind.INDEGREE_RECEIVER: (_RECEIVER, "receiver"),
    StatisticKind.OUTDEGREE_RECEIVER: (_SENDER, "receiver"),
}


def _event_classes(seq: EventSequence, table: str) -> tuple[np.ndarray, int]:
    N = seq.n_actors
    if table == _DYAD:
        return seq.senders * N + seq.receivers, N * N
    if table == _SENDER:
        return seq.senders, N
    return seq.receivers, N


def _gather_indices(rs: RiskSet, table: str, side: str) -> np.ndarray:
    N = rs.n_actors
    if table == _DYAD:
        if side == "same":
            return rs.senders * N + rs.receivers
        return rs.receivers * N + rs.senders
    return rs.senders if side == "sender" else rs.receivers


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
    """
    kinds = tuple(StatisticKind(k) for k in kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate statistic kinds")
    times = seq.times
    M, D, K = times.size, len(rs), spec.size
    P = 1 + K * len(kinds)
    values = np.zeros((M, D, P), dtype=np.float64)
    values[:, :, 0] = 1.0
    ends = _interval_row_ends(times, spec)

    class_counts: dict[str, np.ndarray] = {}

    def counts_for(table: str) -> np.ndarray:
        if table not in class_counts:
            cls, n_class = _event_classes(seq, table)
            diff = np.zeros((K, M + 1, n_class), dtype=np.int32)
            for k in range(K):
                a, b = ends[:, k], ends[:, k + 1]
                live = a < b
                np.add.at(diff[k], (a[live], cls[live]), 1)
                np.add.at(diff[k], (b[live], cls[live]), -1)
            class_counts[table] = np.cumsum(diff[:, :M, :], axis=1)
        return class_counts[table]

    needs_triads = any(k in SECOND_ORDER for k in kinds)
    if needs_triads:
        if triad_pairs is None:
            triad_pairs = build_triad_pairs(seq, rs, spec.horizon)
        elif triad_pairs.horizon != spec.horizon:
            raise ValueError(
                f"triad precompute horizon {triad_pairs.horizon} != spec horizon {spec.horizon}"
            )

    col = 1
    for kind in kinds:
        if kind in _FIRST_ORDER_PLAN:
            table, side = _FIRST_ORDER_PLAN[kind]
            counts = counts_for(table)  # (K, M, n_class)
            gather = _gather_indices(rs, table, side)
            for k in range(K):
                values[:, :, col + k] = counts[k][:, gather]
        else:
            pos = triad_pairs.trans_pos if kind is StatisticKind.TRANSITIVITY else triad_pairs.cyc_pos
            diff = np.zeros((K, M + 1, D), dtype=np.int32)
            outer = triad_pairs.outer
            for k in range(K):
                a = np.maximum(ends[outer, k], triad_pairs.act_row)
                b = ends[outer, k + 1]
                live = a < b
                np.add.at(diff[k], (a[live], pos[live]), 1)
                np.add.at(diff[k], (b[live], pos[live]), -1)
            counts = np.cumsum(diff[:, :M, :], axis=1)
            for k in range(K):
                values[:, :, col + k] = counts[k]
        col += K

    return StatTensor(
        values=values,
        labels=_labels(kinds, K),
        kinds=kinds,
        risk_set=rs,
        event_positions=rs.event_positions(seq),
        spec=spec,
    )
