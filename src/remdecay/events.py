"""Event sequences, validation, and the directed-dyad risk set."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "EventSequence",
    "RiskSet",
    "EventDataError",
    "TIE_POLICIES",
    "load_events",
    "spread_ties",
]


TIE_POLICIES = ("error", "spread")  # the tie_policy values ``load_events`` takes


class EventDataError(ValueError):
    """Raised for malformed event input (bad rows, ordering, self-loops)."""


class EventSequence:
    """Time-ordered directed events over a fixed actor set.

    Actor ids are dense integers 0..n_actors-1. Times are finite, strictly
    increasing floats in user-declared units; ``t0`` is the observation
    start (defaults to 0) and every statistic/likelihood treats the first
    waiting time as ``times[0] - t0``.
    """

    __slots__ = ("times", "senders", "receivers", "n_actors", "t0", "labels")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        senders: Sequence[int] | np.ndarray,
        receivers: Sequence[int] | np.ndarray,
        n_actors: int,
        t0: float = 0.0,
        labels: Sequence[str] | None = None,
    ):
        times = np.ascontiguousarray(times, dtype=np.float64)
        senders = np.ascontiguousarray(senders, dtype=np.int64)
        receivers = np.ascontiguousarray(receivers, dtype=np.int64)
        if not (times.shape == senders.shape == receivers.shape) or times.ndim != 1:
            raise EventDataError("times/senders/receivers must be 1-d arrays of equal length")
        if n_actors < 1:
            raise EventDataError("need at least one actor")
        if not math.isfinite(t0):
            raise EventDataError(f"t0 must be finite, got {t0!r}")
        if times.size:
            bad = np.flatnonzero(~np.isfinite(times))
            if bad.size:
                raise EventDataError(f"event times must be finite (violated at event {bad[0]})")
            if times[0] < 0:
                raise EventDataError("event times must be nonnegative")
            if np.any(np.diff(times) <= 0):
                bad = int(np.flatnonzero(np.diff(times) <= 0)[0]) + 1
                raise EventDataError(
                    f"event times must be strictly increasing (violated at event {bad})"
                )
            if t0 > times[0]:
                raise EventDataError(f"t0={t0} exceeds first event time {times[0]}")
            if np.any(senders == receivers):
                bad = int(np.flatnonzero(senders == receivers)[0])
                raise EventDataError(f"self-loop at event {bad}")
            lo = min(senders.min(), receivers.min())
            hi = max(senders.max(), receivers.max())
            if lo < 0 or hi >= n_actors:
                raise EventDataError(f"actor id out of range 0..{n_actors - 1}")
        if labels is not None and len(labels) != n_actors:
            raise EventDataError("labels must have one entry per actor")
        for a in (times, senders, receivers):
            a.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "senders", senders)
        object.__setattr__(self, "receivers", receivers)
        object.__setattr__(self, "n_actors", int(n_actors))
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("EventSequence is immutable")

    def __reduce__(self):  # pickle through the validating constructor
        args = (self.times, self.senders, self.receivers, self.n_actors, self.t0, self.labels)
        return EventSequence, args

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return (
            self.n_actors == other.n_actors
            and self.t0 == other.t0
            and self.labels == other.labels
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.senders, other.senders)
            and np.array_equal(self.receivers, other.receivers)
        )

    def to_csv(self, path) -> None:
        """Write ``time,sender,receiver`` rows; floats use repr for round-trip."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["time", "sender", "receiver"])
            for t, s, r in zip(self.times, self.senders, self.receivers):
                w.writerow([repr(float(t)), int(s), int(r)])


@dataclass(frozen=True)
class RiskSet:
    """All N(N-1) directed dyads in lexicographic (sender, receiver) order."""

    n_actors: int
    dyads: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n_actors
        if n < 2:
            raise EventDataError(f"risk set needs at least 2 actors, got {n}")
        s, r = np.divmod(np.arange(n * n), n)
        keep = s != r
        dyads = np.column_stack([s[keep], r[keep]]).astype(np.int64)
        dyads.setflags(write=False)
        object.__setattr__(self, "dyads", dyads)

    def __len__(self) -> int:
        return self.n_actors * (self.n_actors - 1)

    @property
    def senders(self) -> np.ndarray:
        return self.dyads[:, 0]

    @property
    def receivers(self) -> np.ndarray:
        return self.dyads[:, 1]

    def index_of(self, sender: int, receiver: int) -> int:
        if sender == receiver:
            raise EventDataError("self-loops are not in the risk set")
        return sender * (self.n_actors - 1) + receiver - (1 if receiver > sender else 0)

    def positions(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Vectorized dyad -> risk-set position."""
        s = np.asarray(senders, dtype=np.int64)
        r = np.asarray(receivers, dtype=np.int64)
        return s * (self.n_actors - 1) + r - (r > s)

    def event_positions(self, seq: EventSequence) -> np.ndarray:
        return self.positions(seq.senders, seq.receivers)


def spread_ties(times: np.ndarray, unit: float = 1.0) -> np.ndarray:
    """Spread each block of n equal times d to d + k*unit/(n+1), k = 1..n.

    ``times`` must be nondecreasing; the spread copy keeps the input order
    within a block and leaves singleton blocks untouched. The unit must be
    finite and > 0. Raises if a spread block would reach past the next
    distinct time (unit too large for the data's resolution) or leaves its
    times tied (unit below the float resolution at d); each error names the
    unit as ``tie_unit``, the option that sets it.
    """
    if not (math.isfinite(unit) and unit > 0):
        raise EventDataError(f"tie_unit must be finite and > 0, got {unit!r}")
    if np.any(np.diff(times) < 0):
        raise EventDataError("times must be nondecreasing before spreading")
    new_times = np.array(times, dtype=np.float64)
    uniq, starts, counts = np.unique(times, return_index=True, return_counts=True)
    for b, (d, start, n) in enumerate(zip(uniq, starts, counts)):
        if n == 1:
            continue
        ks = np.arange(1, n + 1, dtype=np.float64)
        spread = d + ks * (unit / (n + 1))
        nxt = uniq[b + 1] if b + 1 < len(uniq) else np.inf
        if spread[-1] >= nxt:
            raise EventDataError(
                f"spreading {n} events at t={d} with tie_unit={unit} overlaps next time {nxt}"
            )
        if np.any(np.diff(spread) <= 0):
            raise EventDataError(
                f"tie_unit={unit} is too small to spread {n} events at t={d}: their times stay tied"
            )
        new_times[start : start + n] = spread
    return new_times


def load_events(
    source,
    columns: Mapping[str, str] | None = None,
    tie_policy: str = "error",
    tie_unit: float = 1.0,
    t0: float | None = None,
) -> EventSequence:
    """Load a CSV of relational events and normalize it.

    ``source`` is a path (str or PathLike) or an open text stream.
    ``columns`` maps the roles ``time``/``sender``/``receiver`` to CSV header
    names (defaults to those names). Actor labels are re-indexed to dense
    ints in first-appearance order; the original labels are kept on the
    sequence for output.

    tie_policy:
      * ``"error"``  - tied timestamps are rejected;
      * ``"spread"`` - each tied block is spread evenly across ``tie_unit``.

    Malformed rows (unparsable or non-finite time, self-loop, time running
    backwards) are reported with their 1-based data row number.
    """
    cols = {"time": "time", "sender": "sender", "receiver": "receiver"}
    if columns:
        cols.update(columns)
    if tie_policy not in TIE_POLICIES:
        raise EventDataError(f"unknown tie_policy {tie_policy!r}")

    own = isinstance(source, (str, os.PathLike))
    f = open(source, "r", newline="", encoding="utf-8-sig") if own else source

    times: list[float] = []
    senders: list[int] = []
    receivers: list[int] = []
    label_ids: dict[str, int] = {}
    try:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise EventDataError("empty CSV: missing header row")
        for role, name in cols.items():
            if name not in reader.fieldnames:
                raise EventDataError(f"missing column {name!r} for {role}")
        prev = -np.inf
        for rownum, row in enumerate(reader, start=1):
            try:
                t = float(row[cols["time"]])
            except (TypeError, ValueError):
                t = math.nan
            if not math.isfinite(t):
                raise EventDataError(f"row {rownum}: unparsable time {row.get(cols['time'])!r}")
            s_lab = row[cols["sender"]]
            r_lab = row[cols["receiver"]]
            if s_lab is None or r_lab is None or s_lab == "" or r_lab == "":
                raise EventDataError(f"row {rownum}: missing sender/receiver")
            if t < prev:
                raise EventDataError(f"row {rownum}: time {t} runs backwards (previous {prev})")
            if s_lab == r_lab:
                raise EventDataError(f"row {rownum}: self-loop {s_lab!r} -> {r_lab!r}")
            if t < 0:
                raise EventDataError(f"row {rownum}: negative time {t}")
            prev = t
            s = label_ids.setdefault(s_lab, len(label_ids))
            r = label_ids.setdefault(r_lab, len(label_ids))
            times.append(t)
            senders.append(s)
            receivers.append(r)
    finally:
        if own:
            f.close()

    if not times:
        raise EventDataError("no event rows found")
    labels = tuple(sorted(label_ids, key=label_ids.get))
    times = np.asarray(times, dtype=np.float64)
    if tie_policy == "spread":
        times = spread_ties(times, unit=tie_unit)
    else:
        dup = np.flatnonzero(np.diff(times) == 0)
        if dup.size:
            raise EventDataError(
                f"row {int(dup[0]) + 2}: tied timestamp {times[dup[0]]} (tie_policy='error')"
            )
    return EventSequence(
        times, senders, receivers, len(labels),
        t0=float(t0) if t0 is not None else 0.0, labels=labels,
    )
