"""Event sequences, validation, and the directed-dyad risk set."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Event",
    "EventSequence",
    "RiskSet",
    "EventDataError",
    "load_events",
    "spread_ties",
    "build_risk_set",
]


class EventDataError(ValueError):
    """Raised for malformed event input (bad rows, ordering, self-loops)."""


@dataclass(frozen=True)
class Event:
    """One directed interaction: sender acts on receiver at a point in time."""

    sender: int
    receiver: int
    time: float

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise EventDataError(f"self-loop event ({self.sender} -> {self.receiver})")
        if not self.time >= 0:
            raise EventDataError(f"negative event time {self.time}")


class EventSequence:
    """Time-ordered directed events over a fixed actor set.

    Actor ids are dense integers 0..n_actors-1. Times are strictly
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
        if times.size:
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

    def __getitem__(self, m: int) -> Event:
        return Event(int(self.senders[m]), int(self.receivers[m]), float(self.times[m]))

    def __iter__(self) -> Iterator[Event]:
        return (self[m] for m in range(len(self)))

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

    @property
    def actors(self) -> frozenset[int]:
        return frozenset(range(self.n_actors))

    @property
    def events(self) -> list[Event]:
        return list(self)

    def to_csv(self, path_or_buf) -> None:
        """Write ``time,sender,receiver`` rows; floats use repr for round-trip."""
        own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
        f = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            w = csv.writer(f)
            w.writerow(["time", "sender", "receiver"])
            for t, s, r in zip(self.times, self.senders, self.receivers):
                w.writerow([repr(float(t)), int(s), int(r)])
        finally:
            if own:
                f.close()

    def label_map(self) -> dict[str, int]:
        labels = self.labels or tuple(str(a) for a in range(self.n_actors))
        return {lab: idx for idx, lab in enumerate(labels)}

    def dump_label_map(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.label_map(), f, indent=2, sort_keys=True)


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


def build_risk_set(actors: int | Iterable[int]) -> RiskSet:
    """Risk set over a dense actor set given as a count or an id collection."""
    if isinstance(actors, (int, np.integer)):
        n = int(actors)
    else:
        ids = sorted(set(int(a) for a in actors))
        if ids != list(range(len(ids))):
            raise EventDataError("actor ids must be dense 0..N-1; re-index with load_events")
        n = len(ids)
    return RiskSet(n)


def spread_ties(seq: EventSequence | "_RawRows", unit: float = 1.0) -> EventSequence:
    """Spread each block of n equal-time events at time d to d + k*unit/(n+1).

    Input order within a block is preserved; singleton blocks are left
    untouched. Raises if a spread block would reach past the next distinct
    timestamp (unit too large for the data's resolution).
    """
    if unit <= 0:
        raise EventDataError("spread unit must be positive")
    times, senders, receivers = seq.times, seq.senders, seq.receivers
    n_actors, t0, labels = seq.n_actors, seq.t0, seq.labels
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
                f"spreading {n} events at t={d} with unit={unit} overlaps next time {nxt}"
            )
        new_times[start : start + n] = spread
    return EventSequence(new_times, senders, receivers, n_actors, t0=t0, labels=labels)


@dataclass
class _RawRows:
    """Pre-validation row holder (may contain tied times)."""

    times: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    n_actors: int
    t0: float
    labels: tuple[str, ...]


def load_events(
    source,
    columns: Mapping[str, str] | None = None,
    tie_policy: str = "error",
    tie_unit: float = 1.0,
    t0: float | None = None,
) -> EventSequence:
    """Load a CSV of relational events and normalize it.

    ``source`` is a path, text stream, or bytes. ``columns`` maps the roles
    ``time``/``sender``/``receiver`` to CSV header names (defaults to those
    names). Actor labels are re-indexed to dense ints in first-appearance
    order; the original labels are kept on the sequence for output.

    tie_policy:
      * ``"error"``  - tied timestamps are rejected;
      * ``"spread"`` - each tied block is spread evenly across ``tie_unit``.

    Malformed rows (unparsable time, self-loop, time running backwards) are
    reported with their 1-based data row number.
    """
    cols = {"time": "time", "sender": "sender", "receiver": "receiver"}
    if columns:
        cols.update(columns)
    if tie_policy not in ("error", "spread"):
        raise EventDataError(f"unknown tie_policy {tie_policy!r}")

    if isinstance(source, bytes):
        f = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "__fspath__"):
        f = open(source, "r", newline="", encoding="utf-8")
    elif isinstance(source, str) and "\n" not in source:
        f = open(source, "r", newline="", encoding="utf-8")
    elif isinstance(source, str):
        f = io.StringIO(source)
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        f = io.TextIOWrapper(source, encoding="utf-8")
    else:
        f = source

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
                raise EventDataError(
                    f"row {rownum}: unparsable time {row.get(cols['time'])!r}"
                ) from None
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
        if f is not source:
            f.close()

    if not times:
        raise EventDataError("no event rows found")
    labels = tuple(sorted(label_ids, key=label_ids.get))
    raw = _RawRows(
        times=np.asarray(times, dtype=np.float64),
        senders=np.asarray(senders, dtype=np.int64),
        receivers=np.asarray(receivers, dtype=np.int64),
        n_actors=len(labels),
        t0=float(t0) if t0 is not None else 0.0,
        labels=labels,
    )
    if tie_policy == "spread":
        return spread_ties(raw, unit=tie_unit)
    dup = np.flatnonzero(np.diff(raw.times) == 0)
    if dup.size:
        raise EventDataError(
            f"row {int(dup[0]) + 2}: tied timestamp {raw.times[dup[0]]} (tie_policy='error')"
        )
    return EventSequence(
        raw.times, raw.senders, raw.receivers, raw.n_actors, t0=raw.t0, labels=raw.labels
    )
