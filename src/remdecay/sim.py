"""Synthetic relational event sequences with known continuous memory decay.

Dyad intensities are log-linear in continuously weighted statistics, with
each effect's weight given by a decay function of the event's age. Because
every weight is nonnegative and nonincreasing in age, the total intensity
can only fall between events, which makes the current intensity an exact
dominating rate for Ogata thinning: no discretization error enters the
generated sequences.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Mapping

import numpy as np

from .decay import DecayFn, StepwiseDecay, decay_from_json, decay_to_json
from .events import EventSequence, RiskSet
from .stats import (
    SECOND_ORDER,
    StatisticKind,
    closure_partners,
    closure_positions,
    touched_dyads,
)

__all__ = ["SimConfig", "SimulationError", "simulate"]

_GRID = 1000
_CAPACITY = 1024  # initial history rows; grown by doubling


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Ground-truth generator settings.

    Exactly one stop rule applies: a target event count or an end time.
    Each effect's decay must be nonnegative and nonincreasing on
    [0, horizon]; ages beyond the horizon contribute nothing.
    """

    n_actors: int
    beta0: float
    effects: Mapping[StatisticKind, DecayFn] = field(default_factory=dict)
    horizon: float = np.inf
    n_events: int | None = None
    end_time: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n_actors, (int, np.integer)):
            raise SimulationError(f"n_actors must be an integer, got {self.n_actors!r}")
        if not isinstance(self.n_events, (int, np.integer, type(None))):
            raise SimulationError(f"n_events must be an integer, got {self.n_events!r}")
        if self.n_actors < 2:
            raise SimulationError("need at least 2 actors")
        if (self.n_events is None) == (self.end_time is None):
            raise SimulationError("set exactly one of n_events / end_time")
        if self.n_events is not None and self.n_events < 1:
            raise SimulationError("n_events must be positive")
        if self.end_time is not None and not (np.isfinite(self.end_time) and self.end_time > 0):
            raise SimulationError(f"end_time must be finite and positive, got {self.end_time!r}")
        if not np.isfinite(self.beta0):
            raise SimulationError(f"beta0 must be finite, got {self.beta0!r}")
        if not self.horizon > 0:
            raise SimulationError("horizon must be positive")
        effects = {StatisticKind(k): v for k, v in self.effects.items()}
        grid_hi = self.horizon if np.isfinite(self.horizon) else 1e4
        grid = np.linspace(0.0, grid_hi, _GRID)
        for kind, fn in effects.items():
            if not isinstance(fn, DecayFn):
                raise SimulationError(f"decay for {kind.value} is a {type(fn).__name__}, not a DecayFn")
            ages = grid
            if isinstance(fn, StepwiseDecay):
                # also just past each bound, so a level narrower than the grid step is seen
                g = fn.spec.gamma
                ages = np.union1d(grid, np.nextafter(g[g < grid_hi], np.inf))
            vals = np.asarray(fn(ages), dtype=np.float64)
            if np.any(vals < 0):
                raise SimulationError(f"decay for {kind.value} is negative on [0, horizon]")
            if np.any(np.diff(vals) > 1e-12 * max(1.0, np.abs(vals).max())):
                raise SimulationError(
                    f"decay for {kind.value} increases with age; thinning bound invalid"
                )
        object.__setattr__(self, "effects", effects)

    def to_json_dict(self) -> dict:
        """Every field; the effects as {kind: decay JSON}, an infinite horizon as null."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(
            effects={k.value: decay_to_json(v) for k, v in self.effects.items()},
            horizon=self.horizon if np.isfinite(self.horizon) else None,
        )
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimConfig":
        """A manifest's ``generator`` or simulate's flat config: a missing or
        null optional field takes its default, and other keys are ignored."""
        # a required field (one without a default) is read even when missing: KeyError
        kw = {f.name: d[f.name] for f in fields(cls)
              if d.get(f.name) is not None or f.default is f.default_factory is MISSING}
        kw["effects"] = {k: decay_from_json(v) for k, v in kw.get("effects", {}).items()}
        return cls(**kw)


def _room(obj, n: int, *names: str) -> None:
    """Give each named array of ``obj`` room for n entries: a short one grows
    to at least twice its length."""
    for name in names:
        a = getattr(obj, name)
        if n > a.size:
            setattr(obj, name, np.concatenate((a, np.empty(max(n, a.size), a.dtype))))


class _HistoryState:
    """Growing event history: each event's time and risk-set dyad.

    Closure pairs are recorded as each outer event is appended, as the
    (outer, inner) event indices that ``closure_partners`` pairs within the
    horizon. Positions are looked up when the rates are evaluated: a
    first-order kind reads its ``touched_dyads`` map at each event's dyad, a
    closure kind the ``closure_positions`` of the pairs that count at the
    evaluation time.
    """

    def __init__(self, config: SimConfig, rs: RiskSet):
        self.cfg = config
        self.rs = rs
        self.n = 0
        self.left = 0  # oldest event still within the horizon
        self.times = np.empty(_CAPACITY)
        self.dyads = np.empty(_CAPACITY, dtype=np.int64)
        self.maps: dict[StatisticKind, np.ndarray] = {}  # width 1 kept 1-D: faster np.add.at
        for kind in config.effects:
            if kind not in SECOND_ORDER:
                dyad_map = touched_dyads(rs, kind, rs.senders, rs.receivers)
                self.maps[kind] = dyad_map[:, 0] if dyad_map.shape[1] == 1 else dyad_map
        self.closure = any(kind in SECOND_ORDER for kind in config.effects)
        self.n_pairs = 0
        self.pair_outer = np.empty(_CAPACITY, dtype=np.int64)  # ascending
        self.pair_inner = np.empty(_CAPACITY, dtype=np.int64)

    def append(self, t: float, d: int) -> None:
        i = self.n
        _room(self, i + 1, "times", "dyads")
        self.times[i], self.dyads[i] = t, d
        if self.closure:
            lo = int(np.searchsorted(self.times[:i], t - self.cfg.horizon, side="left"))
            window = self.rs.dyads[self.dyads[lo : i + 1]]
            inner = lo + closure_partners(window[:, 0], window[:, 1], 0, i - lo)
            a, b = self.n_pairs, self.n_pairs + inner.size
            _room(self, b, "pair_outer", "pair_inner")
            self.pair_outer[a:b] = i
            self.pair_inner[a:b] = inner
            self.n_pairs = b
        self.n += 1

    def log_rates(self, t: float, dominating: bool = False) -> np.ndarray:
        """log intensity per risk-set dyad at time t, history strictly before t.

        With ``dominating=True`` the closure statistics count every inner
        event that could ever fall inside an outer event's backward window
        (not just those reached by time t). First-order weights only shrink
        with age and closure windows only grow, so the dominating variant
        bounds the true intensity at all later times: that is the envelope
        the thinning proposals are drawn from. For first-order effects the
        two variants coincide.
        """
        cfg = self.cfg
        while self.left < self.n and t - self.times[self.left] > cfg.horizon:
            self.left += 1
        expo = np.full(len(self.rs), cfg.beta0)
        lo, hi = self.left, self.n
        if lo == hi or not cfg.effects:
            return expo
        if self.closure:  # the pairs whose outer event is within the horizon
            first = np.searchsorted(self.pair_outer[: self.n_pairs], lo)
            outer = self.pair_outer[first : self.n_pairs]
            inner = self.pair_inner[first : self.n_pairs]
            if not dominating:
                t_outer, t_inner = self.times[outer], self.times[inner]
                inside = 2.0 * t_outer - t_inner <= t
                outer, inner = outer[inside], inner[inside]
            inner_senders = self.rs.senders[self.dyads[inner]]
            outer_receivers = self.rs.receivers[self.dyads[outer]]
        ages = t - self.times[lo:hi]
        for kind, decay in cfg.effects.items():
            w = decay._eval(ages)  # t >= every history time: no sign check
            if kind in self.maps:
                pos = self.maps[kind][self.dyads[lo:hi]]
                if pos.ndim == 2:
                    w = w[:, None]  # broadcast along the trailing axis only
            else:
                pos = closure_positions(self.rs, kind, inner_senders, outer_receivers)
                w = w[outer - lo]
            np.add.at(expo, pos, w)
        return expo


def simulate(config: SimConfig) -> EventSequence:
    """Draw one event sequence by exact thinning of the dyadic intensities."""
    rs = RiskSet(config.n_actors)
    rng = np.random.default_rng(config.seed)
    state = _HistoryState(config, rs)
    t_cur = 0.0
    target = config.n_events if config.n_events is not None else np.inf
    end_time = config.end_time if config.end_time is not None else np.inf

    bound_cur = float(np.exp(state.log_rates(t_cur, dominating=True)).sum())
    while state.n < target:
        if bound_cur <= 0.0:
            raise SimulationError(
                f"total intensity underflowed to zero at t={t_cur}; simulation stalls"
            )
        if not np.isfinite(bound_cur):
            raise SimulationError(
                f"total intensity overflowed at t={t_cur} after {state.n} events; "
                "the process is supercritical (weaken the effects or the baseline)"
            )
        t_prop = t_cur + rng.exponential(1.0 / bound_cur)
        if t_prop == t_cur:
            raise SimulationError(
                f"waiting times underflowed at t={t_cur} after {state.n} events; "
                "the process is supercritical (weaken the effects or the baseline)"
            )
        if t_prop > end_time:
            break
        lam_prop = np.exp(state.log_rates(t_prop))
        total_prop = float(lam_prop.sum())
        ratio = total_prop / bound_cur
        if ratio > 1.0 + 1e-9:
            raise SimulationError(
                "intensity exceeded its thinning envelope; a decay function is not nonincreasing"
            )
        accepted = rng.uniform() <= ratio
        if accepted:
            p = lam_prop / total_prop
            d = int(rng.choice(len(rs), p=p / p.sum()))
            state.append(t_prop, d)
        t_cur = t_prop
        # closure windows grow between events, so a rejection moves their bound too
        bound_cur = (
            float(np.exp(state.log_rates(t_cur, dominating=True)).sum())
            if accepted or state.closure
            else total_prop
        )

    n = state.n
    senders, receivers = rs.dyads[state.dyads[:n]].T
    return EventSequence(state.times[:n].copy(), senders, receivers, config.n_actors, t0=0.0)
