"""Transpired-time interval partitions and the randomized bag generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "IntervalSpec",
    "IntervalSpecError",
    "generate_interval_bag",
    "locate_interval",
    "locate_intervals",
    "equal_spec",
    "bag_to_json",
    "bag_from_json",
]

KINDS = ("increasing", "decreasing", "equal")


class IntervalSpecError(ValueError):
    pass


@dataclass(frozen=True)
class IntervalSpec:
    """Right bounds (g_1..g_K) of a partition of transpired time.

    The implicit left bound g_0 is 0. Interval k covers ages in
    (g_{k-1}, g_k]; age 0 belongs to interval 1 and ages beyond g_K fall
    outside every interval. ``kind`` records the width pattern used to
    generate the spec (None for hand-built boundary vectors).
    """

    gamma: np.ndarray
    kind: str | None = None

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.gamma, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise IntervalSpecError("gamma must be a non-empty 1-d vector")
        if not np.all(np.isfinite(g)):
            raise IntervalSpecError("gamma must be finite")
        if g[0] <= 0 or np.any(np.diff(g) <= 0):
            raise IntervalSpecError("gamma must be strictly increasing and positive")
        if self.kind is not None:
            if self.kind not in KINDS:
                raise IntervalSpecError(f"unknown interval kind {self.kind!r}")
            w = np.diff(np.concatenate(([0.0], g)))
            if self.kind == "increasing" and np.any(np.diff(w) < 0):
                raise IntervalSpecError("widths not nondecreasing for kind='increasing'")
            if self.kind == "decreasing" and np.any(np.diff(w) > 0):
                raise IntervalSpecError("widths not nonincreasing for kind='decreasing'")
            if self.kind == "equal" and np.any(np.abs(w - w[0]) > 1e-9 * g[-1]):
                raise IntervalSpecError("widths not equal for kind='equal'")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def size(self) -> int:
        return int(self.gamma.size)

    @property
    def horizon(self) -> float:
        return float(self.gamma[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.gamma)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSpec):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.gamma, other.gamma)

    def __hash__(self) -> int:
        return hash((self.kind, self.gamma.tobytes()))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "gamma": [float(g) for g in self.gamma]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntervalSpec":
        return cls(np.asarray(d["gamma"], dtype=np.float64), kind=d.get("kind"))


def equal_spec(n_intervals: int, gamma_max: float) -> IntervalSpec:
    g = np.arange(1, n_intervals + 1, dtype=np.float64) * (gamma_max / n_intervals)
    g[-1] = gamma_max
    return IntervalSpec(g, kind="equal")


def locate_interval(spec: IntervalSpec, age: float) -> int | None:
    """1-based interval index holding transpired time ``age``; None beyond g_K.

    Intervals are left-open right-closed, so an age exactly on a boundary
    belongs to the earlier interval, and age 0 belongs to interval 1.
    """
    if age < 0:
        raise IntervalSpecError(f"transpired time must be nonnegative, got {age}")
    if age > spec.horizon:
        return None
    return int(np.searchsorted(spec.gamma, age, side="left")) + 1


def locate_intervals(spec: IntervalSpec, ages: np.ndarray) -> np.ndarray:
    """Vectorized locate: 1-based indices, 0 marking ages beyond the horizon."""
    ages = np.asarray(ages, dtype=np.float64)
    k = np.searchsorted(spec.gamma, ages, side="left").astype(np.int64) + 1
    k[ages > spec.horizon] = 0
    return k


def _draw_simplex(rng: np.random.Generator, n: int, min_size: float) -> np.ndarray:
    # Dirichlet(1,..,1) via normalized standard exponentials, rejecting
    # draws whose smallest share is below min_size (checked pre-scaling).
    while True:
        x = rng.standard_exponential(n)
        xi = x / x.sum()
        if xi.min() >= min_size:
            return xi


def generate_interval_bag(
    K_values: Iterable[int],
    per_kind_count: int,
    min_size: float,
    gamma_K: float,
    rng_seed: int,
) -> list[IntervalSpec]:
    """Generate the randomized bag of stepwise interval specs.

    For each K in ``K_values`` the bag receives ``per_kind_count`` specs with
    nondecreasing widths, ``per_kind_count`` with nonincreasing widths (the
    same simplex draw sorted the other way), and one equal-width spec. Width
    shares below ``min_size`` (a fraction of gamma_K) are rejected and
    redrawn. The last bound is set to gamma_K exactly. Fixed seed, fixed bag.
    """
    K_values = list(K_values)
    if per_kind_count < 0:
        raise IntervalSpecError("per_kind_count must be >= 0")
    if gamma_K <= 0:
        raise IntervalSpecError("gamma_K must be positive")
    for K in K_values:
        if K < 2:
            raise IntervalSpecError(f"each K must be >= 2, got {K}")
        if not 0 < min_size < 1.0 / K:
            raise IntervalSpecError(
                f"min_size must lie in (0, 1/K); got {min_size} with K={K}"
            )
    rng = np.random.default_rng(rng_seed)
    bag: list[IntervalSpec] = []
    for K in K_values:
        for kind in ("increasing", "decreasing"):
            for _ in range(per_kind_count):
                xi = np.sort(_draw_simplex(rng, K, min_size))
                if kind == "decreasing":
                    xi = xi[::-1]
                g = np.cumsum(xi) * gamma_K
                g[-1] = gamma_K
                bag.append(IntervalSpec(g, kind=kind))
        bag.append(equal_spec(K, gamma_K))
    return bag


def bag_to_json(bag: Sequence[IntervalSpec]) -> list[dict]:
    return [spec.to_json_dict() for spec in bag]


def bag_from_json(data: Sequence[dict]) -> list[IntervalSpec]:
    return [IntervalSpec.from_json_dict(d) for d in data]
