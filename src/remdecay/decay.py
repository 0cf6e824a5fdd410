"""Decay functions mapping transpired time to an event's relative weight.

These are pure value objects: the simulator uses them as ground truth for
how an event's influence fades, and the trend extractor compares fitted
stepwise profiles against them. No parameter fitting happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .intervals import IntervalSpec, locate_intervals

__all__ = [
    "DecayFn",
    "StepwiseDecay",
    "LinearDecay",
    "WeibullDecay",
    "CompositeDecay",
    "DecayError",
    "half_life",
    "decay_to_json",
    "decay_from_json",
]


class DecayError(ValueError):
    pass


class DecayFn:
    """Base: callable on nonnegative transpired times, scalar or array."""

    def __call__(self, age):
        age = np.asarray(age, dtype=np.float64)
        if not np.all(age >= 0):
            raise DecayError("transpired time must be nonnegative")
        out = self._eval(age)
        return float(out) if out.ndim == 0 else out

    def _eval(self, age: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class StepwiseDecay(DecayFn):
    """Constant level per interval of the spec, 0 beyond the last bound."""

    spec: IntervalSpec
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(v) for v in self.levels)
        if len(levels) != self.spec.size:
            raise DecayError("need one level per interval")
        if not all(math.isfinite(v) for v in levels):
            raise DecayError("levels must be finite")
        object.__setattr__(self, "levels", levels)

    def _eval(self, age: np.ndarray) -> np.ndarray:
        k = locate_intervals(self.spec, np.atleast_1d(age))
        table = np.concatenate(([0.0], np.asarray(self.levels)))
        out = table[k]
        return out.reshape(np.shape(age))


@dataclass(frozen=True)
class LinearDecay(DecayFn):
    """Linear drop from ``peak`` at age 0 to zero at ``cutoff``."""

    cutoff: float
    peak: float

    def __post_init__(self) -> None:
        if not self.cutoff > 0:
            raise DecayError("cutoff must be positive")
        if not math.isfinite(self.peak):
            raise DecayError(f"peak must be finite, got {self.peak!r}")

    def _eval(self, age: np.ndarray) -> np.ndarray:
        return np.where(age < self.cutoff, self.peak - (self.peak / self.cutoff) * age, 0.0)


@dataclass(frozen=True)
class WeibullDecay(DecayFn):
    """peak * exp(-(age/scale)^shape).

    shape=1 is the exponential weight; with peak = 1/scale it matches the
    classic exponentially-weighted inertia. Large shapes approach a sharp
    step at age = scale.
    """

    scale: float
    shape: float
    peak: float

    def __post_init__(self) -> None:
        if not (self.scale > 0 and self.shape > 0):
            raise DecayError("scale and shape must be positive")
        if not math.isfinite(self.peak):
            raise DecayError(f"peak must be finite, got {self.peak!r}")

    def _eval(self, age: np.ndarray) -> np.ndarray:
        return self.peak * np.exp(-((age / self.scale) ** self.shape))


@dataclass(frozen=True)
class CompositeDecay(DecayFn):
    """Sum of shifted Weibull terms: smoothed multi-step profiles.

    Each component is evaluated at max(age - offset, 0), so an offset delays
    the start of that component's drop without changing its height.
    """

    components: tuple[tuple[WeibullDecay, float], ...]

    def __post_init__(self) -> None:
        comps = []
        for item in self.components:
            fn, offset = item
            if not isinstance(fn, WeibullDecay):
                raise DecayError("composite components must be WeibullDecay terms")
            if not (math.isfinite(offset) and offset >= 0):
                raise DecayError(f"component offset must be finite and >= 0, got {offset!r}")
            comps.append((fn, float(offset)))
        if not comps:
            raise DecayError("composite needs at least one component")
        object.__setattr__(self, "components", tuple(comps))

    def _eval(self, age: np.ndarray) -> np.ndarray:
        out = np.zeros_like(age, dtype=np.float64)
        for fn, offset in self.components:
            out += fn._eval(np.maximum(age - offset, 0.0))
        return out


def half_life(fn: WeibullDecay) -> float:
    """Age at which an exponential weight (shape=1) halves: scale * ln 2."""
    if not isinstance(fn, WeibullDecay) or fn.shape != 1:
        raise DecayError("half_life is defined for WeibullDecay with shape=1")
    return fn.scale * math.log(2.0)


_VARIANTS = {"stepwise": StepwiseDecay, "linear": LinearDecay, "weibull": WeibullDecay,
             "composite": CompositeDecay}


def decay_to_json(fn: DecayFn) -> dict:
    """The variant's name and every field; a spec or components nested as JSON."""
    variant = next((v for v, c in _VARIANTS.items() if type(fn) is c), None)
    if variant is None:
        raise DecayError(f"unknown decay variant {type(fn).__name__}")
    d = {"variant": variant, **{f.name: getattr(fn, f.name) for f in fields(fn)}}
    if isinstance(fn, StepwiseDecay):
        d["spec"] = fn.spec.to_json_dict()
    elif isinstance(fn, CompositeDecay):
        d["components"] = [{"term": decay_to_json(t), "offset": off} for t, off in fn.components]
    return d


def decay_from_json(d: dict) -> DecayFn:
    """The decay that ``decay_to_json`` wrote; a missing field raises KeyError."""
    cls = _VARIANTS.get(d["variant"])
    if cls is None:
        raise DecayError(f"unknown decay variant {d['variant']!r}")
    kw = {f.name: d[f.name] for f in fields(cls)}
    if cls is StepwiseDecay:
        kw["spec"] = IntervalSpec.from_json_dict(kw["spec"])
    elif cls is CompositeDecay:
        kw["components"] = tuple((decay_from_json(c["term"]), c["offset"]) for c in kw["components"])
    return cls(**kw)
