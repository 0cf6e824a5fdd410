"""Model averaging over a bag of stepwise models: the bag runner, weights,
draws, trends.

Two weighting systems are provided. BIC weights approximate posterior model
probabilities under a uniform model prior and concentrate on the single
best-fitting stepwise model. WAIC weights score one-step-ahead (or A-step)
predictive density and spread mass across competitive models, which is what
turns a bag of step functions into a smooth decay estimate.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .events import EventSequence, RiskSet
from .intervals import IntervalSpec, locate_intervals
from .likelihood import (
    FitOptions,
    LikelihoodOverflowError,
    ModelFit,
    RankDeficiencyError,
    event_derivatives,
    fit_mle,
)
from .stats import StatTensor, StatisticKind, _distinct_kinds, compute_stepwise_stats

__all__ = [
    "P_WAIC_WARN",
    "ModelBag",
    "PosteriorDraws",
    "PosteriorTrend",
    "WEIGHTINGS",
    "WaicConfig",
    "bag_weights",
    "bic_weights",
    "effective_model_count",
    "fit_bag",
    "waic_elpd",
    "waic_pointwise",
    "waic_model_rng",
    "weights_from_elpds",
    "sample_posterior",
    "extract_trend",
    "kde_mode",
    "hpd_interval",
]

_WAIC_STREAM = 101
_DRAW_STREAM = 202
P_WAIC_WARN = 0.4  # per-point p_waic above which WAIC is unreliable (Vehtari, Gelman & Gabry 2017)
WEIGHTINGS = ("bic", "waic")  # the names ``bag_weights`` weights a bag by


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax; non-finite scores get zero weight."""
    scores = np.asarray(scores, dtype=np.float64)
    safe = np.where(np.isfinite(scores), scores, -np.inf)
    mx = safe.max()
    if not np.isfinite(mx):
        raise ValueError("no finite scores to weight")
    w = np.exp(safe - mx)
    return w / w.sum()


def _mvn_draws(
    mean: np.ndarray, cov: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n >= 1 draws from MVN(mean, cov) via Cholesky; a zero covariance is exact."""
    P = mean.size
    if not cov.any():
        return np.tile(mean, (n, 1))
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        warnings.warn("covariance not positive definite; jittering by 1e-10", RuntimeWarning)
        scale = float(np.abs(np.diag(cov)).max())
        L = np.linalg.cholesky(cov + 1e-10 * max(scale, 1.0) * np.eye(P))
    z = rng.standard_normal((n, P))
    return mean + z @ L.T


@dataclass(frozen=True)
class WaicConfig:
    """Predictive scoring window: start after ``burn_in`` events, score
    ``ahead`` events per point. WAIC is computed in closed form, so
    ``n_draws`` and ``seed`` have no effect; they are accepted for callers
    written against the sampled WAIC."""

    burn_in: int
    ahead: int = 1
    n_draws: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in < 1:
            raise ValueError("burn_in must be >= 1")
        if self.ahead < 1:
            raise ValueError("ahead must be >= 1")

    @classmethod
    def default_for(cls, n_events: int, ahead: int = 1, n_draws: int = 500, seed: int = 0):
        burn = max(100, math.ceil(0.1 * n_events))
        burn = min(burn, n_events - ahead - 1)
        if burn < 1:
            raise ValueError(
                f"sequence too short for WAIC scoring: no burn_in satisfies {_WINDOW_RULE} "
                f"(M={n_events}, ahead={ahead})"
            )
        return cls(burn_in=burn, ahead=ahead, n_draws=n_draws, seed=seed)


_WINDOW_RULE = "1 <= burn_in < M - ahead"


def _check_window(cfg: WaicConfig, M: int) -> None:
    if not 1 <= cfg.burn_in < M - cfg.ahead:
        raise ValueError(
            f"burn_in must satisfy {_WINDOW_RULE} (burn_in={cfg.burn_in}, M={M}, ahead={cfg.ahead})"
        )


def waic_pointwise(
    fit: ModelFit, stats: StatTensor, cfg: WaicConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(lpd_i, p_i) for each scoring point of one model, in closed form.

    Point i in burn_in..M-ahead, M = ``stats.n_events``, scores the next
    ``ahead`` realized events given the history through event i, on the
    statistics of the full sequence. Under the fit's normal approximation
    N(beta_hat, cov_hat), the window's log density l_i(beta) has, to second
    order around beta_hat, log mean density lpd_i = l_i + tr(cov H_i) / 2 +
    g_i' cov g_i / 2 and variance p_i = g_i' cov g_i, where l_i, g_i and H_i
    sum the per-event terms, gradients and Hessians of the window's events
    at beta_hat. This is the second-order form of WAIC, asymptotically
    equivalent to leave-one-out (Watanabe 2010); it takes no draws, so
    ``cfg.n_draws`` has no effect and the result is deterministic. Only the
    design is read.
    """
    M, L, A = stats.n_events, cfg.burn_in, cfg.ahead
    _check_window(cfg, M)
    terms, grads, curvatures = event_derivatives(stats, fit.beta_hat, fit.cov_hat)
    points = slice(L, M - A + 1)  # the first row of each point's window
    ll, g, tr_h = terms[points], grads[points], curvatures[points]
    for a in range(1, A):
        window = slice(L + a, M - A + 1 + a)
        ll, g, tr_h = ll + terms[window], g + grads[window], tr_h + curvatures[window]
    p_i = np.einsum("ip,pq,iq->i", g, fit.cov_hat, g)
    return ll + 0.5 * tr_h + 0.5 * p_i, p_i


def _waic_totals(lpd_i: np.ndarray, p_i: np.ndarray) -> tuple[float, float, float]:
    lpd, p_waic = float(lpd_i.sum()), float(p_i.sum())
    return lpd - p_waic, lpd, p_waic


def waic_elpd(
    fit: ModelFit,
    stats: StatTensor,
    seq: EventSequence,
    cfg: WaicConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """(elpd_hat, lpd_hat, p_waic) for one model: lpd_hat sums the per-point
    log mean densities of ``waic_pointwise``, p_waic their variances, and
    elpd_hat = lpd_hat - p_waic. ``seq`` is not read; ``rng`` has no effect."""
    return _waic_totals(*waic_pointwise(fit, stats, cfg))


def _converged_scores(fits: Sequence[ModelFit], scores: np.ndarray) -> np.ndarray:
    out = np.array(scores, dtype=np.float64)
    skipped = [q for q, f in enumerate(fits) if not f.converged]
    if skipped:
        warnings.warn(
            f"excluding {len(skipped)} non-converged model(s) from weighting: {skipped[:10]}",
            RuntimeWarning,
        )
        out[skipped] = -np.inf
    return out


def bic_weights(fits: Sequence[ModelFit]) -> np.ndarray:
    """Weights proportional to exp(-BIC/2) under a uniform model prior.

    Non-converged fits are excluded (zero weight) with a warning and the
    rest renormalized.
    """
    if not fits:
        raise ValueError("empty model bag")
    scores = _converged_scores(fits, np.array([-f.bic / 2.0 for f in fits]))
    return _softmax(scores)


def waic_model_rng(seed: int, model_index: int) -> np.random.Generator:
    """A deterministic random stream per (seed, model). WAIC takes no draws,
    so passing it as ``rng`` has no effect; it is kept for callers written
    against the sampled WAIC."""
    return np.random.default_rng(np.random.SeedSequence((seed, _WAIC_STREAM, model_index)))


def weights_from_elpds(fits: Sequence[ModelFit], elpds: np.ndarray) -> np.ndarray:
    """Softmax of elpd scores with non-converged fits excluded."""
    return _softmax(_converged_scores(fits, np.asarray(elpds, dtype=np.float64)))


def bag_weights(fits: Sequence[ModelFit], weighting: str) -> np.ndarray:
    """Bag weights by ``"bic"``, or by ``"waic"`` from the elpd stored on each
    fit's ``waic`` (models without one get zero weight)."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "bic":
        return bic_weights(fits)
    elpds = [f.waic if f.waic is not None else -np.inf for f in fits]
    return weights_from_elpds(fits, np.array(elpds))


def effective_model_count(weights: np.ndarray) -> float:
    """1 / sum(w^2): the number of equally weighted models the weights amount to."""
    w = np.asarray(weights, dtype=np.float64)
    return float(1.0 / np.dot(w, w))


def _fit_model(seq: EventSequence, kinds: tuple[StatisticKind, ...], waic: WaicConfig | None,
               opts: FitOptions, task: tuple[int, IntervalSpec]) -> tuple[int, ModelFit, float]:
    """Build, fit and optionally WAIC-score model q of a bag, with its design
    (closure pairs included) built for it alone and dropped on return. A
    model whose fit raises ``RankDeficiencyError`` or
    ``LikelihoodOverflowError`` is returned as an unconverged fit with stop
    "error", the error text as its warning and NaN estimates, so the rest of
    the bag still runs and the model gets zero weight."""
    q, spec = task
    t_start = time.perf_counter()
    stats = compute_stepwise_stats(seq, RiskSet(seq.n_actors), kinds, spec)
    try:
        fit = fit_mle(stats, seq, opts)
    except (RankDeficiencyError, LikelihoodOverflowError) as exc:
        P, M = stats.n_columns, stats.n_events
        fit = ModelFit(spec=stats.spec, kinds=stats.kinds, labels=stats.labels,
                       beta_hat=np.full(P, np.nan), cov_hat=np.full((P, P), np.nan),
                       loglik=math.nan, n_params=P, n_events=M, bic=math.nan,
                       converged=False, warnings=(str(exc),), stop="error")
    if waic is not None and fit.converged:
        lpd_i, p_i = waic_pointwise(fit, stats, waic)
        fit.waic = _waic_totals(lpd_i, p_i)[0]
        fit.n_waic_points = len(p_i)
        fit.n_high_p_waic = int(np.count_nonzero(p_i > P_WAIC_WARN))
    return q, fit, time.perf_counter() - t_start


def fit_bag(
    seq: EventSequence,
    specs: Sequence[IntervalSpec],
    kinds: Iterable[StatisticKind],
    waic: WaicConfig | None = None,
    ridge: float = 0.0,
    jobs: int = 1,
) -> Iterator[tuple[int, ModelFit, float]]:
    """Fit every model of a bag; the returned iterator yields
    ``(q, fit, seconds)`` in bag order.

    Model q is the stepwise model of ``kinds`` on ``specs[q]``. With ``waic``
    set, each converged fit is scored: its elpd is stored on ``fit.waic``,
    its number of scoring points on ``fit.n_waic_points`` and its count of
    points with p_waic_i > ``P_WAIC_WARN`` on ``fit.n_high_p_waic``. A model
    whose fit raises a rank-deficiency or overflow error is yielded as an
    unconverged fit with stop "error".
    Every result is deterministic, so none depends on ``jobs``. ``jobs > 1``
    spreads the models over that many worker processes (never more than
    there are models). Only one design per process is alive at a time. The
    options, ``kinds`` (an empty list or a kind given twice is an error) and
    ``specs`` (an empty bag is an error) are validated by this call, before
    any model runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if not specs:
        raise ValueError("empty model bag: no interval specs to fit")
    kinds = _distinct_kinds(kinds)
    if not kinds:
        raise ValueError("no statistic kinds to fit: every model would be intercept-only")
    if waic is not None:
        _check_window(waic, len(seq))
    args = (seq, kinds, waic, FitOptions(ridge=ridge))
    tasks = list(enumerate(specs))
    return _run_bag(args, tasks, min(jobs, len(tasks)))


def _run_bag(args: tuple, tasks: list[tuple[int, IntervalSpec]], workers: int
             ) -> Iterator[tuple[int, ModelFit, float]]:
    run = functools.partial(_fit_model, *args)
    if workers <= 1:
        yield from map(run, tasks)
        return
    import concurrent.futures  # a serial run never loads the pool

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, tasks, chunksize=max(1, len(tasks) // (8 * workers)))


@dataclass
class ModelBag:
    """Fitted stepwise models plus their normalized weights."""

    fits: list[ModelFit]
    weights: np.ndarray
    weighting_kind: str  # one of WEIGHTINGS

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.fits) != self.weights.size or not self.fits:
            raise ValueError("need one weight per fit")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector (sum within 1e-12)")
        if self.weighting_kind not in WEIGHTINGS:
            raise ValueError(f"unknown weighting kind {self.weighting_kind!r}")


@dataclass
class PosteriorDraws:
    """Mixture draws, held per model: draw slot s came from model
    ``model_indices[s]``, and ``blocks[q]`` holds model q's coefficient rows
    (one per slot of q, in slot order)."""

    model_indices: np.ndarray
    blocks: dict[int, np.ndarray]

    @property
    def n_draws(self) -> int:
        return self.model_indices.size


def sample_posterior(bag: ModelBag, n_draws: int, seed: int = 0) -> PosteriorDraws:
    """Draw model indices from the weight vector, then coefficients from each
    drawn model's normal posterior approximation. Deterministic per seed."""
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _DRAW_STREAM)))
    qs = rng.choice(len(bag.fits), size=n_draws, p=bag.weights).astype(np.int64)
    q_drawn, counts = np.unique(qs, return_counts=True)
    blocks = {
        int(q): _mvn_draws(bag.fits[q].beta_hat, bag.fits[q].cov_hat, int(c), rng)
        for q, c in zip(q_drawn, counts)
    }
    return PosteriorDraws(model_indices=qs, blocks=blocks)


def _quantile(s: np.ndarray, q: float) -> float:
    """The q-quantile of the sorted sample ``s`` by the linear rule that
    ``kde_mode`` states, with the arithmetic of ``np.percentile``."""
    v = (s.size - 1) * q
    i = math.floor(v)
    g = v - i
    a, b = float(s[i]), float(s[min(i + 1, s.size - 1)])
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1.0 - g)


def kde_mode(values: np.ndarray, n_grid: int = 512) -> float:
    """Argmax of a Gaussian KDE evaluated on an n_grid-point grid spanning
    the sample range; bandwidth by Silverman's rule on the smaller of the
    standard deviation and the normalized interquartile range.

    The quartiles are read off one sort s of the n values by NumPy's default
    linear rule, type 7 of Hyndman & Fan (1996): for q = 0.25 and 0.75,
    v = (n - 1) q, i = floor(v), g = v - i, a = s[i], b = s[min(i + 1, n - 1)]
    and d = b - a give a + d g when g < 0.5, else b - d (1 - g). They equal
    ``np.percentile(values, [25, 75])`` bit for bit, up to the sign of a zero
    quartile from a tie of 0.0 and -0.0."""
    x = np.asarray(values, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo
    counts, edges = np.histogram(x, bins=n_grid, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    sd = float(x.std(ddof=1))
    s = np.sort(x)
    iqr = _quantile(s, 0.75) - _quantile(s, 0.25)
    a = min(sd, iqr / 1.34) if iqr > 0 else sd
    if a <= 0:
        return centers[int(np.argmax(counts))]
    bw = 0.9 * a * x.size ** (-0.2)
    step = (hi - lo) / n_grid
    half = min(int(math.ceil(4.0 * bw / step)), 4 * n_grid)
    u = np.arange(-half, half + 1) * step / bw
    kernel = np.exp(-0.5 * u * u)
    # the central n_grid points of the full convolution: mode="same" returns
    # the longer input's length, the kernel's when it outgrows the grid
    dens = np.convolve(counts.astype(np.float64), kernel)[half : half + n_grid]
    return float(centers[int(np.argmax(dens))])


def _check_level(level: float) -> None:
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level!r}")


def hpd_interval(values: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Shortest interval containing ceil(level * n) of the sorted values;
    ``level`` must be in (0, 1]."""
    _check_level(level)
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    w = min(n, int(math.ceil(level * n)))
    if w < 1:
        raise ValueError("empty sample")
    widths = x[w - 1 :] - x[: n - w + 1]
    j = int(np.argmin(widths))
    return float(x[j]), float(x[j + w - 1])


@dataclass
class PosteriorTrend:
    """Per-age posterior mode and HPD band for each interval-defined effect,
    plus the posterior summary of the intercept (which has no age axis)."""

    grid: np.ndarray
    modes: dict[StatisticKind, np.ndarray]
    hpd_low: dict[StatisticKind, np.ndarray]
    hpd_high: dict[StatisticKind, np.ndarray]
    means: dict[StatisticKind, np.ndarray]
    intercept_mode: float
    intercept_hpd: tuple[float, float]
    level: float

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "grid": [float(g) for g in self.grid],
            "effects": {
                k.value: {
                    "mode": [float(v) for v in self.modes[k]],
                    "hpd_low": [float(v) for v in self.hpd_low[k]],
                    "hpd_high": [float(v) for v in self.hpd_high[k]],
                    "mean": [float(v) for v in self.means[k]],
                }
                for k in self.modes
            },
            "intercept": {
                "mode": self.intercept_mode,
                "hpd_low": self.intercept_hpd[0],
                "hpd_high": self.intercept_hpd[1],
            },
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["kind", "gamma", "mode", "hpd_low", "hpd_high"])
            w.writerow(
                [
                    "intercept",
                    "",
                    repr(self.intercept_mode),
                    repr(self.intercept_hpd[0]),
                    repr(self.intercept_hpd[1]),
                ]
            )
            for kind in self.modes:
                for g, m, lo, hi in zip(
                    self.grid, self.modes[kind], self.hpd_low[kind], self.hpd_high[kind]
                ):
                    w.writerow([kind.value, repr(float(g)), repr(float(m)), repr(float(lo)), repr(float(hi))])


def _model_columns(fit: ModelFit, kind: StatisticKind, grid: np.ndarray) -> np.ndarray:
    """Column index of ``kind`` per grid age under this fit's spec; -1 beyond its horizon."""
    K = (fit.n_params - 1) // len(fit.kinds)
    k_idx = locate_intervals(fit.spec, grid)
    return np.where(k_idx == 0, -1, fit.kinds.index(kind) * K + k_idx)


def extract_trend(
    draws: PosteriorDraws,
    bag: ModelBag,
    grid_size: int = 100,
    gamma_max: float | None = None,
    level: float = 0.95,
) -> PosteriorTrend:
    """Evaluate each posterior draw's stepwise effect function, for each kind
    of the first fit, on an even age grid from 0 to ``gamma_max`` (finite and
    > 0; default the largest horizon in the bag) and summarize the resulting
    per-age densities.

    A draw from a model whose last bound is below a grid age contributes 0
    there (the effect function vanishes beyond its horizon). The point
    summary is the KDE mode; the band is the shortest interval holding
    ``level`` (in (0, 1]) of the draws.
    """
    if draws.n_draws < 10:
        raise ValueError(f"need at least 10 draws, got {draws.n_draws}")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    _check_level(level)
    if gamma_max is not None and not (math.isfinite(gamma_max) and gamma_max > 0):
        raise ValueError(f"gamma_max must be finite and > 0, got {gamma_max!r}")
    fits = bag.fits
    if gamma_max is None:
        gamma_max = max(f.spec.horizon for f in fits)
    grid = np.linspace(0.0, float(gamma_max), grid_size)

    slots = {q: np.flatnonzero(draws.model_indices == q) for q in draws.blocks}
    vals = np.empty(draws.n_draws)

    def summarize(columns: dict[int, np.ndarray]) -> np.ndarray:
        """(mode, hpd_low, hpd_high, mean) per grid point, from each drawn
        model's column per point (-1 where its effect is 0); points that read
        the same column of every model share one draw vector, summarized once."""
        distinct, inverse = np.unique(np.column_stack(list(columns.values())), axis=0,
                                      return_inverse=True)
        out = np.empty((len(distinct), 4))
        for u, row in enumerate(distinct):
            for q, c in zip(columns, row):
                vals[slots[q]] = 0.0 if c < 0 else draws.blocks[q][:, c]
            out[u] = (kde_mode(vals), *hpd_interval(vals, level), vals.mean())
        return out[inverse.reshape(-1)].T

    summaries = {
        kind: summarize({q: _model_columns(fits[q], kind, grid) for q in draws.blocks})
        for kind in fits[0].kinds
    }
    intercept = summarize({q: np.zeros(1, dtype=np.int64) for q in draws.blocks})[:, 0]
    return PosteriorTrend(
        grid=grid,
        modes={k: s[0] for k, s in summaries.items()},
        hpd_low={k: s[1] for k, s in summaries.items()},
        hpd_high={k: s[2] for k, s in summaries.items()},
        means={k: s[3] for k, s in summaries.items()},
        intercept_mode=float(intercept[0]),
        intercept_hpd=(float(intercept[1]), float(intercept[2])),
        level=level,
    )
