"""Span recorder and the traced, serial library run of one workload.

The spans are recorded by this file around each call into a remdecay layer;
the package itself is not instrumented. Spans stay in memory until the run
ends. A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from remdecay import (
    FitOptions,
    ModelBag,
    RiskSet,
    SimConfig,
    StatisticKind,
    WaicConfig,
    bic_weights,
    build_triad_pairs,
    compute_stepwise_stats,
    decay_from_json,
    extract_trend,
    fit_mle,
    generate_interval_bag,
    load_events,
    sample_posterior,
    simulate,
    waic_elpd,
)
from remdecay.bma import waic_model_rng, weights_from_elpds
from remdecay.stats import SECOND_ORDER

from workloads import Workload

# Layers that the fit-bag command runs, in the order it runs them.
FIT_BAG_LAYERS = ("events.load", "stats.triad_pairs", "stats.build", "likelihood.fit",
                  "bma.waic", "bma.weights")


class Tracer:
    """Records (name, start, end, parent, run id) spans in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed span time not covered by child spans."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def counts(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f)


def array_bytes(obj, seen: set | None = None) -> int:
    """Bytes of every numpy array reachable from ``obj``'s attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if hasattr(obj, "__dict__") and type(obj).__module__.startswith("remdecay"):
        return sum(array_bytes(v, seen) for v in vars(obj).values())
    return 0


def trend_errors(trend_modes: dict[str, np.ndarray], grid: np.ndarray, effects: dict) -> dict:
    """RMSE of each fitted kind's trend mode against the simulated truth
    (zero for kinds that were not simulated), plus the pooled RMSE."""
    errs = {}
    for kind, mode in trend_modes.items():
        truth = decay_from_json(effects[kind])(grid) if kind in effects else np.zeros_like(grid)
        errs[kind] = float(np.sqrt(np.mean((np.asarray(mode) - truth) ** 2)))
    errs["pooled"] = float(np.sqrt(np.mean([e * e for e in errs.values()])))
    return errs


def traced_run(wl: Workload, seed: int, work: str, tracer: Tracer) -> dict:
    """Run one workload serially through the library's public functions,
    mirroring the CLI pipeline step for step, with one span per call."""
    seeds = wl.seeds(seed)
    kinds = tuple(StatisticKind(k) for k in wl.kinds)
    events_csv = f"{work}/events.csv"
    with tracer.span("run"):
        with tracer.span("sim.simulate") as c:
            sim_seq = simulate(SimConfig(
                n_actors=wl.n_actors,
                beta0=wl.beta0,
                effects={StatisticKind(k): decay_from_json(v) for k, v in wl.effects.items()},
                horizon=wl.gamma_max,
                n_events=wl.n_events,
                seed=seeds["simulate"],
            ))
            c["events"] = len(sim_seq)
        sim_seq.to_csv(events_csv)
        with tracer.span("intervals.generate"):
            bag = generate_interval_bag(wl.k_values, wl.per_kind_count, wl.min_size,
                                        wl.gamma_max, seeds["intervals"])
        with tracer.span("fit-bag"):
            with tracer.span("events.load"):
                seq = load_events(events_csv)
            rs = RiskSet(seq.n_actors)
            waic_cfg = None
            if wl.weighting == "waic":
                waic_cfg = WaicConfig.default_for(len(seq), n_draws=wl.waic_draws,
                                                  seed=seeds["fit"])
            pairs_cache: dict[float, object] = {}
            fits, elpds, design_bytes = [], [], []
            for q, spec in enumerate(bag):
                pairs = None
                if any(k in SECOND_ORDER for k in kinds):
                    if spec.horizon not in pairs_cache:
                        with tracer.span("stats.triad_pairs") as c:
                            pairs_cache[spec.horizon] = build_triad_pairs(seq, rs, spec.horizon)
                            c["pairs"] = pairs_cache[spec.horizon].n_pairs
                    pairs = pairs_cache[spec.horizon]
                with tracer.span("stats.build"):
                    stats = compute_stepwise_stats(seq, rs, kinds, spec, triad_pairs=pairs)
                design_bytes.append(array_bytes(stats))
                with tracer.span("likelihood.fit") as c:
                    fit = fit_mle(stats, seq, FitOptions(ridge=0.0))
                    c["iterations"] = fit.iterations
                    c["jitter"] = int(any("jitter" in w for w in fit.warnings))
                    c["converged"] = int(fit.converged)
                elpd = -np.inf
                if waic_cfg is not None and fit.converged:
                    with tracer.span("bma.waic") as c:
                        elpd, _, _ = waic_elpd(fit, stats, seq, waic_cfg,
                                               rng=waic_model_rng(waic_cfg.seed, q))
                        fit.waic = elpd
                        points = len(seq) - waic_cfg.ahead + 1 - waic_cfg.burn_in
                        c["evals"] = points * waic_cfg.n_draws
                del stats
                fits.append(fit)
                elpds.append(elpd)
            with tracer.span("bma.weights"):
                if wl.weighting == "bic":
                    weights = bic_weights(fits)
                else:
                    weights = weights_from_elpds(fits, np.array(elpds))
        model_bag = ModelBag(fits=fits, weights=weights, weighting_kind=wl.weighting)
        with tracer.span("bma.sample"):
            draws = sample_posterior(model_bag, wl.trend_draws, seed=seeds["trend"])
        with tracer.span("bma.trend"):
            trend = extract_trend(draws, model_bag, grid_size=wl.grid_size)
    return {
        "weights": weights,
        "design_bytes": design_bytes,
        "n_events": len(sim_seq),
        "n_models": len(bag),
        "trend_rmse": trend_errors({k.value: m for k, m in trend.modes.items()},
                                   trend.grid, wl.effects),
    }


def layer_metrics(tracer: Tracer, result: dict, fit_bag_serial_s: float,
                  fit_bag_jobs_s: float, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    st = tracer.self_times()
    layer_sum = sum(st.get(name, 0.0) for name in FIT_BAG_LAYERS)
    n_models = result["n_models"]
    w = np.asarray(result["weights"])
    converged = tracer.counts("likelihood.fit", "converged")
    return {
        "sim.simulate_s": (st["sim.simulate"], "s"),
        "sim.events_per_s": (result["n_events"] / st["sim.simulate"], "events/s"),
        "events.load_s": (st["events.load"], "s"),
        "intervals.generate_s": (st["intervals.generate"], "s"),
        "stats.build_s": (st["stats.build"], "s"),
        "stats.triad_pairs_s": (st.get("stats.triad_pairs", 0.0), "s"),
        "stats.triad_pairs": (tracer.counts("stats.triad_pairs", "pairs"), "count"),
        "stats.design_mb": (max(result["design_bytes"]) / 1e6, "MB"),
        "likelihood.fit_s": (st["likelihood.fit"], "s"),
        "likelihood.newton_iters": (tracer.counts("likelihood.fit", "iterations"), "count"),
        "likelihood.jitter_fits": (tracer.counts("likelihood.fit", "jitter"), "count"),
        "likelihood.converged_ratio": (converged / n_models, "ratio"),
        "bma.waic_s": (st.get("bma.waic", 0.0), "s"),
        "bma.waic_evals": (tracer.counts("bma.waic", "evals"), "count"),
        "bma.weights_s": (st["bma.weights"], "s"),
        "bma.sample_s": (st["bma.sample"], "s"),
        "bma.trend_s": (st["bma.trend"], "s"),
        "bma.n_eff_models": (float(1.0 / np.sum(w * w)), "count"),
        "bma.max_weight": (float(w.max()), "ratio"),
        "bma.trend_rmse": (result["trend_rmse"]["pooled"], "effect"),
        "bma.trend_rmse_inertia": (result["trend_rmse"]["inertia"], "effect"),
        "cli.fit_bag_serial_s": (fit_bag_serial_s, "s"),
        "cli.fit_bag_overhead_s": (fit_bag_serial_s - layer_sum, "s"),
        "cli.parallel_efficiency": (layer_sum / (jobs * fit_bag_jobs_s), "ratio"),
        "trace.layer_sum_s": (layer_sum, "s"),
        "trace.overhead_s": (tracer.total("fit-bag") - layer_sum, "s"),
    }
