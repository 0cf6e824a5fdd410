"""Batch front-end: simulate, generate interval bags, fit, weight, trend.

The pipeline is simulate (or your own events.csv) -> gen-intervals ->
fit-bag -> trend -> report. ``gen-intervals`` draws the randomized bag of
interval specs once, and ``fit-bag`` fits and weights the bag it reads from
that intervals.json (``--intervals-file``), so BIC and WAIC can weight the
same bag.

Every subcommand is a pure function of (config, input files, seed): rerunning
with the same inputs reproduces the data artifacts byte for byte (the timing
log is the one exception). Each checks its options and inputs before it
creates ``--out``, so a command that fails there leaves nothing behind.
Config comes from an optional flat JSON file, and any field can be overridden
by the flag of the same name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from .bma import (
    P_WAIC_WARN,
    ModelBag,
    WaicConfig,
    bag_weights,
    effective_model_count,
    extract_trend,
    fit_bag,
    sample_posterior,
)
from .decay import decay_from_json
from .events import EventSequence, load_events
from .intervals import bag_from_json, bag_to_json, generate_interval_bag
from .likelihood import ModelFit
from .sim import SimConfig, SimulationError, simulate
from .stats import StatisticKind

__all__ = ["main", "cmd_simulate", "cmd_gen_intervals", "cmd_fit_bag", "cmd_trend", "cmd_report"]


class CliError(RuntimeError):
    pass


def _ensure_outputs(paths: list[str], force: bool) -> None:
    clashes = [p for p in paths if os.path.exists(p)]
    if clashes and not force:
        raise CliError(f"refusing to overwrite {clashes[0]} (use --force)")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _log(f, **record) -> None:
    """Append one JSON record to the open log ``f`` and flush it."""
    f.write(json.dumps(record, sort_keys=True) + "\n")
    f.flush()


def _read_json(path: str, expected: str, parse):
    """``parse`` of the JSON document in ``path``; a file that is not JSON or
    lacks what ``parse`` reads is an error naming the file and ``expected``."""
    with open(path) as f:
        try:
            return parse(json.load(f))
        except json.JSONDecodeError as exc:
            raise CliError(f"{path} is not JSON ({exc}); expected {expected}") from exc
        except KeyError as exc:
            raise CliError(f"{path} has no field {exc}; expected {expected}") from exc
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path} is malformed ({exc}); expected {expected}") from exc


def _parse_kinds(text: str) -> tuple[StatisticKind, ...]:
    return tuple(StatisticKind(k.strip()) for k in text.split(",") if k.strip())


def _load_sequence(cfg: dict) -> EventSequence:
    return load_events(
        cfg["events"],
        tie_policy=cfg.get("tie_policy", "error"),
        tie_unit=cfg.get("tie_unit", 1.0),
    )


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: dict) -> dict:
    out = cfg["out"]
    events_path = os.path.join(out, "events.csv")
    manifest_path = os.path.join(out, "manifest.json")
    _ensure_outputs([events_path, manifest_path, os.path.join(out, "config.json")],
                    cfg.get("force", False))

    effects = {
        StatisticKind(k): decay_from_json(v) for k, v in cfg.get("effects", {}).items()
    }
    sim_cfg = SimConfig(
        n_actors=cfg["n_actors"],
        beta0=cfg["beta0"],
        effects=effects,
        horizon=cfg.get("horizon") if cfg.get("horizon") is not None else np.inf,
        n_events=cfg.get("n_events"),
        end_time=cfg.get("end_time"),
        seed=cfg.get("seed", 0),
    )
    seq = simulate(sim_cfg)
    os.makedirs(out, exist_ok=True)
    seq.to_csv(events_path)
    _write_json(manifest_path, {"generator": sim_cfg.to_json_dict(), "n_events": len(seq)})
    _write_json(os.path.join(out, "config.json"), cfg)
    return {"events": events_path, "manifest": manifest_path, "n_events": len(seq)}


# ---------------------------------------------------------------------------
# gen-intervals


def cmd_gen_intervals(cfg: dict) -> dict:
    out = cfg["out"]
    path = os.path.join(out, "intervals.json")
    _ensure_outputs([path, os.path.join(out, "config.json")], cfg.get("force", False))
    bag = generate_interval_bag(
        K_values=cfg.get("k_values", [3, 4, 5]),
        per_kind_count=cfg.get("per_kind_count", 250),
        min_size=cfg.get("min_size", 0.05),
        gamma_K=cfg["gamma_max"],
        rng_seed=cfg.get("seed", 0),
    )
    os.makedirs(out, exist_ok=True)
    _write_json(path, {"gamma_max": cfg["gamma_max"], "specs": bag_to_json(bag)})
    _write_json(os.path.join(out, "config.json"), cfg)
    return {"intervals": path, "n_specs": len(bag)}


# ---------------------------------------------------------------------------
# fit-bag


def cmd_fit_bag(cfg: dict) -> dict:
    out = cfg["out"]
    fits_path = os.path.join(out, "fits.json")
    weights_path = os.path.join(out, "weights.csv")
    log_path = os.path.join(out, "log.ndjson")
    _ensure_outputs([fits_path, weights_path, log_path, os.path.join(out, "config.json")],
                    cfg.get("force", False))

    seq = _load_sequence(cfg)
    kinds = _parse_kinds(cfg.get("kinds", "inertia"))
    weighting = cfg.get("weighting", "bic")
    if weighting not in ("bic", "waic"):
        raise CliError(f"unknown weighting {weighting!r}")

    bag = _read_json(cfg["intervals_file"], "the intervals.json that gen-intervals writes",
                     lambda doc: bag_from_json(doc["specs"]))

    waic_cfg = None
    if weighting == "waic":
        burn_in = cfg.get("waic_burn_in")
        ahead = cfg.get("waic_ahead", 1)
        waic_cfg = WaicConfig(
            burn_in=burn_in if burn_in is not None else WaicConfig.default_for(len(seq), ahead).burn_in,
            ahead=ahead,
        )

    jobs = int(cfg.get("jobs", 1))
    # validates the fit options before anything is written
    runs = fit_bag(seq, bag, kinds, waic=waic_cfg, ridge=cfg.get("ridge", 0.0), jobs=jobs)
    os.makedirs(out, exist_ok=True)
    with open(log_path, "w") as log:
        _log(log, event="start", n_models=len(bag), weighting=weighting, jobs=jobs)
        t0 = time.perf_counter()
        fits: list[ModelFit] = []
        for q, fit, seconds in runs:
            fits.append(fit)
            if fit.stop == "error":
                _log(log, event="error", model=q, seconds=seconds, error=fit.warnings[0])
                continue
            _log(log, event="fit", model=q, seconds=seconds, loglik=fit.loglik,
                 converged=fit.converged, elpd=fit.waic, iterations=fit.iterations,
                 halvings=fit.halvings, max_abs_grad=fit.max_abs_grad, jitter=fit.jittered,
                 high_p_waic=fit.n_high_p_waic)
        wall = time.perf_counter() - t0

        n_converged = sum(f.converged for f in fits)
        if n_converged == 0:
            raise CliError("no model converged; nothing to weight")
        weights = bag_weights(fits, weighting)

        _write_json(fits_path, {"weighting": weighting, "fits": [f.to_json_dict() for f in fits]})
        with open(weights_path, "w") as f:
            f.write("model_id,kind_of_intervals,K,bic,waic,weight\n")
            for q, (fit, w) in enumerate(zip(fits, weights)):
                waic_s = repr(fit.waic) if fit.waic is not None else ""
                f.write(
                    f"{q},{fit.spec.kind or 'custom'},{fit.spec.size},"
                    f"{repr(fit.bic)},{waic_s},{repr(float(w))}\n"
                )
        _log(log, event="done", seconds=wall, models_per_second=len(bag) / wall,
             n_converged=n_converged, max_weight=float(weights.max()),
             n_eff_models=effective_model_count(weights))
    _write_json(os.path.join(out, "config.json"), cfg)
    return {
        "fits": fits_path,
        "weights": weights_path,
        "n_models": len(bag),
        "n_converged": n_converged,
        "seconds": wall,
    }


# ---------------------------------------------------------------------------
# trend


def _load_bag(out_or_fits: str) -> ModelBag:
    fits_path = (
        out_or_fits
        if out_or_fits.endswith(".json")
        else os.path.join(out_or_fits, "fits.json")
    )
    fits, weighting = _read_json(
        fits_path, "the fits.json that fit-bag writes",
        lambda doc: ([ModelFit.from_json_dict(d) for d in doc["fits"]], doc["weighting"]),
    )
    return ModelBag(fits=fits, weights=bag_weights(fits, weighting), weighting_kind=weighting)


def cmd_trend(cfg: dict) -> dict:
    out = cfg["out"]
    csv_path = os.path.join(out, "trend.csv")
    json_path = os.path.join(out, "trend.json")
    _ensure_outputs([csv_path, json_path, os.path.join(out, "trend_config.json")],
                    cfg.get("force", False))

    bag = _load_bag(cfg.get("fits") or cfg["out"])
    draws = sample_posterior(bag, cfg.get("n_draws", 10000), seed=cfg.get("seed", 0))
    trend = extract_trend(
        draws,
        bag,
        grid_size=cfg.get("grid_size", 100),
        gamma_max=cfg.get("gamma_max"),
        level=cfg.get("level", 0.95),
    )
    os.makedirs(out, exist_ok=True)
    trend.to_csv(csv_path)
    _write_json(json_path, trend.to_json_dict())
    _write_json(os.path.join(out, "trend_config.json"), cfg)
    return {"trend_csv": csv_path, "trend_json": json_path}


# ---------------------------------------------------------------------------
# report


def _newton_line(fits: list[ModelFit]) -> str:
    """One report line summarizing the Newton diagnostics of every fit."""
    iters = [f.iterations for f in fits]
    halvings = [f.halvings for f in fits]
    grads = [f.max_abs_grad for f in fits if f.max_abs_grad is not None]  # failed fits have none
    stops = Counter(f.stop for f in fits)
    return (
        f"- newton: {sum(iters)} iterations (at most {max(iters)} per model), "
        f"{sum(halvings)} step halvings (at most {max(halvings)} per model), "
        f"largest final max|grad| {max(grads):.3g}; stops: "
        + ", ".join(f"{reason} {n}" for reason, n in sorted(stops.items()))
        + f"; jittered fits: {sum(f.jittered for f in fits)}"
    )


def _waic_reliability_line(fits: list[ModelFit]) -> str:
    """One report line counting the WAIC points whose p_waic_i is too large."""
    counts = {q: f.n_high_p_waic for q, f in enumerate(fits) if f.n_high_p_waic is not None}
    head = f"- WAIC points with p_waic_i > {P_WAIC_WARN}: "
    worst = max(counts, key=counts.get)
    which = f" (model {worst})" if counts[worst] else ""
    return head + f"{sum(counts.values())} over the bag, at most {counts[worst]} in one model{which}"


def _ids_line(what: str, ids: list[int]) -> str:
    """One report line counting and listing the model ids of ``what``."""
    listed = f"; model ids {', '.join(map(str, ids))}" if ids else ""
    return f"- {what}: {len(ids)}{listed}"


def cmd_report(cfg: dict) -> dict:
    out = cfg["out"]
    report_path = os.path.join(out, "report.md")
    _ensure_outputs([report_path], cfg.get("force", False))
    bag = _load_bag(cfg.get("fits") or out)
    order = np.argsort(-bag.weights)
    lines = ["# Model bag report", ""]
    lines.append(f"- models: {len(bag.fits)} ({sum(f.converged for f in bag.fits)} converged)")
    estimator = " (elpd by second-order WAIC at each fit's normal approximation, no draws)"
    lines.append(f"- weighting: {bag.weighting_kind}{estimator if bag.weighting_kind == 'waic' else ''}")
    lines.append(
        f"- max weight: {bag.weights.max():.4f}; effective number of models "
        f"(1/sum w^2): {effective_model_count(bag.weights):.2f}"
    )
    lines.append(_newton_line(bag.fits))
    lines.append(_ids_line(
        "fits with a column at risk but never realized (MLE at -inf, weight kept)",
        [q for q, f in enumerate(bag.fits) if f.monotone],
    ))
    lines.append(_ids_line(
        "failed fits (rank deficiency or overflow, zero weight)",
        [q for q, f in enumerate(bag.fits) if f.stop == "error"],
    ))
    if bag.weighting_kind == "waic":
        lines.append(_waic_reliability_line(bag.fits))
    lines.append("")
    lines.append("| rank | model | kind | K | BIC | elpd | weight |")
    lines.append("|------|-------|------|---|-----|------|--------|")
    for rank, q in enumerate(order[:10], start=1):
        f = bag.fits[q]
        elpd = f"{f.waic:.2f}" if f.waic is not None else "-"
        lines.append(
            f"| {rank} | {q} | {f.spec.kind or 'custom'} | {f.spec.size} "
            f"| {f.bic:.2f} | {elpd} | {bag.weights[q]:.4f} |"
        )
    trend_json = os.path.join(out, "trend.json")
    if os.path.exists(trend_json):
        with open(trend_json) as fh:
            trend = json.load(fh)
        mode = trend["intercept"]["mode"]
        lines.append("")
        lines.append(
            f"- intercept posterior mode: {mode:.4f} "
            f"(baseline rate {np.exp(mode):.6f} events per time unit per dyad)"
        )
    os.makedirs(out, exist_ok=True)
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"report": report_path}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config; flags override its fields")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--force", action="store_true", default=None,
                   help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="remdecay", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic event sequence")
    _add_common(p)
    p.add_argument("--n-actors", dest="n_actors", type=int)
    p.add_argument("--beta0", type=float)
    p.add_argument("--effects", help="JSON map kind -> decay spec")
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-events", dest="n_events", type=int)
    p.add_argument("--end-time", dest="end_time", type=float)

    p = sub.add_parser("gen-intervals", help="generate a bag of interval specs")
    _add_common(p)
    p.add_argument("--k-values", dest="k_values")
    p.add_argument("--per-kind-count", dest="per_kind_count", type=int)
    p.add_argument("--min-size", dest="min_size", type=float)
    p.add_argument("--gamma-max", dest="gamma_max", type=float)

    p = sub.add_parser("fit-bag", help="fit every stepwise model and weight the bag")
    _add_common(p)
    p.add_argument("--events", help="input events.csv")
    p.add_argument("--intervals-file", dest="intervals_file",
                   help="intervals.json written by gen-intervals")
    p.add_argument("--kinds", help="comma-separated statistic kinds")
    p.add_argument("--weighting", choices=["bic", "waic"])
    p.add_argument("--waic-burn-in", dest="waic_burn_in", type=int)
    p.add_argument("--waic-ahead", dest="waic_ahead", type=int)
    p.add_argument("--waic-draws", dest="waic_draws", type=int,
                   help="no effect: WAIC is computed in closed form, without draws")
    p.add_argument("--ridge", type=float)
    p.add_argument("--tie-policy", dest="tie_policy", choices=["error", "spread"])
    p.add_argument("--tie-unit", dest="tie_unit", type=float)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("trend", help="sample the averaged posterior and extract the decay trend")
    _add_common(p)
    p.add_argument("--fits", help="fits.json from fit-bag (or its directory)")
    p.add_argument("--n-draws", dest="n_draws", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--gamma-max", dest="gamma_max", type=float)
    p.add_argument("--level", type=float)

    p = sub.add_parser("report", help="summarize a fitted bag")
    _add_common(p)
    p.add_argument("--fits")
    return ap


# options without a default, given as a flag or a config field
_REQUIRED = {
    "simulate": ("n_actors", "beta0"),
    "gen-intervals": ("gamma_max",),
    "fit-bag": ("events", "intervals_file"),
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config) as f:
            cfg.update(json.load(f))
    for key, val in vars(args).items():
        if key in ("config", "command") or val is None:
            continue
        cfg[key] = val
    if "k_values" in cfg and isinstance(cfg["k_values"], str):
        cfg["k_values"] = [int(k) for k in cfg["k_values"].split(",")]
    if "effects" in cfg and isinstance(cfg["effects"], str):
        cfg["effects"] = json.loads(cfg["effects"])
    if not cfg.get("out"):
        raise CliError("an output directory is required (--out or config 'out')")
    for key in _REQUIRED.get(args.command, ()):
        if cfg.get(key) is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
    return cfg


_COMMANDS = {
    "simulate": cmd_simulate,
    "gen-intervals": cmd_gen_intervals,
    "fit-bag": cmd_fit_bag,
    "trend": cmd_trend,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        summary = _COMMANDS[args.command](cfg)
    except (CliError, SimulationError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
