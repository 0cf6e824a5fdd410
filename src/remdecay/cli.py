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
Config comes from an optional flat JSON file, whose fields the flags of the
same name override; one parser per option, in ``_COMMANDS``, reads a flag's
text and a config field alike. An option given neither way takes the default
of the library function it is passed to, except where a command function
below sets its own (``cfg.get(name, default)``).
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
    WEIGHTINGS,
    ModelBag,
    WaicConfig,
    bag_weights,
    effective_model_count,
    extract_trend,
    fit_bag,
    sample_posterior,
)
from .decay import decay_from_json
from .events import TIE_POLICIES, load_events
from .intervals import bag_from_json, bag_to_json, generate_interval_bag
from .likelihood import ModelFit
from .sim import SimConfig, SimulationError, simulate
from .stats import StatisticKind

__all__ = ["main", "cmd_simulate", "cmd_gen_intervals", "cmd_fit_bag", "cmd_trend", "cmd_report"]


class CliError(RuntimeError):
    pass


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


def _given(cfg: dict, *names: str) -> dict:
    """The fields among ``names`` that ``cfg`` has; the callee keeps its defaults for the rest."""
    return {name: cfg[name] for name in names if name in cfg}


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: dict) -> dict:
    """Generate a synthetic event sequence."""
    out = cfg["out"]
    events_path = os.path.join(out, "events.csv")
    manifest_path = os.path.join(out, "manifest.json")
    sim_cfg = SimConfig.from_json_dict(cfg)
    seq = simulate(sim_cfg)
    os.makedirs(out, exist_ok=True)
    seq.to_csv(events_path)
    _write_json(manifest_path, {"generator": sim_cfg.to_json_dict(), "n_events": len(seq)})
    return {"events": events_path, "manifest": manifest_path, "n_events": len(seq)}


# ---------------------------------------------------------------------------
# gen-intervals


def cmd_gen_intervals(cfg: dict) -> dict:
    """Generate a bag of interval specs."""
    out = cfg["out"]
    path = os.path.join(out, "intervals.json")
    bag = generate_interval_bag(
        K_values=cfg.get("k_values", [3, 4, 5]),
        per_kind_count=cfg.get("per_kind_count", 250),
        min_size=cfg.get("min_size", 0.05),
        gamma_K=cfg["gamma_max"],
        rng_seed=cfg.get("seed", 0),
    )
    os.makedirs(out, exist_ok=True)
    _write_json(path, {"gamma_max": cfg["gamma_max"], "specs": bag_to_json(bag)})
    return {"intervals": path, "n_specs": len(bag)}


# ---------------------------------------------------------------------------
# fit-bag


def _weight_totals(fits: list[ModelFit], weights) -> tuple[dict, dict]:
    """The bag weight summed by K (in K order) and by interval kind (in bag order)."""
    by_k, by_kind = Counter(), Counter()
    for fit, w in zip(fits, weights):
        by_k[fit.spec.size] += float(w)
        by_kind[fit.spec.kind or "custom"] += float(w)
    return dict(sorted(by_k.items())), dict(by_kind)


def cmd_fit_bag(cfg: dict) -> dict:
    """Fit every stepwise model and weight the bag."""
    out = cfg["out"]
    fits_path = os.path.join(out, "fits.json")
    weights_path = os.path.join(out, "weights.csv")
    log_path = os.path.join(out, "log.ndjson")
    seq = load_events(cfg["events"], **_given(cfg, "tie_policy", "tie_unit"))
    weighting = cfg.get("weighting", "bic")
    bag = _read_json(cfg["intervals_file"], "the intervals.json that gen-intervals writes",
                     lambda doc: bag_from_json(doc["specs"]))

    waic_cfg = None
    if weighting == "waic":
        ahead = cfg.get("waic_ahead", 1)
        burn_in = cfg["waic_burn_in"] if "waic_burn_in" in cfg else WaicConfig.default_for(len(seq), ahead).burn_in
        waic_cfg = WaicConfig(burn_in=burn_in, ahead=ahead)
    jobs = cfg.get("jobs", 1)
    # makes each kind a StatisticKind and validates the fit options before anything is written
    runs = fit_bag(seq, bag, cfg.get("kinds", ["inertia"]), waic=waic_cfg, jobs=jobs, **_given(cfg, "ridge"))
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
            # an unconverged fit's last note says why: its error, or why Newton stopped
            raise CliError(f"no model converged; nothing to weight (model 0: {fits[0].warnings[-1]}; "
                           f"every model's outcome is in {log_path})")
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
        by_k, by_kind = _weight_totals(fits, weights)
        _log(log, event="done", seconds=wall, models_per_second=len(bag) / wall,
             n_converged=n_converged, max_weight=float(weights.max()),
             n_eff_models=effective_model_count(weights), weight_by_k=by_k, weight_by_kind=by_kind)
    return {"fits": fits_path, "weights": weights_path, "n_models": len(bag),
            "n_converged": n_converged, "seconds": wall}


# ---------------------------------------------------------------------------
# trend


def _load_bag(out_or_fits: str) -> ModelBag:
    fits_path = out_or_fits if out_or_fits.endswith(".json") else os.path.join(out_or_fits, "fits.json")
    fits, weighting = _read_json(
        fits_path, "the fits.json that fit-bag writes",
        lambda doc: ([ModelFit.from_json_dict(d) for d in doc["fits"]], doc["weighting"]),
    )
    return ModelBag(fits=fits, weights=bag_weights(fits, weighting), weighting_kind=weighting)


def cmd_trend(cfg: dict) -> dict:
    """Sample the averaged posterior and extract the decay trend."""
    out = cfg["out"]
    csv_path = os.path.join(out, "trend.csv")
    json_path = os.path.join(out, "trend.json")
    bag = _load_bag(cfg.get("fits") or out)
    draws = sample_posterior(bag, cfg.get("n_draws", 10000), **_given(cfg, "seed"))
    trend = extract_trend(draws, bag, **_given(cfg, "grid_size", "gamma_max", "level"))
    os.makedirs(out, exist_ok=True)
    trend.to_csv(csv_path)
    _write_json(json_path, trend.to_json_dict())
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


# Below this many scoring points the second-order WAIC underestimates p_waic:
# on a 40-event, 3-actor design its elpd gap to a 4000-draw WAIC exceeded the
# 200-draw Monte Carlo sd, and on 150- and 300-event designs it did not.
_WAIC_FEW_POINTS = 150


def _waic_reliability_lines(fits: list[ModelFit]) -> list[str]:
    """Report lines giving each model's count of WAIC scoring points (with a
    warning below ``_WAIC_FEW_POINTS``) and counting the points whose
    p_waic_i is too large."""
    # fit-bag scores every model of a bag on one window
    points = min(f.n_waic_points for f in fits if f.n_waic_points is not None)
    lines = [f"- WAIC scoring points: {points} per model"]
    if points < _WAIC_FEW_POINTS:
        lines[0] += (f"; warning: below {_WAIC_FEW_POINTS} points the second-order WAIC "
                     "underestimates p_waic (a 40-event check put its elpd off a 4000-draw "
                     "WAIC by more than the 200-draw Monte Carlo sd)")
    counts = {q: f.n_high_p_waic for q, f in enumerate(fits) if f.n_high_p_waic is not None}
    head = f"- WAIC points with p_waic_i > {P_WAIC_WARN}: "
    worst = max(counts, key=counts.get)
    which = f" (model {worst})" if counts[worst] else ""
    lines.append(head + f"{sum(counts.values())} over the bag, at most {counts[worst]} in one model{which}")
    return lines


def _ids_line(what: str, ids: list[int]) -> str:
    """One report line counting and listing the model ids of ``what``."""
    listed = f"; model ids {', '.join(map(str, ids))}" if ids else ""
    return f"- {what}: {len(ids)}{listed}"


def cmd_report(cfg: dict) -> dict:
    """Summarize a fitted bag."""
    out = cfg["out"]
    report_path = os.path.join(out, "report.md")
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
    by_k, by_kind = (", ".join(f"{key} {w:.4f}" for key, w in totals.items())
                     for totals in _weight_totals(bag.fits, bag.weights))
    lines.append(f"- weight by K: {by_k}; by interval kind: {by_kind}")
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
        lines += _waic_reliability_lines(bag.fits)
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
        mode = _read_json(trend_json, "the trend.json that trend writes",
                          lambda doc: float(doc["intercept"]["mode"]))
        lines += ["", f"- intercept posterior mode: {mode:.4f} "
                      f"(baseline rate {np.exp(mode):.6f} events per time unit per dyad)"]
    os.makedirs(out, exist_ok=True)
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"report": report_path}


# ---------------------------------------------------------------------------
# options


def _parser(what: str, convert, accepts):
    """An option parser: text becomes ``convert(text)``, as argparse's ``type=`` made it, and
    any other value (text too, if ``convert`` is None) is kept as given; the result is kept
    if ``accepts`` it."""
    def parse(value):
        if isinstance(value, str) and convert is not None:
            value = convert(value)
        if not accepts(value):
            raise ValueError(f"not {what}: {value!r}")
        return value
    return parse


def _one_of(values: tuple[str, ...]):
    return _parser(f"one of {', '.join(values)}", None, lambda v: v in values)


_integer = _parser("an integer", int, lambda v: type(v) is int)
_seed = _parser("a non-negative integer", int, lambda v: type(v) is int and v >= 0)
_real = _parser("a number", float, lambda v: type(v) in (int, float))
_text = _parser("text", None, lambda v: type(v) is str)
_switch = _parser("true or false", None, lambda v: type(v) is bool)
_k_values = _parser("a list of integers", lambda s: [int(k) for k in s.split(",")],
                    lambda v: type(v) is list and all(type(k) is int for k in v))
_kinds = _parser("a list of statistic kinds", lambda s: [k.strip() for k in s.split(",") if k.strip()],
                 lambda v: type(v) is list and all(type(k) is str for k in v))


def _effects(value) -> dict:
    """{statistic kind: decay JSON}, each decay with every field ``decay_from_json`` reads."""
    try:
        effects = json.loads(value) if isinstance(value, str) else value
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from exc
    if not isinstance(effects, dict):
        raise ValueError("not a JSON object of decay objects, one per statistic kind")
    for kind, decay in effects.items():
        StatisticKind(kind)
        if not isinstance(decay, dict):
            raise ValueError(f"the {kind} decay is {decay!r}, not a JSON object")
        try:
            decay_from_json(decay)
        except KeyError as exc:
            raise ValueError(f"the {kind} decay has no field {exc}") from exc
    return effects


# Each option is one row, name: (parser, required, help). Its flag is the
# name with "-" for "_", read as text; the same parser reads the flag's text
# and the config field's JSON value.
_COMMON = {
    "config": (_text, False, "flat JSON config; flags override its fields"),
    "out": (_text, False, "output directory"), "seed": (_seed, False, "master seed"),
    "force": (_switch, False, "overwrite existing outputs"),
}

# command: (function, its options, the files it writes in --out, the file
# among them that echoes the merged config)
_COMMANDS = {
    "simulate": (cmd_simulate, {
        **_COMMON, "n_actors": (_integer, True, None), "beta0": (_real, True, None),
        "effects": (_effects, False, "JSON map kind -> decay spec"),
        "horizon": (_real, False, None), "n_events": (_integer, False, None), "end_time": (_real, False, None),
    }, ("events.csv", "manifest.json", "config.json"), "config.json"),
    "gen-intervals": (cmd_gen_intervals, {
        **_COMMON, "k_values": (_k_values, False, None), "per_kind_count": (_integer, False, None),
        "min_size": (_real, False, None), "gamma_max": (_real, True, None),
    }, ("intervals.json", "config.json"), "config.json"),
    "fit-bag": (cmd_fit_bag, {
        **_COMMON, "events": (_text, True, "input events.csv"),
        "intervals_file": (_text, True, "intervals.json written by gen-intervals"),
        "kinds": (_kinds, False, "comma-separated statistic kinds"),
        "weighting": (_one_of(WEIGHTINGS), False, None), "waic_burn_in": (_integer, False, None),
        "waic_ahead": (_integer, False, None),
        "waic_draws": (_integer, False, "no effect: WAIC is computed in closed form, without draws"),
        "ridge": (_real, False, None), "tie_policy": (_one_of(TIE_POLICIES), False, None),
        "tie_unit": (_real, False, None), "jobs": (_integer, False, None),
    }, ("fits.json", "weights.csv", "log.ndjson", "config.json"), "config.json"),
    "trend": (cmd_trend, {
        **_COMMON, "fits": (_text, False, "fits.json from fit-bag (or its directory)"),
        "n_draws": (_integer, False, None), "grid_size": (_integer, False, None),
        "gamma_max": (_real, False, None), "level": (_real, False, None),
    }, ("trend.csv", "trend.json", "trend_config.json"), "trend_config.json"),
    "report": (cmd_report, {**_COMMON, "fits": (_text, False, None)}, ("report.md",), None),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="remdecay", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (run, options, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for name, (parse, _, help) in options.items():
            switch = {"action": "store_true", "default": None} if parse is _switch else {}
            p.add_argument(_flag(name), help=help, **switch)
    return ap


def _merge_config(args: argparse.Namespace) -> dict:
    """The --config fields overridden by the flags given, each option read by
    its parser; a field that is not an option of the command passes through."""
    cfg: dict = {}
    if args.config:
        cfg.update(_read_json(args.config, "a JSON object of config fields", lambda doc: {**doc}))
    cfg.update((k, v) for k, v in vars(args).items() if k not in ("config", "command") and v is not None)
    for key, (parse, _, _) in _COMMANDS[args.command][1].items():
        try:
            if key in cfg:
                cfg[key] = parse(cfg[key])
        except (TypeError, ValueError) as exc:
            raise CliError(f"{_flag(key)}: {exc}") from exc
    return cfg


def _run(command: str, cfg: dict) -> dict:
    """Check ``cfg`` against the command's contract in ``_COMMANDS``, refuse to
    overwrite any file it writes unless ``force`` is set, run it and echo ``cfg``."""
    run, options, writes, echo = _COMMANDS[command]
    if not cfg.get("out"):
        raise CliError("an output directory is required (--out or config 'out')")
    for key, (_, required, _) in options.items():
        if required and key not in cfg:
            raise CliError(f"missing required option {_flag(key)}")
    clashes = [p for p in (os.path.join(cfg["out"], f) for f in writes) if os.path.exists(p)]
    if clashes and not cfg.get("force"):
        raise CliError(f"refusing to overwrite {clashes[0]} (use --force)")
    summary = run(cfg)
    if echo:  # a kind list echoes as the comma text that --kinds reads
        kinds = "kinds" in options and "kinds" in cfg
        _write_json(os.path.join(cfg["out"], echo), {**cfg, "kinds": ",".join(cfg["kinds"])} if kinds else cfg)
    return summary


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = _run(args.command, _merge_config(args))
    except (CliError, SimulationError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
