"""Benchmark of the remdecay pipeline, driven from outside through its CLI.

    python3 bench/run.py --workload waic-inertia --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the README pipeline ``simulate -> gen-intervals ->
fit-bag -> trend -> report``, each command in a fresh process, repeating it
for ``--seconds`` seconds (at least twice) as a closed loop with one client.
It reports the end-to-end metrics. With ``--trace 1`` it runs the pipeline
once, plus a serial ``fit-bag`` when the workload runs in parallel, and then a
serial traced run through the library functions; it reports the per-layer
metrics. ``--smoke`` shrinks every workload so that a run takes seconds.

Every run checks the outputs: the weights sum to 1, ``trend.csv`` has the
intercept row and a full grid per kind, reruns of one seed are
byte-identical, the pooled trend RMSE stays within the workload's bound, and
(traced runs) the library bag weights equal ``weights.csv`` to the last bit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the samples behind each metric, the checks and the environment.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread here and in every child process, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import importlib.metadata
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# Every run must end within 180 s; stop starting work well before that.
DEADLINE_S = 165.0
# Reruns of one seed are compared byte for byte, so every run makes two.
MIN_REPS = 2
OUTPUTS = ("fits.json", "weights.csv", "trend.csv")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(argv: list[str], log_stem: Path, deadline: float) -> dict:
    """Run one command to completion in its own process group.

    Returns its wall time, exit code and peak resident memory; the peak
    covers the command's own worker processes, which it waits for.
    """
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)
        sys.stderr.write(f"{' '.join(argv[:4])} ... exited {proc.returncode}:\n"
                         f"{Path(f'{log_stem}.err').read_text()[-2000:]}\n")
    return {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "remdecay.cli", *args]


def measure_setup(n: int, work: Path, deadline: float, times: list[float]) -> None:
    """Append n fresh-interpreter wall times of ``import remdecay.cli``."""
    argv = [sys.executable, "-c", "import remdecay.cli"]
    for _ in range(n):
        res = run_command(argv, work / "setup", deadline)
        if res["rc"] != 0:
            raise RuntimeError("import remdecay.cli failed")
        times.append(res["wall_s"])


def run_pipeline(wl: Workload, seed: int, rep_dir: Path, deadline: float) -> dict:
    rep_dir.mkdir(parents=True)
    steps: dict[str, dict] = {}
    t0 = time.perf_counter()
    for step, args in wl.commands(str(rep_dir), seed):
        steps[step] = run_command(cli(args), rep_dir / step, deadline)
        if steps[step]["rc"] != 0:
            return {"ok": False, "steps": steps, "failed_step": step}
    return {"ok": True, "steps": steps, "wall_s": time.perf_counter() - t0,
            "peak_rss_mb": max(s["rss_mb"] for s in steps.values())}


# ---------------------------------------------------------------------------
# output checks


def read_weights(path: Path) -> list[str]:
    with open(path, newline="") as f:
        return [row["weight"] for row in csv.DictReader(f)]


def read_trend_modes(path: Path) -> tuple[list[str], dict[str, list[float]], list[float]]:
    """(kind order, mode per kind, grid of the first kind) from trend.csv."""
    order: list[str] = []
    modes: dict[str, list[float]] = {}
    grid: list[float] = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            kind = row["kind"]
            order.append(kind)
            if kind == "intercept":
                continue
            modes.setdefault(kind, []).append(float(row["mode"]))
            if kind == order[1]:
                grid.append(float(row["gamma"]))
    return order, modes, grid


def check_outputs(wl: Workload, fit_dir: Path) -> tuple[list[str], dict, int]:
    """(failed checks, per-kind trend RMSE, non-converged models) of one run."""
    try:
        return _check_outputs(wl, fit_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"], {}, wl.n_models


def _check_outputs(wl: Workload, fit_dir: Path) -> tuple[list[str], dict, int]:
    import numpy as np
    from tracing import trend_errors

    failures = []
    with open(fit_dir / "fits.json") as f:
        fits = json.load(f)["fits"]
    if len(fits) != wl.n_models:
        failures.append(f"fits.json has {len(fits)} models, expected {wl.n_models}")
    not_converged = sum(not fit["converged"] for fit in fits)

    weights = [float(w) for w in read_weights(fit_dir / "weights.csv")]
    if len(weights) != wl.n_models or abs(math.fsum(weights) - 1.0) > 1e-12:
        failures.append(f"{len(weights)} weights sum to {math.fsum(weights)!r}")

    order, modes, grid = read_trend_modes(fit_dir / "trend.csv")
    expected = ["intercept"] + [k for k in wl.kinds for _ in range(wl.grid_size)]
    if order != expected:
        failures.append("trend.csv rows are not the intercept plus a full grid per kind")
        return failures, {}, not_converged
    rmse = trend_errors({k: np.asarray(v) for k, v in modes.items()}, np.asarray(grid),
                        wl.effects)
    if wl.rmse_bound is not None and rmse["pooled"] > wl.rmse_bound:
        failures.append(f"pooled trend RMSE {rmse['pooled']:.4f} above {wl.rmse_bound}")
    return failures, rmse, not_converged


def same_bytes(a: Path, b: Path, names=OUTPUTS) -> list[str]:
    return [f"{n} differs between {a.parent.name} and {b.parent.name}"
            for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


# ---------------------------------------------------------------------------
# the two kinds of run


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def end_to_end(wl: Workload, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    # One untimed import warms the page cache; the timed imports are spread
    # over the run so that their median sees the same machine as the reps.
    measure_setup(1, work, deadline, [])
    setup: list[float] = []
    measure_setup(wl.setup_imports, work, deadline, setup)
    reps: list[dict] = []
    failures: list[str] = []
    rmse: dict = {}
    failed_models = 0
    t_start = time.monotonic()
    while True:
        rep_dir = work / f"rep{len(reps)}"
        rep = run_pipeline(wl, seed, rep_dir, deadline)
        reps.append(rep)
        if not rep["ok"]:
            failures.append(f"rep {len(reps) - 1}: {rep['failed_step']} failed")
            failed_models += wl.n_models
            break
        fails, rmse, not_converged = check_outputs(wl, rep_dir / "fit")
        if len(reps) > 1:
            fails += same_bytes(work / "rep0" / "fit", rep_dir / "fit")
        failures += [f"rep {len(reps) - 1}: {f}" for f in fails]
        failed_models += wl.n_models if fails else not_converged
        measure_setup(1, work, deadline, setup)
        typical = statistics.median(r["wall_s"] for r in reps)
        now = time.monotonic()
        if now + 1.5 * typical > deadline:
            break
        if len(reps) >= MIN_REPS and now - t_start + typical > seconds:
            break
    good = [r for r in reps if r["ok"]]
    if len(good) < MIN_REPS:
        failures.append(f"only {len(good)} complete pipeline run(s); reruns not compared")
    samples = {
        "pipeline_s": [r["wall_s"] for r in good],
        "models_per_s": [wl.n_models / r["steps"]["fit-bag"]["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": setup,
    }
    units = {"pipeline_s": "s", "models_per_s": "models/s", "peak_rss_mb": "MB", "setup_s": "s"}
    steps = {s: summary([r["steps"][s]["wall_s"] for r in good]) for s in good[0]["steps"]} \
        if good else {}
    return {
        "metrics": {k: (statistics.median(v), units[k]) for k, v in samples.items() if v},
        "samples": {k: summary(v) for k, v in samples.items() if v},
        "step_wall_s": steps,
        "trend_rmse": rmse,
        "failures": failures,
        "attempted": wl.n_models * len(reps),
        "failed": failed_models,
    }


def traced(wl: Workload, seed: int, work: Path, deadline: float, run_id: str) -> dict:
    from tracing import Tracer, layer_metrics, traced_run

    failures: list[str] = []
    rep = run_pipeline(wl, seed, work / "cli", deadline)
    if not rep["ok"]:
        return {"metrics": {}, "failures": [f"{rep['failed_step']} failed"],
                "attempted": wl.n_models, "failed": wl.n_models}
    fit_dir = work / "cli" / "fit"
    failures, rmse, not_converged = check_outputs(wl, fit_dir)
    fit_bag_jobs_s = rep["steps"]["fit-bag"]["wall_s"]
    fit_bag_serial_s = fit_bag_jobs_s
    if wl.jobs > 1:
        serial_dir = work / "serial"
        serial_dir.mkdir()
        args = wl.fit_bag_args(str(work / "cli"), seed, str(serial_dir / "fit"), jobs=1)
        res = run_command(cli(args), serial_dir / "fit-bag", deadline)
        if res["rc"] != 0:
            failures.append("serial fit-bag failed")
        else:
            fit_bag_serial_s = res["wall_s"]
            failures += same_bytes(fit_dir, serial_dir / "fit", names=OUTPUTS[:2])

    tracer = Tracer(run_id)
    lib_dir = work / "lib"
    lib_dir.mkdir()
    result = traced_run(wl, seed, str(lib_dir), tracer)
    tracer.dump(str(RUNS / f"spans-{run_id}.json"))
    cli_weights = read_weights(fit_dir / "weights.csv")
    if [repr(float(w)) for w in result["weights"]] != cli_weights:
        failures.append("library bag weights differ from weights.csv")

    metrics = layer_metrics(tracer, result, fit_bag_serial_s, fit_bag_jobs_s, wl.jobs)
    metrics["cli.failed_model_ratio"] = (not_converged / wl.n_models, "ratio")
    failed = wl.n_models if failures else not_converged
    return {
        "metrics": metrics,
        "trend_rmse": rmse,
        "library_trend_rmse": result["trend_rmse"],
        "failures": failures,
        "attempted": wl.n_models,
        "failed": failed,
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes; runs in seconds")
    args = ap.parse_args(argv)

    if not (SRC / "remdecay" / "cli.py").is_file():
        print(f"error: the remdecay sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()

    deadline = time.monotonic() + DEADLINE_S
    # The traced run works in this process; stop it outright if it overruns.
    signal.alarm(int(DEADLINE_S) + 10)
    run_id = f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    RUNS.mkdir(exist_ok=True)
    work = RUNS / run_id
    work.mkdir()
    try:
        if args.trace:
            out = traced(wl, args.seed, work, deadline, run_id)
        else:
            out = end_to_end(wl, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {k: v for k, v in out.items() if k != "metrics"}
    detail.update(workload=wl.name, seed=args.seed, trace=args.trace, smoke=args.smoke,
                  environment=environment())
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
