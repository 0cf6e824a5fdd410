import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from remdecay.bma import WaicConfig, bag_weights, extract_trend, fit_bag, sample_posterior
from remdecay.cli import _COMMANDS, _load_bag, main
from remdecay.events import load_events
from remdecay.intervals import bag_from_json
from remdecay.likelihood import fit_mle

from test_likelihood import random_instance

EFFECTS = json.dumps(
    {"inertia": {"variant": "weibull", "scale": 4.0, "shape": 1.0, "peak": 0.3}}
)


def run(argv):
    rc = main(argv)
    assert rc == 0, f"command failed: {argv}"


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    run([
        "simulate", "--out", str(out), "--n-actors", "4", "--beta0", str(math.log(0.05)),
        "--effects", EFFECTS, "--horizon", "12", "--n-events", "50", "--seed", "5",
    ])
    return out


@pytest.fixture(scope="module")
def bag_file(tmp_path_factory):
    """The bag that every fit-bag run here reads: K = 2, one spec of each kind."""
    out = tmp_path_factory.mktemp("iv")
    run([
        "gen-intervals", "--out", str(out), "--k-values", "2", "--per-kind-count", "1",
        "--min-size", "0.05", "--gamma-max", "12", "--seed", "7",
    ])
    return out / "intervals.json"


@pytest.fixture(scope="module")
def fitted_dir(sim_dir, bag_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("fits")
    run([
        "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
        "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", "bic",
        "--seed", "7", "--jobs", "1",
    ])
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "events.csv").exists()
        assert (sim_dir / "manifest.json").exists()
        assert (sim_dir / "config.json").exists()
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["n_events"] == 50

    def test_same_seed_byte_identical(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        run([
            "simulate", "--out", str(out2), "--n-actors", "4", "--beta0", str(math.log(0.05)),
            "--effects", EFFECTS, "--horizon", "12", "--n-events", "50", "--seed", "5",
        ])
        assert sha(sim_dir / "events.csv") == sha(out2 / "events.csv")

    def test_distinct_seeds_distinct_sequences(self, sim_dir, tmp_path):
        out2 = tmp_path / "other"
        run([
            "simulate", "--out", str(out2), "--n-actors", "4", "--beta0", str(math.log(0.05)),
            "--effects", EFFECTS, "--horizon", "12", "--n-events", "50", "--seed", "6",
        ])
        assert sha(sim_dir / "events.csv") != sha(out2 / "events.csv")

    def test_refuses_overwrite_without_force(self, sim_dir, capsys):
        rc = main([
            "simulate", "--out", str(sim_dir), "--n-actors", "4", "--beta0", "-3",
            "--n-events", "5", "--seed", "5",
        ])
        assert rc == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_invalid_config_reported_without_out(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main([
            "simulate", "--out", str(out), "--n-actors", "1", "--beta0", "-3",
            "--n-events", "10",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: need at least 2 actors\n"
        assert not out.exists()

    def test_force_allows_rerun(self, tmp_path):
        out = tmp_path / "f"
        args = [
            "simulate", "--out", str(out), "--n-actors", "3", "--beta0", "-3",
            "--n-events", "5", "--seed", "1",
        ]
        run(args)
        run(args + ["--force"])


class TestGenIntervals:
    def test_bag_file(self, tmp_path):
        out = tmp_path / "iv"
        run([
            "gen-intervals", "--out", str(out), "--k-values", "3,4,5",
            "--per-kind-count", "2", "--min-size", "0.05", "--gamma-max", "180",
            "--seed", "3",
        ])
        doc = json.loads((out / "intervals.json").read_text())
        assert len(doc["specs"]) == 3 * (2 + 2 + 1)
        assert doc["gamma_max"] == 180
        for spec in doc["specs"]:
            assert spec["gamma"][-1] == 180.0


    def test_no_k_values_is_error(self, tmp_path, capsys):
        """An empty K list fails before --out is created, in place of writing a bag with no specs."""
        (tmp_path / "k.json").write_text(json.dumps({"k_values": [], "gamma_max": 5}))
        out = tmp_path / "o"
        assert main(["gen-intervals", "--config", str(tmp_path / "k.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no K values: the bag would have no specs\n"
        assert not out.exists()

    @pytest.mark.parametrize("gamma_max", ["nan", "inf"])
    def test_non_finite_gamma_max_is_error(self, tmp_path, capsys, gamma_max):
        """A non-finite largest bound fails, naming it, before --out is created."""
        out = tmp_path / "o"
        assert main(["gen-intervals", "--gamma-max", gamma_max, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: gamma_K must be finite and > 0, got {gamma_max}\n"
        assert not out.exists()


class TestFitBag:
    def test_small_bag_fast_and_consistent(self, sim_dir, bag_file, tmp_path):
        out = tmp_path / "quick"
        t0 = time.perf_counter()
        run([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", "bic",
            "--seed", "7", "--jobs", "1",
        ])
        assert time.perf_counter() - t0 < 10.0
        rows = (out / "weights.csv").read_text().splitlines()
        assert rows[0] == "model_id,kind_of_intervals,K,bic,waic,weight"
        weights = [float(r.split(",")[-1]) for r in rows[1:]]
        assert len(weights) == 3
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_fit_records_carry_newton_diagnostics(self, fitted_dir):
        fits = json.loads((fitted_dir / "fits.json").read_text())["fits"]
        log_fits = [r for r in map(json.loads, (fitted_dir / "log.ndjson").read_text().splitlines())
                    if r["event"] == "fit"]
        assert [r["model"] for r in log_fits] == list(range(len(fits)))
        for record, fit in zip(log_fits, fits):
            assert fit["stop"] == "float_floor"
            for key in ("iterations", "halvings", "max_abs_grad"):
                assert record[key] == fit[key]
            assert 1 <= record["iterations"] and 0 <= record["halvings"]
            assert record["jitter"] is any("jitter" in note for note in fit["warnings"])

    def test_rerun_byte_identical(self, sim_dir, bag_file, fitted_dir, tmp_path):
        out2 = tmp_path / "again"
        run([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out2),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", "bic",
            "--seed", "7", "--jobs", "1",
        ])
        assert sha(fitted_dir / "weights.csv") == sha(out2 / "weights.csv")
        assert sha(fitted_dir / "fits.json") == sha(out2 / "fits.json")

    def test_day_stamped_events_spread_and_rerun_byte_identical(self, sim_dir, bag_file, tmp_path):
        """Times floored to whole days tie; --tie-policy spread fits them, and
        a rerun writes the same bytes."""
        header, *rows = (sim_dir / "events.csv").read_text().splitlines()
        days = [f"{math.floor(float(t))},{rest}" for t, rest in (r.split(",", 1) for r in rows)]
        assert len({d.split(",")[0] for d in days}) < len(days)
        events = tmp_path / "days.csv"
        events.write_text("\n".join([header, *days]) + "\n")
        outs = [tmp_path / name for name in ("first", "again")]
        for out in outs:
            run([
                "fit-bag", "--events", str(events), "--out", str(out), "--kinds",
                "inertia,transitivity_closure", "--intervals-file", str(bag_file),
                "--tie-policy", "spread", "--tie-unit", "1", "--jobs", "1",
            ])
        for name in ("fits.json", "weights.csv"):
            assert sha(outs[0] / name) == sha(outs[1] / name)

    def test_intervals_file_reuse(self, sim_dir, tmp_path):
        iv = tmp_path / "iv"
        run([
            "gen-intervals", "--out", str(iv), "--k-values", "2", "--per-kind-count", "1",
            "--min-size", "0.05", "--gamma-max", "12", "--seed", "9",
        ])
        out = tmp_path / "fits"
        run([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
            "--kinds", "inertia", "--intervals-file", str(iv / "intervals.json"),
            "--weighting", "bic", "--seed", "1", "--jobs", "1",
        ])
        doc = json.loads((out / "fits.json").read_text())
        assert len(doc["fits"]) == 3

    @pytest.mark.parametrize("flags, name", [
        (["--ridge", "-1"], "ridge"),
        (["--weighting", "waic", "--waic-burn-in", "0"], "burn_in"),
        (["--jobs", "0"], "jobs"),
        (["--weighting", "waic", "--waic-burn-in", "500"], "burn_in"),
        (["--kinds", "inertia,inertia"], "duplicate"),
    ])
    def test_invalid_fit_option_is_error(self, sim_dir, bag_file, tmp_path, capsys, flags, name):
        rc = main([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(tmp_path / "bad"),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--seed", "7", *flags,
        ])
        assert rc == 1
        assert name in capsys.readouterr().err
        # the options are checked before --out is created
        assert not (tmp_path / "bad").exists()

    def test_window_error_names_its_cause(self, sim_dir, bag_file, tmp_path, capsys):
        # 50 events leave no default burn-in that can score 100 events ahead
        rc = main([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(tmp_path / "bad"),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--seed", "7",
            "--weighting", "waic", "--waic-ahead", "100",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "1 <= burn_in < M - ahead" in err and "M=50" in err and "ahead=100" in err
        assert not (tmp_path / "bad").exists()

    def test_waic_weighting_runs(self, sim_dir, bag_file, tmp_path):
        out = tmp_path / "waic"
        run([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", "waic",
            "--waic-burn-in", "10", "--waic-draws", "25", "--seed", "7", "--jobs", "1",
        ])
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[4] != "" for r in rows)  # waic column filled
        log_lines = [json.loads(l) for l in (out / "log.ndjson").read_text().splitlines()]
        assert log_lines[0]["event"] == "start"
        assert log_lines[-1]["event"] == "done"
        assert all("seconds" in l for l in log_lines if l["event"] == "fit")
        fits = json.loads((out / "fits.json").read_text())["fits"]
        counts = [l["high_p_waic"] for l in log_lines if l["event"] == "fit"]
        assert counts == [f["n_high_p_waic"] for f in fits]
        assert all(isinstance(c, int) and 0 <= c <= 50 - 10 for c in counts)
        run(["report", "--out", str(out)])
        worst = max(range(len(counts)), key=counts.__getitem__)
        which = f" (model {worst})" if counts[worst] else ""
        assert (
            f"- WAIC points with p_waic_i > 0.4: {sum(counts)} over the bag, "
            f"at most {counts[worst]} in one model{which}\n"
        ) in (out / "report.md").read_text()
        assert (
            "- weighting: waic (elpd by second-order WAIC at each fit's normal approximation, "
            "no draws)\n"
        ) in (out / "report.md").read_text()

    @pytest.mark.parametrize("n_events, warned", [(50, True), (200, False)])
    def test_waic_scoring_points_reported(self, bag_file, tmp_path, n_events, warned):
        """report.md gives each model's count of WAIC scoring points, with a
        warning below 150, where the second-order WAIC underestimates p_waic."""
        sim, out = tmp_path / "sim", tmp_path / "waic"
        run([
            "simulate", "--out", str(sim), "--n-actors", "4", "--beta0", str(math.log(0.05)),
            "--effects", EFFECTS, "--horizon", "12", "--n-events", str(n_events), "--seed", "5",
        ])
        run([
            "fit-bag", "--events", str(sim / "events.csv"), "--out", str(out), "--kinds", "inertia",
            "--intervals-file", str(bag_file), "--weighting", "waic", "--waic-burn-in", "10",
        ])
        run(["report", "--out", str(out)])
        points = n_events - 10
        fits = json.loads((out / "fits.json").read_text())["fits"]
        assert [f["n_waic_points"] for f in fits] == [points] * len(fits)
        line = next(l for l in (out / "report.md").read_text().splitlines()
                    if l.startswith("- WAIC scoring points"))
        assert line.startswith(f"- WAIC scoring points: {points} per model")
        assert ("; warning: below 150 points" in line) is warned

    @pytest.mark.parametrize("weighting", ["bic", "waic"])
    def test_weights_need_no_seed(self, sim_dir, bag_file, tmp_path, weighting):
        """Neither weighting takes draws (WAIC is in closed form): fits.json
        and weights.csv do not depend on --seed."""
        outs = [tmp_path / f"seed{seed}" for seed in (1, 2)]
        for seed, out in zip((1, 2), outs):
            run([
                "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
                "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", weighting,
                "--waic-burn-in", "10", "--seed", str(seed), "--jobs", "1",
            ])
        for name in ("fits.json", "weights.csv"):
            assert sha(outs[0] / name) == sha(outs[1] / name)

    def test_failed_models_are_isolated(self, tmp_path):
        """On 25 events, 22 of the 33 closure models are rank-deficient: each
        gets an error record, stop "error" and zero weight, and report.md
        lists them; the other 11 fit, and fit-bag exits 0."""
        effects = {"inertia": {"variant": "weibull", "scale": 4, "shape": 1, "peak": 0.6}}
        run([
            "simulate", "--out", str(tmp_path / "sim"), "--n-actors", "10", "--beta0", "-3.9",
            "--n-events", "25", "--horizon", "20", "--seed", "1", "--effects", json.dumps(effects),
        ])
        run([
            "gen-intervals", "--out", str(tmp_path / "iv"), "--k-values", "3,4,5",
            "--per-kind-count", "5", "--min-size", "0.05", "--gamma-max", "20", "--seed", "2",
        ])
        out = tmp_path / "fit"
        with pytest.warns(RuntimeWarning):  # never-realized columns, excluded models
            run([
                "fit-bag", "--events", str(tmp_path / "sim" / "events.csv"),
                "--intervals-file", str(tmp_path / "iv" / "intervals.json"), "--out", str(out),
                "--kinds", "inertia,reciprocity,transitivity_closure,cyclic_closure",
                "--weighting", "bic",
            ])
            run(["report", "--out", str(out)])
        records = [json.loads(line) for line in (out / "log.ndjson").read_text().splitlines()]
        errors = [r for r in records if r["event"] == "error"]
        assert len(errors) == 22 and sum(r["event"] == "fit" for r in records) == 11
        assert "statistic column(s) identically zero" in errors[0]["error"]
        fits = json.loads((out / "fits.json").read_text())["fits"]
        failed = [q for q, f in enumerate(fits) if f["stop"] == "error"]
        assert failed == [r["model"] for r in errors]
        assert sum(f["converged"] for f in fits) == 11
        assert all(fits[q]["warnings"] == [r["error"]] and fits[q]["max_abs_grad"] is None
                   for q, r in zip(failed, errors))
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        assert all(float(rows[q].split(",")[-1]) == 0.0 for q in failed)
        report = (out / "report.md").read_text()
        assert (
            f"- failed fits (rank deficiency or overflow, zero weight): 22; "
            f"model ids {', '.join(map(str, failed))}\n"
        ) in report
        assert "stops: error 22, float_floor 11;" in report

    def test_no_converged_model_names_a_cause(self, bag_file, tmp_path, capsys):
        """On one event every column but the intercept is identically zero,
        so every model fails; the error names model 0's cause and the log
        that holds every model's outcome."""
        events = tmp_path / "events.csv"
        events.write_text("time,sender,receiver\n1.0,a,b\n")
        out = tmp_path / "fits"
        assert main(["fit-bag", "--events", str(events), "--intervals-file", str(bag_file),
                     "--out", str(out)]) == 1
        log = out / "log.ndjson"
        assert capsys.readouterr().err == (
            "error: no model converged; nothing to weight (model 0: statistic column(s) "
            "identically zero: inertia_k1, inertia_k2; drop them or set ridge > 0; "
            f"every model's outcome is in {log})\n"
        )
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["event"] for r in records] == ["start"] + ["error"] * 3

    def test_empty_bag_is_error(self, sim_dir, tmp_path, capsys):
        """A bag without specs fails before --out is created."""
        empty = tmp_path / "intervals.json"
        empty.write_text(json.dumps({"gamma_max": 12, "specs": []}))
        out = tmp_path / "fits"
        assert main(["fit-bag", "--events", str(sim_dir / "events.csv"),
                     "--intervals-file", str(empty), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: empty model bag: no interval specs to fit\n"
        assert not out.exists()

    @pytest.mark.parametrize("kinds", ["", ","])
    def test_empty_kinds_is_error(self, sim_dir, bag_file, tmp_path, capsys, kinds):
        """A kind list with no kind fails before --out is created, in place
        of fitting one intercept-only model per spec."""
        out = tmp_path / "fits"
        assert main(["fit-bag", "--events", str(sim_dir / "events.csv"), "--kinds", kinds,
                     "--intervals-file", str(bag_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no statistic kinds to fit")
        assert not out.exists()

    def test_default_burn_in_leaves_room_for_ahead(self, sim_dir, bag_file, tmp_path):
        # 50 events: the default burn-in must leave 3 events to score ahead
        out = tmp_path / "ahead"
        run([
            "fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
            "--kinds", "inertia", "--intervals-file", str(bag_file), "--weighting", "waic",
            "--waic-ahead", "3", "--waic-draws", "20", "--seed", "7",
        ])
        assert WaicConfig.default_for(50, ahead=3).burn_in == 46
        assert (out / "weights.csv").read_text().splitlines()[1].split(",")[4] != ""


# WAIC weighting and a closure kind, so that each model's own closure
# precompute and the per-model WAIC draw streams are both exercised.
WAIC_CLOSURE_BAG = [
    "--kinds", "inertia,transitivity_closure", "--weighting", "waic",
    "--waic-burn-in", "10", "--waic-draws", "25", "--seed", "7",
]


@pytest.fixture(scope="module")
def waic_closure_dirs(sim_dir, bag_file, tmp_path_factory):
    dirs = {}
    for jobs in (1, 2):
        dirs[jobs] = tmp_path_factory.mktemp(f"jobs{jobs}")
        run(["fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(dirs[jobs]),
             "--intervals-file", str(bag_file), "--jobs", str(jobs)] + WAIC_CLOSURE_BAG)
    return dirs


class TestBagRunner:
    def test_parallel_matches_serial(self, waic_closure_dirs):
        for name in ("fits.json", "weights.csv"):
            assert sha(waic_closure_dirs[1] / name) == sha(waic_closure_dirs[2] / name)

    def test_library_runner_matches_cli_weights(self, sim_dir, bag_file, waic_closure_dirs):
        out = waic_closure_dirs[1]
        seq = load_events(str(sim_dir / "events.csv"))
        specs = bag_from_json(json.loads(bag_file.read_text())["specs"])
        kinds = ["inertia", "transitivity_closure"]
        waic = WaicConfig(burn_in=10, n_draws=25, seed=7)
        fits = [fit for _, fit, _ in fit_bag(seq, specs, kinds, waic=waic)]
        weights = bag_weights(fits, "waic")
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == [repr(float(w)) for w in weights]


class TestTrend:
    def test_trend_files_and_grid(self, fitted_dir, tmp_path):
        out = tmp_path / "trend"
        run([
            "trend", "--fits", str(fitted_dir / "fits.json"), "--out", str(out),
            "--n-draws", "400", "--grid-size", "25", "--seed", "3",
        ])
        doc = json.loads((out / "trend.json").read_text())
        assert len(doc["grid"]) == 25
        assert "inertia" in doc["effects"]
        csv_rows = (out / "trend.csv").read_text().splitlines()
        assert len(csv_rows) == 1 + 1 + 25  # header + intercept + grid rows

    def test_matches_library_call_bit_for_bit(self, fitted_dir, tmp_path):
        out = tmp_path / "trend2"
        run([
            "trend", "--fits", str(fitted_dir / "fits.json"), "--out", str(out),
            "--n-draws", "300", "--grid-size", "12", "--seed", "11",
        ])
        doc = json.loads((out / "trend.json").read_text())
        bag = _load_bag(str(fitted_dir / "fits.json"))
        draws = sample_posterior(bag, 300, seed=11)
        trend = extract_trend(draws, bag, grid_size=12, gamma_max=None)
        assert doc == json.loads(json.dumps(trend.to_json_dict()))


    def test_missing_fits_leave_no_out(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["trend", "--fits", str(tmp_path / "nowhere" / "fits.json"), "--out", str(out)]) == 1
        assert "nowhere" in capsys.readouterr().err
        assert not out.exists()

    def test_ten_draws(self, fitted_dir, tmp_path):
        # 10 draws give a KDE kernel wider than the mode grid
        for seed in range(1, 5):
            run([
                "trend", "--fits", str(fitted_dir / "fits.json"), "--out", str(tmp_path / str(seed)),
                "--n-draws", "10", "--grid-size", "11", "--seed", str(seed),
            ])
            doc = json.loads((tmp_path / str(seed) / "trend.json").read_text())
            assert np.isfinite(doc["effects"]["inertia"]["mode"]).all()


class TestReportAndConfig:
    def test_report(self, fitted_dir, tmp_path):
        out = tmp_path / "trendr"
        run([
            "trend", "--fits", str(fitted_dir / "fits.json"), "--out", str(out),
            "--n-draws", "200", "--grid-size", "10", "--seed", "1",
        ])
        run(["report", "--fits", str(fitted_dir / "fits.json"), "--out", str(out)])
        text = (out / "report.md").read_text()
        assert "weighting: bic" in text
        assert "baseline rate" in text
        fits = json.loads((fitted_dir / "fits.json").read_text())["fits"]
        iters = [f["iterations"] for f in fits]
        halvings = [f["halvings"] for f in fits]
        stops = sorted({f["stop"] for f in fits})
        counts = ", ".join(f"{s} {sum(f['stop'] == s for f in fits)}" for s in stops)
        grad = max(f["max_abs_grad"] for f in fits)
        assert (
            f"- newton: {sum(iters)} iterations (at most {max(iters)} per model), "
            f"{sum(halvings)} step halvings (at most {max(halvings)} per model), "
            f"largest final max|grad| {grad:.3g}; stops: {counts}; jittered fits: 0\n"
        ) in text

    def test_report_lists_monotone_fits(self, fitted_dir, tmp_path):
        # the 12-event instance has a column at risk but never realized
        seq, _, stats = random_instance(np.random.default_rng(0), n_events=12, K=3)
        with pytest.warns(RuntimeWarning, match="never realized"):
            monotone = fit_mle(stats, seq)
        fits = json.loads((fitted_dir / "fits.json").read_text())["fits"][:2]
        fits.insert(1, monotone.to_json_dict())
        assert monotone.monotone and monotone.converged
        out = tmp_path / "mono"
        out.mkdir()
        (out / "fits.json").write_text(json.dumps({"weighting": "bic", "fits": fits}))
        run(["report", "--out", str(out)])
        text = (out / "report.md").read_text()
        assert "- fits with a column at risk but never realized (MLE at -inf, weight kept): 1; model ids 1\n" in text
        assert "WAIC points" not in text
        run(["report", "--fits", str(fitted_dir / "fits.json"), "--out", str(tmp_path / "plain")])
        plain = (tmp_path / "plain" / "report.md").read_text()
        assert "never realized (MLE at -inf, weight kept): 0\n" in plain
        assert "- failed fits (rank deficiency or overflow, zero weight): 0\n" in plain

    def test_report_creates_out(self, fitted_dir, tmp_path):
        out = tmp_path / "new" / "dir"
        run(["report", "--fits", str(fitted_dir / "fits.json"), "--out", str(out)])
        assert "weighting: bic" in (out / "report.md").read_text()

    def test_missing_fits_leave_no_out(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["report", "--fits", str(tmp_path / "nowhere" / "fits.json"), "--out", str(out)]) == 1
        assert "nowhere" in capsys.readouterr().err
        assert not out.exists()

    def test_effective_model_count(self, fitted_dir, tmp_path):
        # two models whose BICs differ by 2 ln 3 get weights 3/4 and 1/4
        fits = json.loads((fitted_dir / "fits.json").read_text())["fits"][:2]
        fits[0]["bic"], fits[1]["bic"] = 100.0, 100.0 + 2.0 * math.log(3.0)
        out = tmp_path / "two"
        out.mkdir()
        (out / "fits.json").write_text(json.dumps({"weighting": "bic", "fits": fits}))
        run(["report", "--out", str(out)])
        text = (out / "report.md").read_text()
        assert "max weight: 0.7500; effective number of models (1/sum w^2): 1.60" in text

        done = json.loads((fitted_dir / "log.ndjson").read_text().splitlines()[-1])
        rows = (fitted_dir / "weights.csv").read_text().splitlines()[1:]
        w = np.array([float(r.split(",")[-1]) for r in rows])
        assert done["event"] == "done"
        assert done["max_weight"] == w.max()
        assert done["n_eff_models"] == pytest.approx(1.0 / np.sum(w * w), rel=1e-12)

    def test_weight_totals(self, sim_dir, tmp_path):
        """report.md and the done record sum the bag weight by K and by
        interval kind; each map sums to 1 and matches weights.csv."""
        run([
            "gen-intervals", "--out", str(tmp_path / "iv"), "--k-values", "2,3",
            "--per-kind-count", "1", "--gamma-max", "6", "--seed", "3",
        ])
        out = tmp_path / "fit"
        run(["fit-bag", "--events", str(sim_dir / "events.csv"), "--out", str(out),
             "--intervals-file", str(tmp_path / "iv" / "intervals.json")])
        run(["report", "--out", str(out)])
        by_k, by_kind = {}, {}
        for row in (out / "weights.csv").read_text().splitlines()[1:]:
            _, kind, K, _, _, w = row.split(",")
            by_k[K] = by_k.get(K, 0.0) + float(w)
            by_kind[kind] = by_kind.get(kind, 0.0) + float(w)
        assert list(by_k) == ["2", "3"] and list(by_kind) == ["increasing", "decreasing", "equal"]
        for totals in (by_k, by_kind):
            assert sum(totals.values()) == pytest.approx(1.0, abs=1e-12)
        done = json.loads((out / "log.ndjson").read_text().splitlines()[-1])
        assert done["weight_by_k"] == by_k and done["weight_by_kind"] == by_kind
        line = ("- weight by K: " + ", ".join(f"{K} {w:.4f}" for K, w in by_k.items())
                + "; by interval kind: " + ", ".join(f"{kind} {w:.4f}" for kind, w in by_kind.items()))
        assert line + "\n" in (out / "report.md").read_text()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "n_actors": 3,
            "beta0": -3.0,
            "n_events": 10,
            "seed": 2,
            "out": str(tmp_path / "cfgrun"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        run(["simulate", "--config", str(cfg_path), "--n-events", "7"])
        manifest = json.loads((tmp_path / "cfgrun" / "manifest.json").read_text())
        assert manifest["n_events"] == 7
        echoed = json.loads((tmp_path / "cfgrun" / "config.json").read_text())
        assert echoed["n_events"] == 7 and echoed["n_actors"] == 3

    def test_missing_out_is_error(self, capsys):
        rc = main(["simulate", "--n-actors", "3", "--beta0", "-3", "--n-events", "5"])
        assert rc == 1
        assert "output directory" in capsys.readouterr().err


@pytest.fixture
def command_args(sim_dir, bag_file, fitted_dir):
    """Options with which each command runs on this module's small inputs."""
    return {
        "simulate": ["--n-actors", "3", "--beta0", "-3", "--n-events", "5"],
        "gen-intervals": ["--k-values", "2", "--per-kind-count", "1", "--gamma-max", "12"],
        "fit-bag": ["--events", str(sim_dir / "events.csv"), "--intervals-file", str(bag_file)],
        "trend": ["--fits", str(fitted_dir / "fits.json"), "--n-draws", "50", "--grid-size", "5"],
        "report": ["--fits", str(fitted_dir / "fits.json")],
    }


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, _, writes, _) in _COMMANDS.items() for name in writes
])
def test_every_output_needs_force(command_args, tmp_path, capsys, command, name):
    """No command writes over any file it makes unless --force is given, and
    the files it lists in its contract are the files it writes."""
    argv = command_args[command]
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("kept\n")
    assert main([command, "--out", str(out), *argv]) == 1
    assert f"refusing to overwrite {out / name}" in capsys.readouterr().err
    assert os.listdir(out) == [name] and (out / name).read_text() == "kept\n"
    run([command, "--out", str(out), *argv, "--force"])
    assert (out / name).read_text() != "kept\n"
    assert sorted(os.listdir(out)) == sorted(_COMMANDS[command][2])


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--n-actors"),
    ("simulate", "--beta0"),
    ("gen-intervals", "--gamma-max"),
    ("fit-bag", "--events"),
    ("fit-bag", "--intervals-file"),
])
def test_missing_required_option_named(command_args, tmp_path, capsys, command, flag):
    """A missing option without a default is named; the command creates nothing."""
    argv = command_args[command]
    at = argv.index(flag)
    del argv[at : at + 2]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"error: missing required option {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, detail", [
    ("simulate", "effects", [1], "not a JSON object of decay objects"),
    ("simulate", "effects", {"inertia": 3}, "the inertia decay is 3, not a JSON object"),
    ("simulate", "effects", {"inertia": {"variant": "weibull", "scale": 4.0, "peak": 0.3}},
     "the inertia decay has no field 'shape'"),
    ("simulate", "effects", "nope", "not JSON (Expecting value"),
    ("simulate", "effects", {"nope": {"variant": "linear", "cutoff": 2.0, "peak": 1.0}},
     "'nope' is not a valid StatisticKind"),
    ("gen-intervals", "k_values", "3,x", "invalid literal for int()"),
    ("gen-intervals", "k_values", [3, "x"],
     {"flag": "invalid literal for int()", "config": "not a list of integers: [3, 'x']"}),
    ("gen-intervals", "k_values", 3.0,
     {"flag": "invalid literal for int()", "config": "not a list of integers: 3.0"}),
    ("simulate", "effects", {"inertia": {"variant": "weibull", "scale": 1, "shape": 1, "peak": math.nan}},
     "peak must be finite, got nan"),
    ("simulate", "seed", -1, "not a non-negative integer: -1"),
    ("trend", "seed", -1, "not a non-negative integer: -1"),
], ids=["list", "number", "missing field", "not json", "unknown kind", "k-values",
        "k-values list", "k-values number", "nan peak", "negative seed", "negative trend seed"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unparsable_option_named(command_args, tmp_path, capsys, command, flag, value, detail,
                                 source):
    """A flag whose value does not parse, or the same field in a --config
    file, is named in the error; the command exits 1 and creates nothing.
    A value that is not text reaches the flag as its JSON text; where that
    fails differently, ``detail`` gives the message per source."""
    if isinstance(detail, dict):
        detail = detail[source]
    option = "--" + flag.replace("_", "-")
    argv = command_args[command]
    if option in argv:  # a valid flag would override the config field
        at = argv.index(option)
        del argv[at : at + 2]
    if source == "flag":
        argv += [option, value if isinstance(value, str) else json.dumps(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({flag: value}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: {detail}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--beta0", "nan"),
    ("trend", "--gamma-max", "nan"),
    ("trend", "--gamma-max", "inf"),
    ("trend", "--gamma-max", "0"),
    ("trend", "--gamma-max", "-1"),
])
def test_out_of_range_value_named(command_args, tmp_path, capsys, command, flag, value):
    """A value that parses but is out of range is named by its field; the
    command exits 1 and creates nothing. (``simulate --end-time inf`` is left
    to tests/test_sim.py, where a missing check cannot hang the run.)"""
    argv = command_args[command]
    if flag in argv:
        at = argv.index(flag)
        del argv[at : at + 2]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, field, value, flag_text, extra", [
    ("simulate", "n_actors", "3", "3", []),
    ("gen-intervals", "gamma_max", "5", "5", []),
    ("gen-intervals", "per_kind_count", "2", "2", []),
    ("gen-intervals", "seed", "1", "1", []),
    ("fit-bag", "waic_burn_in", "10", "10", ["--weighting", "waic"]),
    ("fit-bag", "ridge", "0.1", "0.1", []),
    ("fit-bag", "kinds", ["inertia", "reciprocity"], "inertia,reciprocity", []),
    ("trend", "n_draws", "100", "100", []),
    ("trend", "level", "0.9", "0.9", []),
])
def test_config_field_runs_like_its_flag(command_args, tmp_path, command, field, value, flag_text,
                                         extra):
    """A config field given as text, or a kind list given as a JSON list, is
    read as its flag's text is: both runs write the same files, and echo the
    same config but for ``out``."""
    option = "--" + field.replace("_", "-")
    argv = command_args[command] + extra
    if option in argv:
        at = argv.index(option)
        del argv[at : at + 2]
    (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
    flag, config = tmp_path / "flag", tmp_path / "config"
    run([command, "--out", str(flag), *argv, option, flag_text])
    run([command, "--out", str(config), *argv, "--config", str(tmp_path / "cfg.json")])
    _, _, writes, echo = _COMMANDS[command]
    for name in set(writes) - {"log.ndjson", echo}:  # the log holds timings
        assert sha(flag / name) == sha(config / name), name
    echoed = [json.loads((out / echo).read_text()) for out in (flag, config)]
    assert echoed[0] | {"out": None} == echoed[1] | {"out": None}


@pytest.mark.parametrize("command, field, value, detail", [
    ("report", "out", 5, "not text: 5"),
    ("report", "force", "no", "not true or false: 'no'"),
    ("simulate", "n_actors", 3.5, "not an integer: 3.5"),
    ("simulate", "n_actors", True, "not an integer: True"),
    ("fit-bag", "kinds", ["inertia", 3], "not a list of statistic kinds: ['inertia', 3]"),
    ("fit-bag", "waic_burn_in", "ten", "invalid literal for int()"),
])
def test_config_field_of_wrong_type_named(command_args, tmp_path, monkeypatch, capsys, command,
                                          field, value, detail):
    """A config field whose JSON type its option does not take is named in
    the error, before --out is created; ``"force": "no"`` does not force."""
    option = "--" + field.replace("_", "-")
    argv = command_args[command]
    if option in argv:
        at = argv.index(option)
        del argv[at : at + 2]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "out", field: value}))
    assert main([command, "--config", "cfg.json", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: {detail}") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def _child_env() -> dict:
    """The environment of a child interpreter that imports the remdecay under test."""
    import remdecay

    src = os.path.dirname(os.path.dirname(remdecay.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy(sim_dir, bag_file, tmp_path):
    """Every command pays the CLI's import, so it loads no scipy module, and
    neither does a BIC or a WAIC fit-bag run."""
    env = _child_env()
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    fit_bag = [
        "fit-bag", "--events", str(sim_dir / "events.csv"),
        "--kinds", "inertia,reciprocity", "--intervals-file", str(bag_file), "--jobs", "1",
    ]
    bic = fit_bag + ["--out", str(tmp_path / "bic"), "--weighting", "bic"]
    waic = fit_bag + ["--out", str(tmp_path / "waic"), "--weighting", "waic", "--waic-burn-in", "10"]
    for code in (
        f"import remdecay.cli, sys; {loaded}",
        f"import sys; from remdecay.cli import main; assert main({bic!r}) == 0; {loaded}",
        f"import sys; from remdecay.cli import main; assert main({waic!r}) == 0; {loaded}",
    ):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "bic" / "weights.csv").exists()
    assert (tmp_path / "waic" / "weights.csv").exists()


def test_commands_load_no_masked_arrays_or_process_pool(tmp_path):
    """Each command of a serial pipeline, in its own process, ends with
    neither ``numpy.ma`` nor ``concurrent.futures`` loaded: both cost memory
    that no command needs (``fit-bag --jobs 2`` loads the pool; see
    ``TestBagRunner::test_parallel_matches_serial``)."""
    env = _child_env()
    sim, iv, fit = (str(tmp_path / d) for d in ("sim", "iv", "fit"))
    pipeline = [
        ["simulate", "--out", sim, "--n-actors", "4", "--beta0", str(math.log(0.05)),
         "--effects", EFFECTS, "--horizon", "12", "--n-events", "50", "--seed", "5"],
        ["gen-intervals", "--out", iv, "--k-values", "2", "--per-kind-count", "1",
         "--min-size", "0.05", "--gamma-max", "12", "--seed", "7"],
        ["fit-bag", "--events", f"{sim}/events.csv", "--intervals-file", f"{iv}/intervals.json",
         "--out", fit, "--kinds", "inertia", "--jobs", "1"],
        ["trend", "--fits", f"{fit}/fits.json", "--out", fit, "--n-draws", "500", "--seed", "4"],
        ["report", "--fits", f"{fit}/fits.json", "--out", fit],
    ]
    for argv in pipeline:
        code = ("import sys; from remdecay.cli import main; "
                f"assert main({argv!r}) == 0; "
                "print([m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]", argv[0]
    assert (tmp_path / "fit" / "report.md").exists()


def _without_halvings(fitted_dir, tmp_path):
    doc = json.loads((fitted_dir / "fits.json").read_text())
    for fit in doc["fits"]:
        del fit["halvings"]
    path = tmp_path / "old_fits.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", [
    "gen-intervals config", "events csv", "fits without halvings", "config list", "config not json",
])
def test_malformed_input_file_named(sim_dir, bag_file, fitted_dir, tmp_path, capsys, case):
    """A JSON input that is not what the command reads names the file and
    what was expected; the command exits 1 and creates nothing."""
    out = tmp_path / "out"
    if case.startswith("config"):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]\n" if case == "config list" else "gamma_max = 20\n")
        argv = ["gen-intervals", "--config", str(path), "--out", str(out)]
        detail = "is malformed ('list' object is not a mapping)" if case == "config list" else "is not JSON"
        expected = "a JSON object of config fields"
    elif case == "fits without halvings":
        path = _without_halvings(fitted_dir, tmp_path)
        argv = ["report", "--fits", str(path), "--out", str(out)]
        detail, expected = "has no field 'halvings'", "the fits.json that fit-bag writes"
    else:
        path = bag_file.parent / "config.json" if case == "gen-intervals config" else sim_dir / "events.csv"
        argv = ["fit-bag", "--events", str(sim_dir / "events.csv"), "--intervals-file", str(path),
                "--out", str(out)]
        detail = "has no field 'specs'" if case == "gen-intervals config" else "is not JSON"
        expected = "the intervals.json that gen-intervals writes"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} {detail}") and err.endswith(f"; expected {expected}\n")
    assert not out.exists()
