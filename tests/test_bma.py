import math

import numpy as np
import pytest

from remdecay.bma import (
    ModelBag,
    WaicConfig,
    bag_weights,
    bic_weights,
    extract_trend,
    fit_bag,
    hpd_interval,
    kde_mode,
    sample_posterior,
    waic_elpd,
    waic_model_rng,
    weights_from_elpds,
)
from remdecay.events import RiskSet
from remdecay.intervals import IntervalSpec, equal_spec
from remdecay.likelihood import ModelFit, fit_mle
from remdecay.stats import StatisticKind, compute_stepwise_stats

from oracle import loop_log_density, random_sequence

INERTIA = StatisticKind.INERTIA


def make_fit(gamma, beta, cov_scale=0.0, kind=None, loglik=-100.0, bic=None, n_events=50):
    spec = IntervalSpec(np.asarray(gamma, dtype=float), kind=kind)
    beta = np.asarray(beta, dtype=float)
    P = beta.size
    return ModelFit(
        spec=spec,
        kinds=(INERTIA,),
        labels=("intercept",) + tuple(f"inertia_k{k}" for k in range(1, P)),
        beta_hat=beta,
        cov_hat=cov_scale * np.eye(P),
        loglik=loglik,
        n_params=P,
        n_events=n_events,
        bic=bic if bic is not None else -2 * loglik + P * math.log(n_events),
    )


class TestBicWeights:
    def test_single_model(self):
        w = bic_weights([make_fit([10.0], [0.0, 0.1])])
        np.testing.assert_allclose(w, [1.0])

    def test_equal_bics_uniform(self):
        fits = [make_fit([10.0], [0.0, 0.1], bic=500.0) for _ in range(4)]
        w = bic_weights(fits)
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_two_model_example(self):
        fits = [
            make_fit([10.0], [0.0, 0.1], bic=100.0),
            make_fit([10.0], [0.0, 0.1], bic=102.0),
        ]
        w = bic_weights(fits)
        e = math.e
        assert abs(w[0] - e / (e + 1)) < 1e-12
        assert abs(w[1] - 1 / (e + 1)) < 1e-12

    def test_sum_and_shift_invariance(self, rng):
        bics = rng.uniform(200, 400, size=40)
        fits = [make_fit([10.0], [0.0, 0.1], bic=b) for b in bics]
        w = bic_weights(fits)
        assert abs(w.sum() - 1.0) <= 1e-12
        shifted = bic_weights([make_fit([10.0], [0.0, 0.1], bic=b + 123.456) for b in bics])
        np.testing.assert_allclose(w, shifted, atol=1e-12)

    def test_ordering_matches_bic(self, rng):
        bics = rng.uniform(100, 200, size=25)
        fits = [make_fit([10.0], [0.0, 0.1], bic=b) for b in bics]
        w = bic_weights(fits)
        assert np.all(np.argsort(-w, kind="stable") == np.argsort(bics, kind="stable"))

    def test_nonconverged_excluded_with_warning(self):
        good = make_fit([10.0], [0.0, 0.1], bic=100.0)
        bad = make_fit([10.0], [0.0, 0.1], bic=90.0)
        bad.converged = False
        with pytest.warns(RuntimeWarning, match="non-converged"):
            w = bic_weights([good, bad])
        np.testing.assert_allclose(w, [1.0, 0.0])


@pytest.fixture
def small_fit_setup(rng):
    seq = random_sequence(rng, 3, 40)
    rs = RiskSet(3)
    spec = equal_spec(2, 0.5 * (seq.times[-1] - seq.times[0]))
    stats = compute_stepwise_stats(seq, rs, [INERTIA], spec)
    fit = fit_mle(stats, seq)
    return seq, rs, spec, stats, fit


class TestWaic:
    def test_zero_variance_draws_give_zero_p_waic(self, small_fit_setup):
        seq, rs, spec, stats, fit = small_fit_setup
        draws = np.tile(fit.beta_hat, (5, 1))
        cfg = WaicConfig(burn_in=10, ahead=1, n_draws=5)
        elpd, lpd, p = waic_elpd(fit, stats, seq, cfg, draws=draws)
        assert p == 0.0
        assert elpd == lpd

    def test_micro_oracle_hand_enumeration(self, small_fit_setup, rng):
        seq, rs, spec, stats, fit = small_fit_setup
        B, L, A, M = 3, 10, 2, len(seq)
        draws = fit.beta_hat + rng.normal(0, 0.05, size=(B, fit.n_params))
        cfg = WaicConfig(burn_in=L, ahead=A, n_draws=B)
        elpd, lpd, p = waic_elpd(fit, stats, seq, cfg, draws=draws)
        lds = np.empty((M - A - L + 1, B))
        for pos, i in enumerate(range(L, M - A + 1)):
            for b in range(B):
                lds[pos, b] = loop_log_density(
                    stats.values, stats.event_positions, seq.times, seq.t0,
                    draws[b], i + 1, i + A,
                )
        lpd_hand = sum(
            math.log(sum(math.exp(v) for v in row) / B) for row in lds
        )
        p_hand = sum(
            sum((v - row.mean()) ** 2 for v in row) / (B - 1) for row in lds
        )
        assert lpd == pytest.approx(lpd_hand, abs=1e-10)
        assert p == pytest.approx(p_hand, abs=1e-10)
        assert elpd == pytest.approx(lpd_hand - p_hand, abs=1e-10)

    def test_identical_models_shared_stream_equal_weights(self, small_fit_setup):
        seq, rs, spec, stats, fit = small_fit_setup
        cfg = WaicConfig(burn_in=10, ahead=1, n_draws=20, seed=5)
        rng_a = waic_model_rng(cfg.seed, 3)
        rng_b = waic_model_rng(cfg.seed, 3)
        ea, _, _ = waic_elpd(fit, stats, seq, cfg, rng=rng_a)
        eb, _, _ = waic_elpd(fit, stats, seq, cfg, rng=rng_b)
        assert ea == eb
        w = weights_from_elpds([fit, fit], np.array([ea, eb]))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-10)

    def test_waic_weights_pipeline_and_field(self, small_fit_setup):
        seq, rs, spec, stats, fit = small_fit_setup
        cfg = WaicConfig(burn_in=10, ahead=1, n_draws=30, seed=9)
        specs = [spec, IntervalSpec(spec.gamma[-1:])]
        results = list(fit_bag(seq, specs, [INERTIA], waic=cfg))
        assert [q for q, _, _ in results] == [0, 1]
        fits = [f for _, f, _ in results]
        w = bag_weights(fits, "waic")
        assert abs(w.sum() - 1.0) <= 1e-12
        assert all(f.waic is not None for f in fits)
        # model q is scored with its own draw stream
        np.testing.assert_array_equal(fits[0].beta_hat, fit.beta_hat)
        elpd, _, _ = waic_elpd(fit, stats, seq, cfg, rng=waic_model_rng(cfg.seed, 0))
        assert fits[0].waic == elpd
        # shift invariance of the softmax over elpds
        w2 = weights_from_elpds(fits, np.array([f.waic + 7.5 for f in fits]))
        np.testing.assert_allclose(w, w2, atol=1e-12)

    def test_burn_in_bounds_checked(self, small_fit_setup):
        seq, rs, spec, stats, fit = small_fit_setup
        with pytest.raises(ValueError):
            waic_elpd(fit, stats, seq, WaicConfig(burn_in=len(seq) - 1, ahead=1, n_draws=3))
        with pytest.raises(ValueError):
            WaicConfig(burn_in=0, ahead=1, n_draws=3)
        with pytest.raises(ValueError):
            WaicConfig(burn_in=5, ahead=1, n_draws=1)


class TestSamplePosterior:
    def test_degenerate_bag_all_draws_equal(self):
        fit = make_fit([10.0], [0.5, -0.2], cov_scale=0.0)
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 50, seed=3)
        for q, beta in zip(draws.model_indices, draws.betas):
            assert q == 0
            np.testing.assert_array_equal(beta, fit.beta_hat)

    def test_zero_weight_model_never_drawn(self):
        fits = [make_fit([10.0], [0.0, 0.1]), make_fit([10.0], [9.9, 9.9])]
        bag = ModelBag(fits=fits, weights=np.array([1.0, 0.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 100_000, seed=1)
        assert np.all(draws.model_indices == 0)

    def test_empirical_frequencies_match_weights(self):
        weights = np.array([0.55, 0.3, 0.15])
        fits = [make_fit([10.0], [0.0, 0.1]) for _ in range(3)]
        bag = ModelBag(fits=fits, weights=weights, weighting_kind="bic")
        n = 100_000
        draws = sample_posterior(bag, n, seed=11)
        freq = np.bincount(draws.model_indices, minlength=3) / n
        bound = 4 * np.sqrt(weights * (1 - weights) / n)
        assert np.all(np.abs(freq - weights) < bound)

    def test_deterministic_per_seed(self):
        fits = [make_fit([10.0], [0.0, 0.1], cov_scale=0.01) for _ in range(2)]
        bag = ModelBag(fits=fits, weights=np.array([0.5, 0.5]), weighting_kind="bic")
        a = sample_posterior(bag, 500, seed=42)
        b = sample_posterior(bag, 500, seed=42)
        assert np.array_equal(a.model_indices, b.model_indices)
        for x, y in zip(a.betas, b.betas):
            np.testing.assert_array_equal(x, y)


class TestSummaries:
    def test_kde_mode_constant(self):
        assert kde_mode(np.full(100, 3.25)) == 3.25

    def test_kde_mode_finds_dominant_cluster(self, rng):
        x = np.concatenate([rng.normal(0.0, 0.05, 9000), rng.normal(3.0, 0.05, 1000)])
        assert abs(kde_mode(x)) < 0.1

    def test_hpd_mass_between_94_and_96(self, rng):
        for _ in range(10):
            x = rng.normal(size=500)
            lo, hi = hpd_interval(x, 0.95)
            frac = np.mean((x >= lo) & (x <= hi))
            assert 0.94 <= frac <= 0.96

    def test_hpd_shortest_window(self):
        x = np.concatenate([np.linspace(0, 1, 95), np.linspace(50, 51, 5)])
        lo, hi = hpd_interval(x, 0.95)
        assert lo == 0.0 and hi == 1.0


class TestExtractTrend:
    def test_single_model_reproduces_step_function(self):
        gamma = [5.0, 12.0, 30.0]
        levels = [0.4, 0.2, 0.05]
        fit = make_fit(gamma, [math.log(0.01)] + levels, cov_scale=0.0)
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 200, seed=0)
        trend = extract_trend(draws, bag, grid_size=61, gamma_max=36.0)
        for g, mode in zip(trend.grid, trend.modes[INERTIA]):
            if g > 30.0:
                expected = 0.0
            elif g <= 5.0:
                expected = 0.4
            elif g <= 12.0:
                expected = 0.2
            else:
                expected = 0.05
            assert mode == expected
        assert trend.intercept_mode == pytest.approx(math.log(0.01))

    def test_constant_coefficient_zero_band(self):
        fits = [
            make_fit([7.0], [0.0, 0.33], cov_scale=0.0),
            make_fit([3.0, 7.0], [0.0, 0.33, 0.33], cov_scale=0.0),
        ]
        bag = ModelBag(fits=fits, weights=np.array([0.6, 0.4]), weighting_kind="bic")
        draws = sample_posterior(bag, 300, seed=2)
        trend = extract_trend(draws, bag, grid_size=20, gamma_max=7.0)
        np.testing.assert_array_equal(trend.modes[INERTIA], 0.33)
        np.testing.assert_array_equal(trend.hpd_low[INERTIA], 0.33)
        np.testing.assert_array_equal(trend.hpd_high[INERTIA], 0.33)

    def test_draw_order_invariance(self, rng):
        fits = [
            make_fit([6.0], [0.0, 0.5], cov_scale=0.02),
            make_fit([2.0, 6.0], [0.0, 0.6, 0.2], cov_scale=0.02),
        ]
        bag = ModelBag(fits=fits, weights=np.array([0.5, 0.5]), weighting_kind="bic")
        draws = sample_posterior(bag, 400, seed=7)
        perm = rng.permutation(draws.n_draws)
        from remdecay.bma import PosteriorDraws

        shuffled = PosteriorDraws(
            model_indices=draws.model_indices[perm],
            betas=[draws.betas[p] for p in perm],
        )
        a = extract_trend(draws, bag, grid_size=15, gamma_max=6.0)
        b = extract_trend(shuffled, bag, grid_size=15, gamma_max=6.0)
        np.testing.assert_array_equal(a.modes[INERTIA], b.modes[INERTIA])
        np.testing.assert_array_equal(a.hpd_low[INERTIA], b.hpd_low[INERTIA])

    def test_band_ordering_pointwise(self, rng):
        fits = [
            make_fit([6.0], [0.0, 0.5], cov_scale=0.05),
            make_fit([2.0, 6.0], [0.0, 0.7, 0.25], cov_scale=0.05),
        ]
        bag = ModelBag(fits=fits, weights=np.array([0.4, 0.6]), weighting_kind="bic")
        draws = sample_posterior(bag, 2000, seed=8)
        trend = extract_trend(draws, bag, grid_size=25, gamma_max=6.0)
        lo, md, hi = trend.hpd_low[INERTIA], trend.modes[INERTIA], trend.hpd_high[INERTIA]
        assert np.all(lo <= md) and np.all(md <= hi)

    def test_too_few_draws_rejected(self):
        fit = make_fit([5.0], [0.0, 0.1])
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 5, seed=0)
        with pytest.raises(ValueError, match="draws"):
            extract_trend(draws, bag, grid_size=10, gamma_max=5.0)

    def test_csv_and_json_output(self, tmp_path):
        fit = make_fit([5.0], [0.0, 0.1], cov_scale=0.0)
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 100, seed=0)
        trend = extract_trend(draws, bag, grid_size=8, gamma_max=5.0)
        out = tmp_path / "trend.csv"
        trend.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,gamma,mode,hpd_low,hpd_high"
        assert lines[1].startswith("intercept,")
        assert len(lines) == 2 + 8
        doc = trend.to_json_dict()
        assert doc["effects"]["inertia"]["mode"] == [0.1] * 8
