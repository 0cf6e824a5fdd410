import concurrent.futures
import math

import numpy as np
import pytest

from remdecay import bma
from remdecay.bma import (
    ModelBag,
    PosteriorDraws,
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
from remdecay.intervals import IntervalSpec, equal_spec, locate_intervals
from remdecay.likelihood import ModelFit, event_derivatives, fit_mle
from remdecay.stats import StatisticKind, compute_stepwise_stats

from oracle import (
    late_start,
    loop_log_density,
    loop_window_derivatives,
    oracle_waic,
    random_sequence,
    to_dense,
)

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


def fit_setup(seq):
    """(seq, rs, spec, stats, fit) of the K = 2 inertia model on ``seq``."""
    rs = RiskSet(seq.n_actors)
    spec = equal_spec(2, 0.5 * (seq.times[-1] - seq.times[0]))
    stats = compute_stepwise_stats(seq, rs, [INERTIA], spec)
    return seq, rs, spec, stats, fit_mle(stats, seq)


@pytest.fixture
def small_fit_setup(rng):
    return fit_setup(random_sequence(rng, 3, 40))


class TestWaic:
    def test_zero_variance_draws_give_zero_p_waic(self, small_fit_setup):
        """A zeroed cov_hat is a posterior without variance: p_waic is 0 and
        each point's lpd_i is its event's log-likelihood term at beta_hat."""
        seq, rs, spec, stats, fit = small_fit_setup
        fit.cov_hat = np.zeros_like(fit.cov_hat)
        cfg = WaicConfig(burn_in=10, ahead=1)
        lpd_i, p_i = bma.waic_pointwise(fit, stats, cfg)
        assert not p_i.any()
        terms = event_derivatives(stats, fit.beta_hat, fit.cov_hat)[0]
        np.testing.assert_array_equal(lpd_i, terms[10:])
        elpd, lpd, p = waic_elpd(fit, stats, seq, cfg)
        assert p == 0.0
        assert elpd == lpd

    def test_micro_oracle_hand_enumeration(self, small_fit_setup, rng):
        """The sampled WAIC reference equals a hand enumeration of the loop
        oracle's window log densities."""
        seq, rs, spec, stats, fit = small_fit_setup
        B, L, A, M = 3, 10, 2, len(seq)
        draws = fit.beta_hat + rng.normal(0, 0.05, size=(B, fit.n_params))
        lpd, p = oracle_waic(stats, seq, draws, L, A)
        lds = np.empty((M - A - L + 1, B))
        for pos, i in enumerate(range(L, M - A + 1)):
            for b in range(B):
                lds[pos, b] = loop_log_density(
                    to_dense(stats), rs.event_positions(seq), seq.times, seq.t0,
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

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_windows_match_oracle_for_each_ahead(self, small_fit_setup, rng, ahead):
        """Each point's lpd_i and p_i are the second-order form built from
        the loop oracle's window log density, gradient and Hessian at beta_hat,
        also for the same events observed from t0 > 0, whose first wait
        moves beta_hat and cov_hat."""
        late = fit_setup(late_start(small_fit_setup[0], rng))
        for seq, rs, spec, stats, fit in (small_fit_setup, late):
            L, M, cov = 12, len(seq), fit.cov_hat
            lpd_i, p_i = bma.waic_pointwise(fit, stats, WaicConfig(burn_in=L, ahead=ahead))
            dense, positions = to_dense(stats), rs.event_positions(seq)
            assert lpd_i.shape == p_i.shape == (M - ahead - L + 1,)
            for pos, i in enumerate(range(L, M - ahead + 1)):
                ll, g, H = loop_window_derivatives(dense, positions, seq.times, seq.t0,
                                                   fit.beta_hat, i + 1, i + ahead)
                p_ref = g @ cov @ g
                assert p_i[pos] == pytest.approx(p_ref, rel=1e-10)
                assert lpd_i[pos] == pytest.approx(ll + 0.5 * np.trace(cov @ H) + 0.5 * p_ref,
                                                   rel=1e-10)

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_close_to_sampled_reference(self, ahead):
        """On a 300-event design the second-order elpd is closer to a
        4000-draw sampled WAIC than the Monte Carlo sd of a 200-draw one."""
        seq = random_sequence(np.random.default_rng(2), 3, 300)
        spec = equal_spec(2, 0.5 * (seq.times[-1] - seq.times[0]))
        stats = compute_stepwise_stats(seq, RiskSet(3), [INERTIA], spec)
        fit = fit_mle(stats, seq)
        L = 100
        elpd = waic_elpd(fit, stats, seq, WaicConfig(burn_in=L, ahead=ahead))[0]
        draws = bma._mvn_draws(fit.beta_hat, fit.cov_hat, 4000, np.random.default_rng(7))
        lpd, p = oracle_waic(stats, seq, draws, L, ahead)
        batches = [np.subtract(*oracle_waic(stats, seq, draws[b : b + 200], L, ahead))
                   for b in range(0, 4000, 200)]
        assert abs(elpd - (lpd - p)) < np.std(batches, ddof=1)

    def test_identical_models_shared_stream_equal_weights(self, small_fit_setup):
        """WAIC takes no draws: any rng, or none, gives the same elpd."""
        seq, rs, spec, stats, fit = small_fit_setup
        cfg = WaicConfig(burn_in=10, ahead=1, n_draws=20, seed=5)
        ea, _, _ = waic_elpd(fit, stats, seq, cfg, rng=waic_model_rng(cfg.seed, 3))
        eb, _, _ = waic_elpd(fit, stats, seq, cfg, rng=waic_model_rng(cfg.seed + 1, 4))
        assert ea == eb == waic_elpd(fit, stats, seq, WaicConfig(burn_in=10))[0]
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
        # model q's elpd is the one waic_elpd gives for its fit
        np.testing.assert_array_equal(fits[0].beta_hat, fit.beta_hat)
        elpd, _, _ = waic_elpd(fit, stats, seq, cfg, rng=waic_model_rng(cfg.seed, 0))
        assert fits[0].waic == elpd
        # and its count of unreliable points comes from the same per-point terms
        lpd_i, p_i = bma.waic_pointwise(fit, stats, cfg)
        assert lpd_i.sum() - p_i.sum() == elpd
        assert fits[0].n_high_p_waic == np.count_nonzero(p_i > bma.P_WAIC_WARN)
        # shift invariance of the softmax over elpds
        w2 = weights_from_elpds(fits, np.array([f.waic + 7.5 for f in fits]))
        np.testing.assert_allclose(w, w2, atol=1e-12)

    def test_burn_in_bounds_checked(self, small_fit_setup):
        seq, rs, spec, stats, fit = small_fit_setup
        with pytest.raises(ValueError):
            waic_elpd(fit, stats, seq, WaicConfig(burn_in=len(seq) - 1, ahead=1, n_draws=3))
        with pytest.raises(ValueError):
            WaicConfig(burn_in=0, ahead=1, n_draws=3)
        with pytest.raises(ValueError, match="ahead must be >= 1"):
            WaicConfig(burn_in=10, ahead=0)
        # n_draws has no effect, so any value is accepted
        assert WaicConfig(burn_in=5, ahead=1, n_draws=1).n_draws == 1


class FakePool:
    """Records max_workers and runs the map in this process."""

    seen: list[int] = []

    def __init__(self, max_workers):
        FakePool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestFitBagJobs:
    def test_invalid_jobs_rejected(self, small_fit_setup):
        seq, _, spec, _, _ = small_fit_setup
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                fit_bag(seq, [spec], [INERTIA], jobs=jobs)

    def test_empty_bag_rejected_eagerly(self, small_fit_setup):
        seq = small_fit_setup[0]
        with pytest.raises(ValueError, match="empty model bag"):
            fit_bag(seq, [], [INERTIA])

    def test_empty_kinds_rejected_eagerly(self, small_fit_setup):
        seq, _, spec, _, _ = small_fit_setup
        with pytest.raises(ValueError, match="no statistic kinds"):
            fit_bag(seq, [spec], [])

    def test_pool_sized_by_bag(self, small_fit_setup, monkeypatch):
        seq, _, spec, _, _ = small_fit_setup
        specs = [spec, equal_spec(3, spec.horizon), equal_spec(4, spec.horizon)]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "seen", [])
        serial = list(fit_bag(seq, specs, [INERTIA], jobs=1))
        assert FakePool.seen == []
        for jobs, workers in ((2, 2), (3, 3), (64, 3)):
            runs = list(fit_bag(seq, specs, [INERTIA], jobs=jobs))
            assert FakePool.seen[-1] == workers
            assert [q for q, _, _ in runs] == [0, 1, 2]
            for (_, a, _), (_, b, _) in zip(runs, serial):
                np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
        # a one-model bag runs serially whatever jobs asks for
        list(fit_bag(seq, specs[:1], [INERTIA], jobs=8))
        assert len(FakePool.seen) == 3

    def test_two_horizons_with_closure_kind(self, rng, monkeypatch):
        """Specs of two interleaved horizons with a closure kind: every fit,
        serial or through the pool, equals the direct fit of its own design."""
        seq = random_sequence(rng, 4, 80)
        span = seq.times[-1] - seq.times[0]
        kinds = (INERTIA, StatisticKind.TRANSITIVITY)
        specs = [equal_spec(K, frac * span) for K in (2, 3) for frac in (0.3, 0.6)]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "seen", [])
        for jobs in (1, 2):
            runs = list(fit_bag(seq, specs, kinds, jobs=jobs))
            assert [q for q, _, _ in runs] == [0, 1, 2, 3]
            for (_, fit, _), spec in zip(runs, specs):
                want = fit_mle(compute_stepwise_stats(seq, RiskSet(4), kinds, spec), seq)
                assert fit.spec.horizon == spec.horizon
                np.testing.assert_array_equal(fit.beta_hat, want.beta_hat)
                assert fit.loglik == want.loglik
        assert FakePool.seen == [2]


class TestSamplePosterior:
    @pytest.mark.parametrize("n_fits, weights, kind, match", [
        (0, [], "bic", "one weight per fit"),
        (2, [1.0], "bic", "one weight per fit"),
        (2, [1.2, -0.2], "bic", "probability vector"),
        (2, [0.5, 0.4], "bic", "probability vector"),
        (1, [1.0], "aic", "unknown weighting kind 'aic'"),
    ])
    def test_invalid_bag_rejected(self, n_fits, weights, kind, match):
        fits = [make_fit([10.0], [0.0, 0.1]) for _ in range(n_fits)]
        with pytest.raises(ValueError, match=match):
            ModelBag(fits=fits, weights=np.array(weights), weighting_kind=kind)

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_non_positive_draw_count_rejected(self, n_draws):
        bag = ModelBag(fits=[make_fit([10.0], [0.0, 0.1])], weights=np.array([1.0]), weighting_kind="bic")
        with pytest.raises(ValueError, match="n_draws must be positive"):
            sample_posterior(bag, n_draws)

    def test_singular_covariance_jittered(self):
        """A covariance that Cholesky cannot factor is jittered by 1e-10 x its
        largest variance, with a warning; the draws keep its rank-one shape."""
        fit = make_fit([10.0], [0.5, -0.2])
        fit.cov_hat = np.ones((2, 2))
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        with pytest.warns(RuntimeWarning, match="not positive definite; jittering by 1e-10"):
            draws = sample_posterior(bag, 1000, seed=4).blocks[0]
        assert draws.shape == (1000, 2) and np.all(np.isfinite(draws))
        assert np.std(draws[:, 0]) > 0.5
        np.testing.assert_allclose(draws[:, 0] - draws[:, 1], 0.7, atol=1e-3)

    def test_degenerate_bag_all_draws_equal(self):
        fit = make_fit([10.0], [0.5, -0.2], cov_scale=0.0)
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 50, seed=3)
        assert np.all(draws.model_indices == 0) and list(draws.blocks) == [0]
        np.testing.assert_array_equal(draws.blocks[0], np.tile(fit.beta_hat, (50, 1)))

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
        assert list(a.blocks) == list(b.blocks) == [0, 1]
        for q in a.blocks:
            assert a.blocks[q].shape == (np.count_nonzero(a.model_indices == q), 2)
            np.testing.assert_array_equal(a.blocks[q], b.blocks[q])


class TestSummaries:
    def test_kde_mode_constant(self):
        assert kde_mode(np.full(100, 3.25)) == 3.25

    def test_kde_mode_finds_dominant_cluster(self, rng):
        x = np.concatenate([rng.normal(0.0, 0.05, 9000), rng.normal(3.0, 0.05, 1000)])
        assert abs(kde_mode(x)) < 0.1

    def test_kde_mode_small_samples_match_brute_force(self, rng):
        """With 10-30 draws the truncated kernel spans more bins than the
        512-point grid; the mode must still be the grid argmax of the KDE."""
        n_grid, wide = 512, 0
        for n in (10, 12, 15, 20, 30):
            for _ in range(8):
                x = rng.normal(size=n) * rng.uniform(0.1, 3.0)
                counts, edges = np.histogram(x, bins=n_grid, range=(x.min(), x.max()))
                centers = 0.5 * (edges[:-1] + edges[1:])
                q25, q75 = np.percentile(x, [25.0, 75.0])
                bw = 0.9 * min(x.std(ddof=1), (q75 - q25) / 1.34) * n ** -0.2
                step = (x.max() - x.min()) / n_grid
                half = min(math.ceil(4.0 * bw / step), 4 * n_grid)
                wide += 2 * half + 1 > n_grid
                gap = np.subtract.outer(np.arange(n_grid), np.arange(n_grid))
                weights = np.where(np.abs(gap) <= half, np.exp(-0.5 * (gap * step / bw) ** 2), 0.0)
                dens = weights @ counts
                mode = kde_mode(x)
                j = int(np.searchsorted(centers, mode))
                assert centers[j] == mode
                assert dens[j] == pytest.approx(dens.max(), rel=1e-12)
        assert wide > 0

    def test_kde_mode_quartiles_match_numpy(self, rng):
        """kde_mode's quartiles equal np.percentile's default ones on
        continuous, tied and constant samples: bit for bit, except that a
        zero quartile from a tie of 0.0 and -0.0 may take either sign, since
        sort and partition may order the tie either way (an IQR of zero is
        not used)."""
        for n in [*range(2, 61), 10_000]:
            for x in (rng.normal(size=n), np.round(rng.normal(size=n), 1),
                      np.repeat(rng.normal(size=max(1, n // 3)), 3)[:n], np.full(n, 0.3)):
                s = np.sort(x)
                got = np.array([bma._quantile(s, 0.25), bma._quantile(s, 0.75)])
                want = np.percentile(x, [25.0, 75.0])
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("level", [1.5, 0.0, -0.5, math.nan, math.inf])
    def test_hpd_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=r"level must be in \(0, 1\]"):
            hpd_interval(np.arange(10.0), level)

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
        # new slot s holds old slot perm[s]; each block is reordered to its new slots
        row_of = np.empty(draws.n_draws, dtype=np.int64)
        for q in draws.blocks:
            old = np.flatnonzero(draws.model_indices == q)
            row_of[old] = np.arange(old.size)
        qs = draws.model_indices[perm]
        shuffled = PosteriorDraws(
            model_indices=qs,
            blocks={q: block[row_of[perm[qs == q]]] for q, block in draws.blocks.items()},
        )
        a = extract_trend(draws, bag, grid_size=15, gamma_max=6.0)
        b = extract_trend(shuffled, bag, grid_size=15, gamma_max=6.0)
        np.testing.assert_array_equal(a.modes[INERTIA], b.modes[INERTIA])
        np.testing.assert_array_equal(a.hpd_low[INERTIA], b.hpd_low[INERTIA])

    def test_matches_per_grid_reference(self):
        """Summaries per distinct draw vector equal a brute-force summary of
        every grid point, with shared and unshared bounds, two kinds, and grid
        points beyond some or all horizons."""
        kinds = (INERTIA, StatisticKind.RECIPROCITY)

        def two_kind_fit(gamma, rng):
            K = len(gamma)
            beta = rng.normal(0.0, 0.5, 1 + 2 * K)
            return ModelFit(
                spec=IntervalSpec(np.asarray(gamma, dtype=float)),
                kinds=kinds,
                labels=tuple(f"c{p}" for p in range(1 + 2 * K)),
                beta_hat=beta,
                cov_hat=0.05 * np.eye(1 + 2 * K),
                loglik=-100.0,
                n_params=1 + 2 * K,
                n_events=50,
                bic=200.0,
            )

        rng = np.random.default_rng(5)
        fits = [two_kind_fit(g, rng) for g in ([4.0, 10.0], [4.0, 7.0, 10.0], [3.0, 6.0])]
        bag = ModelBag(fits=fits, weights=np.array([0.3, 0.3, 0.4]), weighting_kind="bic")
        draws = sample_posterior(bag, 600, seed=4)
        trend = extract_trend(draws, bag, grid_size=41, gamma_max=12.0)

        slots = {q: np.flatnonzero(draws.model_indices == q) for q in draws.blocks}
        vals = np.empty(draws.n_draws)
        for block_index, kind in enumerate(kinds):
            for gi, g in enumerate(trend.grid):
                for q, block in draws.blocks.items():
                    K = fits[q].spec.size
                    k = int(locate_intervals(fits[q].spec, np.array([g]))[0])
                    vals[slots[q]] = 0.0 if k == 0 else block[:, 1 + block_index * K + k - 1]
                lo, hi = hpd_interval(vals)
                assert trend.modes[kind][gi] == kde_mode(vals)
                assert (trend.hpd_low[kind][gi], trend.hpd_high[kind][gi]) == (lo, hi)
                assert trend.means[kind][gi] == vals.mean()
        for q, block in draws.blocks.items():
            vals[slots[q]] = block[:, 0]
        assert trend.intercept_mode == kde_mode(vals)
        assert trend.intercept_hpd == hpd_interval(vals)
        assert np.all(trend.modes[INERTIA][trend.grid > 10.0] == 0.0)

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

    @pytest.mark.parametrize("level", [1.5, 0.0])
    def test_level_outside_unit_interval_rejected(self, level):
        fit = make_fit([5.0], [0.0, 0.1])
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 100, seed=0)
        with pytest.raises(ValueError, match="level"):
            extract_trend(draws, bag, grid_size=10, gamma_max=5.0, level=level)

    @pytest.mark.parametrize("gamma_max", [math.nan, math.inf, 0.0, -1.0])
    def test_gamma_max_not_finite_positive_rejected(self, gamma_max):
        fit = make_fit([5.0], [0.0, 0.1])
        bag = ModelBag(fits=[fit], weights=np.array([1.0]), weighting_kind="bic")
        draws = sample_posterior(bag, 100, seed=0)
        with pytest.raises(ValueError, match="^gamma_max must be finite and > 0"):
            extract_trend(draws, bag, grid_size=10, gamma_max=gamma_max)

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
