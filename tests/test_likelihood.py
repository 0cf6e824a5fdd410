import json
import math
import tracemalloc

import numpy as np
import pytest

from remdecay.decay import WeibullDecay
from remdecay.events import EventSequence, RiskSet
from remdecay.intervals import IntervalSpec, equal_spec
from remdecay import likelihood
from remdecay.bma import WaicConfig, waic_elpd
from remdecay.likelihood import (
    FitOptions,
    LikelihoodOverflowError,
    ModelFit,
    RankDeficiencyError,
    event_terms,
    fit_mle,
    grad_and_hessian,
    log_likelihood,
    log_rates,
)
from remdecay.sim import SimConfig, simulate
from remdecay.stats import StatisticKind, compute_stepwise_stats

from conftest import SIX_KINDS
from oracle import one_row_per_run, random_sequence, runs_from_dense, to_dense

KINDS2 = (StatisticKind.INERTIA, StatisticKind.RECIPROCITY)


def intercept_only_tensor(seq):
    """A hand-built design with a single always-on dyad (risk set of size 1)."""
    M = len(seq)
    return runs_from_dense(np.ones((M, 1, 1)), np.zeros(M, dtype=np.int64), labels=("intercept",))


def random_instance(rng, n_actors=4, n_events=30, K=2):
    seq = random_sequence(rng, n_actors, n_events)
    rs = RiskSet(n_actors)
    span = seq.times[-1] - seq.times[0]
    stats = compute_stepwise_stats(seq, rs, KINDS2, equal_spec(K, 0.8 * span))
    return seq, rs, stats


class TestLogLikelihood:
    def test_single_dyad_closed_form(self):
        times = np.array([0.7, 1.1, 2.0, 3.4, 5.0])
        seq = EventSequence(times, [0] * 5, [1] * 5, 2)
        stats = intercept_only_tensor(seq)
        T, M = times[-1], 5
        for b0 in (-1.0, 0.0, 0.4):
            expected = M * b0 - T * math.exp(b0)
            assert log_likelihood(stats, seq, np.array([b0])) == pytest.approx(
                expected, rel=1e-12
            )

    def test_beta_zero_gives_total_exposure(self, rng):
        seq, rs, stats = random_instance(rng)
        llo = log_likelihood(stats, seq, np.zeros(stats.n_columns))
        assert llo == pytest.approx(-seq.times[-1] * len(rs), rel=1e-12)

    def test_overflow_reports_event(self, rng):
        seq, rs, stats = random_instance(rng, n_events=12)
        with pytest.raises(LikelihoodOverflowError) as err:
            log_likelihood(stats, seq, np.full(stats.n_columns, 400.0))
        assert 0 <= err.value.event_index < len(seq)

    def test_concavity_property(self, rng):
        seq, rs, stats = random_instance(rng)
        P = stats.n_columns
        for _ in range(20):
            b1 = rng.normal(0, 0.3, P)
            b2 = rng.normal(0, 0.3, P)
            mid = log_likelihood(stats, seq, 0.5 * (b1 + b2))
            avg = 0.5 * (
                log_likelihood(stats, seq, b1) + log_likelihood(stats, seq, b2)
            )
            assert mid >= avg - 1e-9


def dense_reference(stats, seq, betas):
    """Per-event terms, gradient and Hessian straight from the dense tensor."""
    U = to_dense(stats)
    M = len(seq)
    positions = RiskSet(seq.n_actors).event_positions(seq)
    dt = np.diff(seq.times, prepend=seq.t0)
    eta = np.einsum("mdp,p...->md...", U, betas)
    lam = np.exp(eta)
    realized = eta[np.arange(M), positions]
    terms = realized - (dt * lam.sum(axis=1).T).T
    if betas.ndim == 2:
        return terms, None, None
    w = dt[:, None] * lam
    grad = U[np.arange(M), positions].sum(axis=0) - np.einsum("md,mdp->p", w, U)
    hess = -np.einsum("md,mdp,mdq->pq", w, U, U)
    return terms, grad, hess


@pytest.fixture(scope="module")
def inertia_design():
    """(seq, stats, draws): 3000 events among 10 actors with an inertia
    effect, its K = 5 inertia design (about 17k runs, 147 distinct states)
    and 200 draws near the truth."""
    effects = {StatisticKind.INERTIA: WeibullDecay(scale=4.0, shape=1.0, peak=0.6)}
    seq = simulate(SimConfig(n_actors=10, beta0=-3.9, effects=effects, horizon=20.0,
                             n_events=3000, seed=3))
    stats = compute_stepwise_stats(seq, RiskSet(10), (StatisticKind.INERTIA,), equal_spec(5, 20.0))
    draws = np.random.default_rng(0).normal([-3.9, 0.5, 0.3, 0.2, 0.1, 0.0], 0.05, (200, 6))
    return seq, stats, draws


class TestRateKernel:
    def test_columns_match_single_evaluations(self, rng):
        seq, rs, stats = random_instance(rng, n_events=40)
        betas = rng.normal(0, 0.3, (stats.n_columns, 5))
        terms = event_terms(stats, seq, betas)
        eta = log_rates(stats, betas)
        assert terms.shape == (len(seq), 5) and eta.shape == (len(stats.rows), 5)
        for b in range(5):
            t1 = event_terms(stats, seq, betas[:, b])
            np.testing.assert_allclose(terms[:, b], t1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eta[:, b], log_rates(stats, betas[:, b]), rtol=1e-12, atol=1e-15)
            ll = log_likelihood(stats, seq, betas[:, b])
            assert terms[:, b].sum() == pytest.approx(ll, rel=1e-12)
            assert t1.sum() == pytest.approx(ll, rel=1e-12)

    def test_matches_dense_reference(self, rng):
        for _ in range(5):
            seq = random_sequence(rng, int(rng.integers(2, 6)), int(rng.integers(10, 60)))
            rs = RiskSet(seq.n_actors)
            span = seq.times[-1] - seq.times[0]
            stats = compute_stepwise_stats(seq, rs, tuple(StatisticKind), equal_spec(2, 0.5 * span))
            beta = rng.normal(0, 0.1, stats.n_columns)
            terms, grad, hess = dense_reference(stats, seq, beta)
            g, H = grad_and_hessian(stats, seq, beta)
            scale = np.abs(terms).max()
            np.testing.assert_allclose(event_terms(stats, seq, beta), terms, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(g, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())
            np.testing.assert_allclose(H, hess, rtol=1e-12, atol=1e-12 * np.abs(hess).max())
            assert log_likelihood(stats, seq, beta) == pytest.approx(terms.sum(), rel=1e-12)
            betas = rng.normal(0, 0.1, (stats.n_columns, 4))
            want = dense_reference(stats, seq, betas)[0]
            np.testing.assert_allclose(
                event_terms(stats, seq, betas), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )

    def test_blocks_of_draws_match_one_block(self, rng, monkeypatch):
        seq, rs, stats = random_instance(rng, n_events=40)
        draws = rng.normal(0, 0.3, (7, stats.n_columns))
        whole = event_terms(stats, seq, draws.T)
        # two draws per chunk: three full chunks and a partial one
        monkeypatch.setattr(likelihood, "_DRAW_BLOCK", 2 * len(stats.rows))
        blocked = event_terms(stats, seq, draws.T)
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)

    def test_draw_densities_hold_no_runs_by_draws_array(self, inertia_design):
        """Memory guard: on a 3000-event, 10-actor inertia design at K = 5
        (about 17k runs), the densities of 200 draws must peak below one
        runs x draws float64 array; the rates are evaluated per distinct state."""
        seq, stats, draws = inertia_design
        tracemalloc.start()
        try:
            out = event_terms(stats, seq, draws.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (3000, len(draws)) and np.isfinite(out).all()
        assert peak < stats.ids.size * len(draws) * 8

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_waic_holds_no_events_by_draws_array(self, inertia_design, ahead):
        """Memory guard: WAIC reduces the per-event densities one block of
        events at a time, so on the same design it must peak below one
        events x draws float64 array."""
        seq, stats, draws = inertia_design
        fit = fit_mle(stats, seq)
        cfg = WaicConfig.default_for(len(seq), ahead=ahead, n_draws=len(draws))
        waic_elpd(fit, stats, seq, cfg, draws=draws)  # the lazy scipy.sparse import is not traced
        tracemalloc.start()
        try:
            elpd = waic_elpd(fit, stats, seq, cfg, draws=draws)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(elpd)
        assert peak < stats.n_events * len(draws) * 8

    def test_fit_holds_no_float_design(self, wide_seq):
        """Memory guard: on the six-kind K = 5 design of ``wide_seq`` (about
        170k runs, 150k distinct states of small unsigned integers), the
        Newton fit casts the design to float64 one block at a time and must
        peak below half of one runs x columns float64 array."""
        stats = compute_stepwise_stats(wide_seq, RiskSet(10), SIX_KINDS, equal_spec(5, 20.0))
        tracemalloc.start()
        try:
            fit = fit_mle(stats, wide_seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and stats.rows.dtype.kind == "u"
        assert peak < 0.5 * stats.ids.size * stats.n_columns * 8

    def test_hessian_blocks_match_one_block(self, rng, monkeypatch):
        seq, rs, stats = random_instance(rng, n_events=60)
        beta = rng.normal(0, 0.3, stats.n_columns)
        g1, H1 = grad_and_hessian(stats, seq, beta)
        # seven rows per block: several full blocks and a partial one
        monkeypatch.setattr(likelihood, "_ROW_BLOCK", 7)
        assert len(stats.rows) > 3 * 7 and len(stats.rows) % 7
        g2, H2 = grad_and_hessian(stats, seq, beta)
        np.testing.assert_array_equal(g2, g1)
        np.testing.assert_allclose(H2, H1, rtol=1e-12, atol=1e-12 * np.abs(H1).max())

    def test_overflow_returned_not_raised(self, rng):
        seq, rs, stats = random_instance(rng, n_events=12)
        beta = np.full(stats.n_columns, 400.0)
        terms = event_terms(stats, seq, beta)
        bad = np.flatnonzero(~np.isfinite(terms))
        assert bad.size
        with pytest.raises(LikelihoodOverflowError) as err:
            log_likelihood(stats, seq, beta)
        assert err.value.event_index == bad[0]


class TestDerivatives:
    def test_gradient_matches_central_differences(self, rng):
        h = 1e-5
        for _ in range(10):
            seq, rs, stats = random_instance(
                rng, n_actors=int(rng.integers(2, 5)), n_events=int(rng.integers(8, 40))
            )
            P = stats.n_columns
            beta = rng.normal(0, 0.2, P)
            g, _ = grad_and_hessian(stats, seq, beta)
            g_fd = np.empty(P)
            for p in range(P):
                e = np.zeros(P)
                e[p] = h
                g_fd[p] = (
                    log_likelihood(stats, seq, beta + e)
                    - log_likelihood(stats, seq, beta - e)
                ) / (2 * h)
            rel = np.abs(g - g_fd) / np.maximum(1.0, np.abs(g))
            assert rel.max() < 1e-6

    def test_hessian_negative_semidefinite(self, rng):
        for _ in range(10):
            seq, rs, stats = random_instance(rng, n_events=int(rng.integers(8, 40)))
            beta = rng.normal(0, 0.3, stats.n_columns)
            _, H = grad_and_hessian(stats, seq, beta)
            assert np.linalg.eigvalsh(H).max() < 1e-10

    def test_intercept_only_hessian(self):
        times = np.array([1.0, 2.0, 4.0])
        seq = EventSequence(times, [0, 1, 0], [1, 0, 1], 2)
        stats = intercept_only_tensor(seq)
        b0 = 0.3
        _, H = grad_and_hessian(stats, seq, np.array([b0]))
        assert H[0, 0] == pytest.approx(-times[-1] * math.exp(b0), rel=1e-12)


class TestFit:
    def test_closed_form_intercept(self):
        cfg = SimConfig(n_actors=2, beta0=0.0, n_events=100, seed=4)
        seq = simulate(cfg)
        rs = RiskSet(2)
        stats = compute_stepwise_stats(seq, rs, [], IntervalSpec(np.array([1.0])))
        fit = fit_mle(stats, seq)
        expected = math.log(100 / (seq.times[-1] * 2))
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(expected, abs=1e-8)
        # the start is this MLE, so the first check stops at the float floor
        assert (fit.iterations, fit.halvings, fit.stop) == (1, 0, "float_floor")

    def test_zero_exposure_names_zero_columns(self):
        # one event at t0: every run has zero exposure, so the closed-form
        # start log(M / 0) is undefined and the information is zero
        seq = EventSequence([0.0], [0], [1], 3)
        stats = compute_stepwise_stats(seq, RiskSet(3), (StatisticKind.INERTIA,), equal_spec(2, 1.0))
        with pytest.raises(RankDeficiencyError, match="zero: intercept, inertia_k1, inertia_k2;"):
            fit_mle(stats, seq)

    def test_kernel_evaluated_once_per_candidate(self, rng, monkeypatch):
        kernel = likelihood.log_rates
        seen = []

        def counting(stats, betas):
            seen.append(np.array(betas, dtype=np.float64))
            return kernel(stats, betas)

        monkeypatch.setattr(likelihood, "log_rates", counting)
        rejected = 0
        # the 12-event instance's MLE lies far out, and its line search rejects a step
        for n_events in (12, 30, 60):
            seq, rs, stats = random_instance(rng, n_events=n_events, K=3)
            seen.clear()
            if n_events == 12:
                # some interval of this instance is at risk but never realized
                with pytest.warns(RuntimeWarning, match="never realized"):
                    fit = fit_mle(stats, seq)
            else:
                fit = fit_mle(stats, seq)
            assert fit.converged
            # one evaluation at the start, one per accepted iterate (every
            # iteration but the stopping one accepts a step) and one per
            # rejected candidate; no point is evaluated twice
            accepted = fit.iterations - 1
            assert len(seen) == 1 + accepted + fit.halvings
            assert len({b.tobytes() for b in seen}) == len(seen)
            assert any(np.array_equal(b, fit.beta_hat) for b in seen)
            rejected += fit.halvings
        assert rejected > 0
        # WAIC scores its draws through the same kernel, one call per block
        seen.clear()
        draws = fit.beta_hat + rng.normal(0, 0.05, (6, fit.n_params))
        waic_elpd(fit, stats, seq, WaicConfig(burn_in=10, n_draws=6), draws=draws)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], draws.T)

    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_never_realized_column_named(self, seed):
        # on these instances some interval never holds a realized event's
        # history but is at risk, so its coefficient runs off toward -inf
        seq, rs, stats = random_instance(np.random.default_rng(seed), n_events=12, K=3)
        realized = stats.rows[stats.realized].sum(axis=0)
        with pytest.warns(RuntimeWarning, match="never realized") as record:
            fit = fit_mle(stats, seq)
        assert fit.converged and fit.stop == "tolerance"
        named = [label for label, total in zip(stats.labels, realized) if total == 0]
        assert named
        note = next(n for n in fit.warnings if "never realized" in n)
        assert note == str(record[0].message)
        assert note.split(": ")[1].split(";")[0] == ", ".join(named)
        for label in named:
            assert fit.beta_hat[stats.labels.index(label)] < -15

    def test_stalled_line_search_ends_fit(self, rng, monkeypatch):
        seq, rs, stats = random_instance(rng, n_events=40)
        kernel = likelihood.log_rates
        calls = []

        def overflow_after_start(stats, betas):
            calls.append(np.array(betas, dtype=np.float64))
            e = kernel(stats, betas)
            return e if len(calls) == 1 else np.full_like(e, np.inf)

        monkeypatch.setattr(likelihood, "log_rates", overflow_after_start)
        with pytest.warns(RuntimeWarning, match="line search"):
            fit = fit_mle(stats, seq)
        assert len(calls) == 1 + likelihood.LINE_SEARCH_STEPS <= 51
        assert not fit.converged
        assert (fit.stop, fit.iterations, fit.halvings) == ("stalled", 1, likelihood.LINE_SEARCH_STEPS)
        assert any("stalled" in note for note in fit.warnings)
        np.testing.assert_array_equal(fit.beta_hat, calls[0])

    def test_float_floor_stops_when_gradient_tolerance_unreachable(self, rng, monkeypatch):
        seq, rs, stats = random_instance(rng, n_events=60)
        base = fit_mle(stats, seq)
        monkeypatch.setattr(likelihood, "GRAD_TOL", 0.0)
        fit = fit_mle(stats, seq)
        assert fit.converged and fit.stop == "float_floor"
        assert fit.iterations <= base.iterations + 1
        assert fit.loglik == pytest.approx(base.loglik, rel=1e-12)

    def test_pooled_exposures_match_one_row_per_run(self, rng):
        """The fit on distinct states with pooled exposures equals the fit on
        the same design with every run its own row."""
        for n_actors, n_events, kinds in ((4, 60, KINDS2), (5, 120, tuple(StatisticKind))):
            seq = random_sequence(rng, n_actors, n_events)
            span = seq.times[-1] - seq.times[0]
            stats = compute_stepwise_stats(seq, RiskSet(n_actors), kinds, equal_spec(3, 0.8 * span))
            runs = one_row_per_run(stats, RiskSet(n_actors).event_positions(seq))
            assert len(stats.rows) < len(runs.rows)
            pooled, each = fit_mle(stats, seq), fit_mle(runs, seq)
            assert pooled.loglik == pytest.approx(each.loglik, rel=1e-12)
            np.testing.assert_allclose(pooled.beta_hat, each.beta_hat, rtol=1e-12, atol=1e-12)
            scale = np.abs(each.cov_hat).max()
            np.testing.assert_allclose(pooled.cov_hat, each.cov_hat, rtol=1e-12, atol=1e-12 * scale)
            assert (pooled.iterations, pooled.stop) == (each.iterations, each.stop)

    def test_gradient_small_at_solution(self, rng):
        seq, rs, stats = random_instance(rng, n_events=60)
        fit = fit_mle(stats, seq)
        g, _ = grad_and_hessian(stats, seq, fit.beta_hat)
        assert np.max(np.abs(g)) < 1e-6
        assert fit.converged

    def test_bic_recomputation(self, rng):
        seq, rs, stats = random_instance(rng, n_events=50)
        fit = fit_mle(stats, seq)
        assert fit.bic == -2.0 * fit.loglik + fit.n_params * math.log(len(seq))

    def test_covariance_is_spd_and_matches_information(self, rng):
        seq, rs, stats = random_instance(rng, n_events=60)
        for ridge in (0.0, 0.5):
            fit = fit_mle(stats, seq, FitOptions(ridge=ridge))
            _, H = grad_and_hessian(stats, seq, fit.beta_hat)
            I = np.eye(fit.n_params)
            np.testing.assert_allclose(fit.cov_hat @ (ridge * I - H), I, atol=1e-8)
            np.linalg.cholesky(fit.cov_hat)

    @pytest.mark.parametrize("ridge", [-1.0, -1e-12, math.nan, math.inf])
    def test_invalid_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge"):
            FitOptions(ridge=ridge)

    def test_duplicate_column_rejected(self, rng):
        seq, rs, stats = random_instance(rng, n_events=40)
        dense = to_dense(stats)
        dup = np.concatenate([dense, dense[:, :, -1:]], axis=2)
        bad = runs_from_dense(dup, rs.event_positions(seq), stats.labels + ("dup",), stats.kinds)
        with pytest.raises(RankDeficiencyError, match="linearly dependent"):
            fit_mle(bad, seq)

    def test_non_finite_design_rejected(self, rng):
        seq, rs, stats = random_instance(rng, n_events=30)
        dense = to_dense(stats).astype(np.float64)
        dense[-1, 0, -1] = np.inf
        bad = runs_from_dense(dense, rs.event_positions(seq), stats.labels, stats.kinds)
        with pytest.raises(ValueError, match="non-finite"):
            fit_mle(bad, seq)

    def test_zero_column_named_and_ridge_recovers(self, rng):
        seq, rs, stats = random_instance(rng, n_events=50)
        dense = to_dense(stats)
        padded = np.concatenate([dense, np.zeros_like(dense[:, :, :1])], axis=2)
        bad = runs_from_dense(padded, rs.event_positions(seq), stats.labels + ("ghost_stat",), stats.kinds)
        with pytest.raises(RankDeficiencyError, match="ghost_stat"):
            fit_mle(bad, seq)
        base = fit_mle(stats, seq)
        ridged = fit_mle(bad, seq, FitOptions(ridge=1e-8))
        np.testing.assert_allclose(ridged.beta_hat[:-1], base.beta_hat, atol=1e-6)
        assert abs(ridged.beta_hat[-1]) < 1e-6

    def test_dyad_order_invariance(self, rng):
        seq, rs, stats = random_instance(rng, n_events=50)
        perm = rng.permutation(len(rs))
        inv = np.argsort(perm)
        shuffled = runs_from_dense(
            to_dense(stats)[:, perm, :], inv[rs.event_positions(seq)], stats.labels, stats.kinds
        )
        a = fit_mle(stats, seq)
        b = fit_mle(shuffled, seq)
        np.testing.assert_allclose(a.beta_hat, b.beta_hat, atol=1e-6)
        assert a.loglik == pytest.approx(b.loglik, rel=1e-10)

    def test_json_roundtrip(self, rng):
        seq, rs, stats = random_instance(rng, n_events=40)
        fit = fit_mle(stats, seq)
        fit.waic = -12.5
        again = ModelFit.from_json_dict(json.loads(json.dumps(fit.to_json_dict())))
        np.testing.assert_array_equal(again.beta_hat, fit.beta_hat)
        np.testing.assert_array_equal(again.cov_hat, fit.cov_hat)
        assert again.bic == fit.bic and again.waic == fit.waic
        assert again.spec == fit.spec and again.kinds == fit.kinds
        assert (again.iterations, again.halvings, again.stop) == (fit.iterations, fit.halvings, fit.stop)
        assert again.max_abs_grad == fit.max_abs_grad and fit.stop in ("tolerance", "float_floor")
        assert again.n_high_p_waic is None
        # only the schema that to_json_dict writes is read
        for key in ("halvings", "max_abs_grad", "stop", "n_high_p_waic"):
            d = fit.to_json_dict()
            del d[key]
            with pytest.raises(KeyError):
                ModelFit.from_json_dict(d)
        fit.n_high_p_waic = 3
        assert ModelFit.from_json_dict(json.loads(json.dumps(fit.to_json_dict()))).n_high_p_waic == 3
