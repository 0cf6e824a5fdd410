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
    event_derivatives,
    fit_mle,
    grad_and_hessian,
    log_likelihood,
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


def dense_reference(stats, seq, beta):
    """Per-event terms, gradient and Hessian straight from the dense tensor."""
    U = to_dense(stats)
    M = len(seq)
    positions = RiskSet(seq.n_actors).event_positions(seq)
    dt = np.diff(seq.times, prepend=seq.t0)
    eta = U @ beta
    lam = np.exp(eta)
    terms = eta[np.arange(M), positions] - dt * lam.sum(axis=1)
    w = dt[:, None] * lam
    grad = U[np.arange(M), positions].sum(axis=0) - np.einsum("md,mdp->p", w, U)
    hess = -np.einsum("md,mdp,mdq->pq", w, U, U)
    return terms, grad, hess


@pytest.fixture(scope="module")
def inertia_design():
    """(seq, stats): 3000 events among 10 actors with an inertia effect and
    its K = 5 inertia design (about 17k runs, 147 distinct states)."""
    effects = {StatisticKind.INERTIA: WeibullDecay(scale=4.0, shape=1.0, peak=0.6)}
    seq = simulate(SimConfig(n_actors=10, beta0=-3.9, effects=effects, horizon=20.0,
                             n_events=3000, seed=3))
    stats = compute_stepwise_stats(seq, RiskSet(10), (StatisticKind.INERTIA,), equal_spec(5, 20.0))
    return seq, stats


class TestRateKernel:
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
            zero_cov = np.zeros((stats.n_columns, stats.n_columns))
            np.testing.assert_allclose(event_derivatives(stats, seq, beta, zero_cov)[0], terms,
                                       rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(g, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())
            np.testing.assert_allclose(H, hess, rtol=1e-12, atol=1e-12 * np.abs(hess).max())
            assert log_likelihood(stats, seq, beta) == pytest.approx(terms.sum(), rel=1e-12)

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_waic_holds_no_events_by_draws_array(self, inertia_design, ahead):
        """Memory guard: WAIC takes no draws and sums its P + 2 per-state
        columns through the runs one column at a time, so on the inertia
        design it must peak below one runs x (P + 2) float64 array, and far below
        the events x draws array that sampled scoring would fill."""
        seq, stats = inertia_design
        fit = fit_mle(stats, seq)
        cfg = WaicConfig.default_for(len(seq), ahead=ahead)
        tracemalloc.start()
        try:
            elpd = waic_elpd(fit, stats, seq, cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(elpd)
        assert peak < stats.ids.size * (stats.n_columns + 2) * 8
        assert peak < stats.n_events * 200 * 8 / 4  # events x 200 sampled draws

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
        # returned without a RuntimeWarning, which the test configuration makes an error
        terms = event_derivatives(stats, seq, beta, np.eye(stats.n_columns))[0]
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
        # WAIC evaluates the same kernel once, at beta_hat
        seen.clear()
        waic_elpd(fit, stats, seq, WaicConfig(burn_in=10))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], fit.beta_hat)

    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_never_realized_column_named(self, seed):
        # on these instances some interval never holds a realized event's
        # history but is at risk, so its coefficient runs off toward -inf
        seq, rs, stats = random_instance(np.random.default_rng(seed), n_events=12, K=3)
        realized = stats.rows[stats.realized].sum(axis=0)
        with pytest.warns(RuntimeWarning, match="never realized") as record:
            fit = fit_mle(stats, seq)
        assert fit.converged and fit.stop == "float_floor"
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

    @pytest.mark.filterwarnings("ignore:column\\(s\\) at risk but never realized")
    @pytest.mark.parametrize("seed, n_events", [(0, 12), (1, 60), (3, 120)])
    def test_float_floor_is_the_one_stopping_rule(self, seed, n_events, monkeypatch):
        """The predicted gain 1/2 g'(-H)^-1 g is above the float floor at every
        accepted iterate but the last, and at most the floor at beta_hat."""
        seq, rs, stats = random_instance(np.random.default_rng(seed), n_events=n_events, K=3)
        reduce, derivatives = likelihood._reduce, likelihood._derivatives
        evaluated, accepted = [], []

        def recording_reduce(stats, W, s, beta):
            evaluated.append(reduce(stats, W, s, beta))
            return evaluated[-1]

        def recording_derivatives(U, s, w):
            grad, hess = derivatives(U, s, w)
            ll = next(value for value, weights in evaluated if weights is w)
            accepted.append((ll, grad, hess))
            return grad, hess

        monkeypatch.setattr(likelihood, "_reduce", recording_reduce)
        monkeypatch.setattr(likelihood, "_derivatives", recording_derivatives)
        fit = fit_mle(stats, seq)
        assert fit.converged and fit.stop == "float_floor"
        # the start and one accepted iterate per iteration but the stopping one
        assert len(accepted) == fit.iterations and accepted[-1][0] == fit.loglik
        above = []
        for ll, grad, hess in accepted:
            chol = likelihood._factor(-hess)[0]
            gain = 0.5 * (grad @ np.linalg.solve(chol.T, np.linalg.solve(chol, grad)))
            above.append(gain > likelihood.FLOAT_FLOOR * max(1.0, abs(ll)))
        assert above == [True] * (fit.iterations - 1) + [False]

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
        assert again.max_abs_grad == fit.max_abs_grad and fit.stop == "float_floor"
        assert again.n_waic_points is None and again.n_high_p_waic is None
        # only the schema that to_json_dict writes is read
        for key in ("halvings", "max_abs_grad", "stop", "n_waic_points", "n_high_p_waic"):
            d = fit.to_json_dict()
            del d[key]
            with pytest.raises(KeyError):
                ModelFit.from_json_dict(d)
        fit.n_waic_points, fit.n_high_p_waic = 30, 3
        again = ModelFit.from_json_dict(json.loads(json.dumps(fit.to_json_dict())))
        assert (again.n_waic_points, again.n_high_p_waic) == (30, 3)
