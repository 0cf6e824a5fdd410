import json
import math

import numpy as np
import pytest

from remdecay.events import EventSequence, RiskSet
from remdecay.intervals import IntervalSpec, equal_spec
from remdecay import likelihood
from remdecay.likelihood import (
    FitOptions,
    LikelihoodOverflowError,
    ModelFit,
    RankDeficiencyError,
    event_log_densities,
    event_terms,
    fit_mle,
    grad_and_hessian,
    log_likelihood,
)
from remdecay.sim import SimConfig, simulate
from remdecay.stats import StatTensor, StatisticKind, compute_stepwise_stats

from oracle import random_sequence

KINDS2 = (StatisticKind.INERTIA, StatisticKind.RECIPROCITY)


def intercept_only_tensor(seq):
    """A hand-built design with a single always-on dyad (risk set of size 1)."""
    M = len(seq)
    return StatTensor(
        values=np.ones((M, 1, 1)),
        labels=("intercept",),
        kinds=(),
        risk_set=RiskSet(2),
        event_positions=np.zeros(M, dtype=np.int64),
        spec=None,
    )


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


class TestRateKernel:
    def test_columns_match_single_evaluations(self, rng):
        seq, rs, stats = random_instance(rng, n_events=40)
        betas = rng.normal(0, 0.3, (stats.n_columns, 5))
        terms, rates, scale = event_terms(stats, seq, betas)
        assert terms.shape == (len(seq), 5) and rates.shape == (len(seq), len(rs), 5)
        for b in range(5):
            t1, r1, s1 = event_terms(stats, seq, betas[:, b])
            np.testing.assert_allclose(terms[:, b], t1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rates[:, :, b], r1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(scale[:, b], s1, rtol=1e-12, atol=1e-12)
            ll = log_likelihood(stats, seq, betas[:, b])
            assert terms[:, b].sum() == pytest.approx(ll, rel=1e-12)
            assert t1.sum() == ll

    def test_blocks_of_draws_match_one_block(self, rng, monkeypatch):
        seq, rs, stats = random_instance(rng, n_events=40)
        draws = rng.normal(0, 0.3, (7, stats.n_columns))
        whole = event_log_densities(stats, seq, draws)
        # two draws per block: three full blocks and a partial one
        monkeypatch.setattr(likelihood, "_DRAW_BLOCK", 2 * len(seq) * len(rs))
        blocked = event_log_densities(stats, seq, draws)
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(whole, event_terms(stats, seq, draws.T)[0], rtol=0, atol=0)

    def test_overflow_returned_not_raised(self, rng):
        seq, rs, stats = random_instance(rng, n_events=12)
        beta = np.full(stats.n_columns, 400.0)
        terms, _, _ = event_terms(stats, seq, beta)
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
        dup = np.concatenate([stats.values, stats.values[:, :, -1:]], axis=2)
        bad = StatTensor(
            values=dup,
            labels=stats.labels + ("dup",),
            kinds=stats.kinds,
            risk_set=rs,
            event_positions=stats.event_positions,
            spec=stats.spec,
        )
        with pytest.raises(RankDeficiencyError, match="linearly dependent"):
            fit_mle(bad, seq)

    def test_zero_column_named_and_ridge_recovers(self, rng):
        seq, rs, stats = random_instance(rng, n_events=50)
        padded = np.concatenate([stats.values, np.zeros_like(stats.values[:, :, :1])], axis=2)
        bad = StatTensor(
            values=padded,
            labels=stats.labels + ("ghost_stat",),
            kinds=stats.kinds,
            risk_set=rs,
            event_positions=stats.event_positions,
            spec=stats.spec,
        )
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
        shuffled = StatTensor(
            values=stats.values[:, perm, :],
            labels=stats.labels,
            kinds=stats.kinds,
            risk_set=rs,
            event_positions=inv[stats.event_positions],
            spec=stats.spec,
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
