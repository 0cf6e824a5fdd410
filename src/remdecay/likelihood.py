"""Log-likelihood, derivatives, and Newton MLE for the event-rate model.

The sequence likelihood is a product over events of (hazard of the realized
dyad) x (survival of every at-risk dyad over the waiting time); rates are
log-linear in the statistics tensor. The log-likelihood is concave, so
Newton iterations with step halving from beta = 0 converge globally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .events import EventSequence
from .intervals import IntervalSpec
from .stats import StatisticKind, StatTensor

__all__ = [
    "ModelFit",
    "FitOptions",
    "LikelihoodOverflowError",
    "RankDeficiencyError",
    "ConvergenceError",
    "log_likelihood",
    "grad_and_hessian",
    "fit_mle",
]


class LikelihoodOverflowError(FloatingPointError):
    def __init__(self, m: int):
        super().__init__(f"rate sum overflowed at event {m}; rescale or bound beta")
        self.event_index = m


class RankDeficiencyError(np.linalg.LinAlgError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass
class FitOptions:
    tol: float = 1e-10
    grad_tol: float = 1e-6
    max_iter: int = 100
    ridge: float = 0.0


@dataclass
class ModelFit:
    """MLE of one stepwise model plus its normal posterior approximation."""

    spec: IntervalSpec | None
    kinds: tuple[StatisticKind, ...]
    labels: tuple[str, ...]
    beta_hat: np.ndarray
    cov_hat: np.ndarray
    loglik: float
    n_params: int
    n_events: int
    bic: float
    waic: float | None = None
    converged: bool = True
    iterations: int = 0
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict() if self.spec is not None else None,
            "kinds": [k.value for k in self.kinds],
            "labels": list(self.labels),
            "beta": [float(b) for b in self.beta_hat],
            "cov": [float(c) for c in self.cov_hat.ravel()],
            "loglik": self.loglik,
            "n_params": self.n_params,
            "n_events": self.n_events,
            "bic": self.bic,
            "waic": self.waic,
            "converged": self.converged,
            "iterations": self.iterations,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelFit":
        P = d["n_params"]
        return cls(
            spec=IntervalSpec.from_json_dict(d["spec"]) if d["spec"] else None,
            kinds=tuple(StatisticKind(k) for k in d["kinds"]),
            labels=tuple(d["labels"]),
            beta_hat=np.asarray(d["beta"], dtype=np.float64),
            cov_hat=np.asarray(d["cov"], dtype=np.float64).reshape(P, P),
            loglik=d["loglik"],
            n_params=P,
            n_events=d["n_events"],
            bic=d["bic"],
            waic=d.get("waic"),
            converged=d["converged"],
            iterations=d["iterations"],
            warnings=tuple(d.get("warnings", ())),
        )


def _waiting_times(seq: EventSequence) -> np.ndarray:
    return np.diff(seq.times, prepend=seq.t0)


def log_likelihood(stats: StatTensor, seq: EventSequence, beta: np.ndarray) -> float:
    """Sum over events of realized log-rate minus waiting-time x total rate."""
    beta = np.asarray(beta, dtype=np.float64)
    U = stats.values
    M = U.shape[0]
    if beta.shape != (U.shape[2],):
        raise ValueError(f"beta must have length {U.shape[2]}, got {beta.shape}")
    eta = U @ beta
    realized = eta[np.arange(M), stats.event_positions]
    mx = eta.max(axis=1)
    with np.errstate(over="ignore"):
        lam_sum = np.exp(mx) * np.exp(eta - mx[:, None]).sum(axis=1)
        terms = realized - _waiting_times(seq) * lam_sum
    bad = ~np.isfinite(terms)
    if bad.any():
        raise LikelihoodOverflowError(int(np.flatnonzero(bad)[0]))
    return float(terms.sum())


def _value_grad_hess(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood with its analytic derivatives in one pass."""
    beta = np.asarray(beta, dtype=np.float64)
    U = stats.values
    M, _, P = U.shape
    eta = U @ beta
    realized_eta = eta[np.arange(M), stats.event_positions]
    mx = eta.max(axis=1)
    dt = _waiting_times(seq)
    with np.errstate(over="ignore"):
        eta -= mx[:, None]
        lam_scaled = np.exp(eta, out=eta)
        # w[m, d] = dt_m * lambda_d: survival part of the value and the
        # weight of every derivative term
        w = lam_scaled * (dt * np.exp(mx))[:, None]
        value = float(realized_eta.sum() - w.sum())
    if not np.isfinite(w).all():
        bad = int(np.flatnonzero(~np.isfinite(w).all(axis=1))[0])
        raise LikelihoodOverflowError(bad)
    realized = U[np.arange(M), stats.event_positions, :]
    U_flat = U.reshape(-1, P)
    w_flat = w.reshape(-1)
    grad = realized.sum(axis=0) - w_flat @ U_flat
    WU = U_flat * w_flat[:, None]
    hess = -(WU.T @ U_flat)
    hess = 0.5 * (hess + hess.T)
    return value, grad, hess


def grad_and_hessian(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic first and second derivatives of the log-likelihood.

    The Hessian is the negated rate-weighted second moment of the statistics,
    so it is negative semidefinite everywhere.
    """
    _, grad, hess = _value_grad_hess(stats, seq, beta)
    return grad, hess


def _zero_columns(U: np.ndarray) -> list[int]:
    return [p for p in range(U.shape[2]) if not U[:, :, p].any()]


def _design_rank(U: np.ndarray) -> int:
    flat = U.reshape(-1, U.shape[2])
    gram = flat.T @ flat
    eig = np.linalg.eigvalsh(gram)
    return int(np.sum(eig > max(eig[-1], 1.0) * 1e-12 * U.shape[2]))


def _chol_inverse(A: np.ndarray) -> np.ndarray:
    c, low = scipy.linalg.cho_factor(A, lower=True)
    return scipy.linalg.cho_solve((c, low), np.eye(A.shape[0]))


def fit_mle(
    stats: StatTensor,
    seq: EventSequence,
    opts: FitOptions | None = None,
) -> ModelFit:
    """Newton MLE with step halving, from beta = 0.

    Convergence requires both a relative log-likelihood change below
    ``opts.tol`` and a max absolute gradient below ``opts.grad_tol``. With
    ridge = 0 a rank-deficient design is an error (identically-zero columns
    are named); ridge > 0 regularizes the Newton solves and the covariance.
    A failed factorization with ridge = 0 is retried once with a 1e-8 jitter
    and recorded as a warning on the fit.
    """
    opts = opts or FitOptions()
    U = stats.values
    M, _, P = U.shape
    if not np.isfinite(U).all():
        raise ValueError("statistics tensor contains non-finite values")
    notes: list[str] = []

    if opts.ridge == 0.0:
        zeros = _zero_columns(U)
        if zeros:
            names = ", ".join(stats.labels[p] for p in zeros)
            raise RankDeficiencyError(
                f"statistic column(s) identically zero: {names}; drop them or set ridge > 0"
            )
        if _design_rank(U) < P:
            raise RankDeficiencyError(
                "statistic columns are linearly dependent; the MLE is not unique "
                "(drop redundant columns or set ridge > 0)"
            )

    beta = np.zeros(P)
    ll, grad, hess = _value_grad_hess(stats, seq, beta)
    jitter_used = False
    converged = False
    iters = 0
    rel = np.inf
    for iters in range(1, opts.max_iter + 1):
        if rel < opts.tol and np.max(np.abs(grad)) < opts.grad_tol:
            converged = True
            break
        A = -hess
        if opts.ridge > 0.0:
            A = A + opts.ridge * np.eye(P)
        try:
            c = scipy.linalg.cho_factor(A, lower=True)
        except np.linalg.LinAlgError:
            if opts.ridge > 0.0:
                raise
            jitter_used = True
            c = scipy.linalg.cho_factor(A + 1e-8 * np.eye(P), lower=True)
        step = scipy.linalg.cho_solve(c, grad)

        alpha = 1.0
        accepted = False
        for _ in range(50):
            cand = beta + alpha * step
            try:
                cand_ll = log_likelihood(stats, seq, cand)
            except LikelihoodOverflowError:
                cand_ll = -np.inf
            if cand_ll >= ll:
                accepted = True
                break
            alpha *= 0.5
        if accepted:
            rel = abs(cand_ll - ll) / max(1.0, abs(cand_ll))
            beta = cand
            ll, grad, hess = _value_grad_hess(stats, seq, beta)
        else:
            # no improving step: stationary up to floating-point noise
            rel = 0.0

    if jitter_used:
        notes.append("hessian factorization required a 1e-8 jitter")
    if not converged:
        notes.append(f"newton did not converge in {opts.max_iter} iterations")
        warnings.warn(notes[-1], RuntimeWarning, stacklevel=2)

    A = -hess + max(opts.ridge, 0.0) * np.eye(P)
    try:
        cov = _chol_inverse(A)
    except np.linalg.LinAlgError:
        jitter_used = True
        notes.append("covariance required a 1e-8 jitter")
        cov = _chol_inverse(A + 1e-8 * np.eye(P))
    cov = 0.5 * (cov + cov.T)

    return ModelFit(
        spec=stats.spec,
        kinds=stats.kinds,
        labels=stats.labels,
        beta_hat=beta,
        cov_hat=cov,
        loglik=ll,
        n_params=P,
        n_events=M,
        bic=-2.0 * ll + P * math.log(M),
        converged=converged,
        iterations=iters,
        warnings=tuple(notes),
    )
