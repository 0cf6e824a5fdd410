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
    "event_terms",
    "event_log_densities",
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


TOL = 1e-10  # relative log-likelihood change at convergence
GRAD_TOL = 1e-6  # max |gradient| at convergence
MAX_ITER = 100
_DRAW_BLOCK = 8_000_000  # linear-predictor entries per block of draws


@dataclass
class FitOptions:
    """``ridge`` >= 0 is added to the information in every solve and in the covariance."""

    ridge: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")


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


def event_terms(
    stats: StatTensor, seq: EventSequence, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rate kernel: per-event log-likelihood terms at ``betas``.

    ``betas`` is one vector (P,) or B columns (P, B); a column axis carries
    through every output. Returns ``(terms, rates, scale)``: terms[m] is the
    realized log-rate minus dt_m x the total rate, rates = exp(eta - max_d eta)
    and scale[m] = dt_m x exp(max_d eta), so rates x scale is dt_m x lambda_md.
    Overflow is returned as non-finite values, not raised.
    """
    betas = np.asarray(betas, dtype=np.float64)
    U = stats.values
    M, D, P = U.shape
    if betas.ndim not in (1, 2) or betas.shape[0] != P:
        raise ValueError(f"betas must have shape ({P},) or ({P}, B), got {betas.shape}")
    dt = np.diff(seq.times, prepend=seq.t0)
    if betas.ndim == 1:
        eta = U @ betas
    else:
        eta = (U.reshape(M * D, P) @ betas).reshape(M, D, -1)
        dt = dt[:, None]
    realized = eta[np.arange(M), stats.event_positions]
    mx = eta.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        eta -= mx[:, None]
        rates = np.exp(eta, out=eta)
        peak = np.exp(mx)
        terms = realized - dt * (peak * rates.sum(axis=1))
        scale = dt * peak
    return terms, rates, scale


def _finite_sum(terms: np.ndarray) -> float:
    bad = ~np.isfinite(terms)
    if bad.any():
        raise LikelihoodOverflowError(int(np.flatnonzero(bad)[0]))
    return float(terms.sum())


def log_likelihood(stats: StatTensor, seq: EventSequence, beta: np.ndarray) -> float:
    """Sum over events of realized log-rate minus waiting-time x total rate."""
    return _finite_sum(event_terms(stats, seq, beta)[0])


def event_log_densities(stats: StatTensor, seq: EventSequence, draws: np.ndarray) -> np.ndarray:
    """(M, B) per-event log densities under each row of ``draws`` (B, P),
    evaluated in blocks of draws that bound the working set near 64 MB."""
    draws = np.asarray(draws, dtype=np.float64)
    M, D, _ = stats.values.shape
    out = np.empty((M, draws.shape[0]))
    chunk = max(1, _DRAW_BLOCK // max(M * D, 1))
    for b0 in range(0, draws.shape[0], chunk):
        out[:, b0 : b0 + chunk] = event_terms(stats, seq, draws[b0 : b0 + chunk].T)[0]
    return out


def _value_grad_hess(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood with its analytic derivatives in one pass."""
    terms, rates, scale = event_terms(stats, seq, beta)
    value = _finite_sum(terms)
    U = stats.values
    M, _, P = U.shape
    U_flat = U.reshape(-1, P)
    # w[m, d] = dt_m * lambda_md weights every derivative term
    w_flat = np.multiply(rates, scale[:, None], out=rates).reshape(-1)
    grad = U[np.arange(M), stats.event_positions, :].sum(axis=0) - w_flat @ U_flat
    hess = -((U_flat * w_flat[:, None]).T @ U_flat)
    return value, grad, 0.5 * (hess + hess.T)


def grad_and_hessian(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic first and second derivatives of the log-likelihood. The Hessian
    is the negated rate-weighted second moment of the statistics, so it is
    negative semidefinite everywhere."""
    _, grad, hess = _value_grad_hess(stats, seq, beta)
    return grad, hess


def _check_identifiable(info: np.ndarray, labels: tuple[str, ...]) -> None:
    """The information at beta = 0 is the waiting-time-weighted Gram matrix of
    the design: a zero diagonal is a zero column, a rank below P dependence."""
    zeros = np.flatnonzero(np.diag(info) == 0.0)
    if zeros.size:
        names = ", ".join(labels[p] for p in zeros)
        raise RankDeficiencyError(
            f"statistic column(s) identically zero: {names}; drop them or set ridge > 0"
        )
    eig = np.linalg.eigvalsh(info)
    if np.sum(eig > eig[-1] * 1e-12 * eig.size) < eig.size:
        raise RankDeficiencyError(
            "statistic columns are linearly dependent; the MLE is not unique "
            "(drop redundant columns or set ridge > 0)"
        )


def _factor(A: np.ndarray) -> tuple[tuple[np.ndarray, bool], bool]:
    """Cholesky factor of A, and whether it needed the 1e-8 diagonal jitter."""
    for jitter in (0.0, 1e-8):
        try:
            return scipy.linalg.cho_factor(A + jitter * np.eye(len(A)), lower=True), jitter > 0
        except np.linalg.LinAlgError:
            if jitter:
                raise


def fit_mle(
    stats: StatTensor,
    seq: EventSequence,
    opts: FitOptions | None = None,
) -> ModelFit:
    """Newton MLE with step halving, from beta = 0.

    Convergence requires both a relative log-likelihood change below ``TOL``
    and a max absolute gradient below ``GRAD_TOL``. With ridge = 0 a
    rank-deficient design is an error (identically-zero columns are named).
    Each Newton system ridge*I - H is factored once, retried with a 1e-8
    jitter if it fails (recorded as a warning on the fit); the factor at the
    final beta gives the covariance.
    """
    opts = opts or FitOptions()
    M, _, P = stats.values.shape
    if not np.isfinite(stats.values).all():
        raise ValueError("statistics tensor contains non-finite values")

    beta = np.zeros(P)
    ll, grad, hess = _value_grad_hess(stats, seq, beta)
    if opts.ridge == 0.0:
        _check_identifiable(-hess, stats.labels)
    ridge = opts.ridge * np.eye(P)
    chol, jitter_used = _factor(ridge - hess)
    converged = False
    rel = np.inf
    for iters in range(1, MAX_ITER + 1):
        if rel < TOL and np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        step = scipy.linalg.cho_solve(chol, grad)

        alpha = 1.0
        for _ in range(50):
            cand = beta + alpha * step
            # the same per-event sum as ll; an overflow sums to -inf or nan and fails
            cand_ll = float(event_terms(stats, seq, cand)[0].sum())
            if cand_ll >= ll:
                rel = abs(cand_ll - ll) / max(1.0, abs(cand_ll))
                beta = cand
                ll, grad, hess = _value_grad_hess(stats, seq, beta)
                chol, jittered = _factor(ridge - hess)
                jitter_used |= jittered
                break
            alpha *= 0.5
        else:
            # no improving step: stationary up to floating-point noise
            rel = 0.0

    notes = ["hessian factorization required a 1e-8 jitter"] if jitter_used else []
    if not converged:
        notes.append(f"newton did not converge in {MAX_ITER} iterations")
        warnings.warn(notes[-1], RuntimeWarning, stacklevel=2)

    cov = scipy.linalg.cho_solve(chol, np.eye(P))
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
