"""Log-likelihood, derivatives, and Newton MLE for the event-rate model.

The sequence likelihood is a product over events of (hazard of the realized
dyad) x (survival of every at-risk dyad over the waiting time); rates are
log-linear in the statistics. Because a dyad's rate is constant over each run
of the run-length design, the survival term is the sum over its distinct
states of the state's pooled exposure (the waiting time of its runs) x its
rate. The log-likelihood is concave, so Newton iterations with step halving
converge globally. The fit starts at the closed-form intercept-only MLE,
evaluates the rate kernel once per candidate point (an accepted candidate's
state weights give its gradient and Hessian), and stops, converged, on one
rule: the predicted gain of the next step is at the float resolution of the
log-likelihood.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .events import EventSequence
from .intervals import IntervalSpec
from .stats import StatisticKind, StatTensor

__all__ = [
    "ModelFit",
    "FitOptions",
    "LikelihoodOverflowError",
    "RankDeficiencyError",
    "log_rates",
    "event_derivatives",
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


MAX_ITER = 100
LINE_SEARCH_STEPS = 50  # candidates per line search; the step is halved after each rejection
FLOAT_FLOOR = 64 * np.finfo(np.float64).eps  # predicted gain, relative to max(1, |ll|), that ll cannot resolve
_JITTER_NOTE = "hessian factorization required a 1e-8 jitter"
_NEVER_REALIZED_NOTE = "column(s) at risk but never realized"
_ROW_BLOCK = 4096  # distinct states per float64 block of the design
_JSON_KEYS = {"beta_hat": "beta", "cov_hat": "cov"}  # the ModelFit fields stored under another key


@dataclass
class FitOptions:
    """``ridge`` >= 0 is added to the information in every solve and in the covariance."""

    ridge: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")


@dataclass
class ModelFit:
    """MLE of one stepwise model plus its normal posterior approximation.

    The Newton diagnostics are ``iterations``, ``halvings`` (rejected line
    search candidates over the whole fit), ``max_abs_grad`` (at ``beta_hat``)
    and ``stop``: "float_floor" for a converged fit (the predicted gain of the
    next Newton step is at the float resolution of ``loglik``), "stalled" (a
    line search found no improving step) or "max_iter" otherwise; the bag
    runner gives a model whose fit raised stop "error" and no ``max_abs_grad``.
    ``n_waic_points`` is the number of WAIC scoring points and
    ``n_high_p_waic`` counts those whose per-point p_waic exceeds 0.4, where
    that point's WAIC term is unreliable (Vehtari, Gelman & Gabry 2017); both
    are None for a fit that was not WAIC-scored.
    ``monotone`` tells whether some column is at risk but never realized.
    """

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
    halvings: int = 0
    max_abs_grad: float | None = None
    stop: str | None = None
    n_waic_points: int | None = None
    n_high_p_waic: int | None = None

    @property
    def jittered(self) -> bool:
        """Whether a Newton system needed the diagonal jitter to factor."""
        return _JITTER_NOTE in self.warnings

    @property
    def monotone(self) -> bool:
        """Whether some column is at risk but never realized (its MLE is -inf)."""
        return any(n.startswith(_NEVER_REALIZED_NOTE) for n in self.warnings)

    def to_json_dict(self) -> dict:
        """Every field, ``beta_hat`` as "beta" and ``cov_hat`` as "cov" (row-major)."""
        d = {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        d.update(
            spec=self.spec.to_json_dict() if self.spec is not None else None,
            kinds=[k.value for k in self.kinds],
            labels=list(self.labels),
            beta=[float(b) for b in self.beta_hat],
            cov=[float(c) for c in self.cov_hat.ravel()],
            warnings=list(self.warnings),
        )
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelFit":
        """The fit that ``to_json_dict`` wrote; a missing key raises KeyError."""
        v = {f.name: d[_JSON_KEYS.get(f.name, f.name)] for f in fields(cls)}
        P = v["n_params"]
        v.update(
            spec=IntervalSpec.from_json_dict(v["spec"]) if v["spec"] else None,
            kinds=tuple(StatisticKind(k) for k in v["kinds"]),
            labels=tuple(v["labels"]),
            beta_hat=np.asarray(v["beta_hat"], dtype=np.float64),
            cov_hat=np.asarray(v["cov_hat"], dtype=np.float64).reshape(P, P),
            warnings=tuple(v["warnings"]),
        )
        return cls(**v)


def _float_blocks(U: np.ndarray):
    """(rows, U[rows] cast to float64) for each block of ``_ROW_BLOCK`` rows,
    in one reused buffer that the caller may overwrite. The buffer is
    column-major, like a built design, so each column copies contiguously."""
    buf = np.empty((min(len(U), _ROW_BLOCK), U.shape[1]), order="F")
    for r0 in range(0, len(U), _ROW_BLOCK):
        rows = slice(r0, min(r0 + _ROW_BLOCK, len(U)))
        block = buf[: rows.stop - r0]
        np.copyto(block, U[rows])
        yield rows, block


def log_rates(stats: StatTensor, beta: np.ndarray) -> np.ndarray:
    """The rate kernel: the log-rate u . beta of every distinct state u (row
    of ``stats.rows``, cast to float64 one block at a time)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (stats.n_columns,):
        raise ValueError(f"beta must have shape ({stats.n_columns},), got {beta.shape}")
    out = np.empty(len(stats.rows))
    for rows, block in _float_blocks(stats.rows):
        np.matmul(block, beta, out=out[rows])
    return out


def _stops(stats: StatTensor) -> np.ndarray:
    """Each run's stop row: the next run's start, or M where the next run is
    a dyad's first (start 0) or there is none."""
    M = stats.n_events
    stop = np.append(stats.start[1:], stats.start.dtype.type(M))
    stop[stop == 0] = M
    return stop


def _constants(stats: StatTensor, seq: EventSequence) -> tuple[np.ndarray, np.ndarray]:
    """The per-fit constants of the likelihood: the pooled exposures W_u, the
    summed waiting times T[stop] - T[start] of the runs in state u (with
    T = (t0, times)), and s, the summed realized statistics (as float64)."""
    T = np.concatenate(([seq.t0], seq.times))
    W = np.bincount(stats.ids, weights=T[_stops(stats)] - T[stats.start], minlength=len(stats.rows))
    s = stats.rows[stats.realized].sum(axis=0, dtype=np.float64)
    return W, s


def _reduce(
    stats: StatTensor, W: np.ndarray, s: np.ndarray, beta: np.ndarray
) -> tuple[float, np.ndarray]:
    """The log-likelihood s . beta - sum_u W_u e_u and the state weights
    w_u = W_u e_u, the weight of state u in every derivative."""
    eta = log_rates(stats, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.multiply(W, np.exp(eta, out=eta), out=eta)
        return float(s @ beta - w.sum()), w


def _require_finite(value: float, stats: StatTensor, seq: EventSequence, beta: np.ndarray) -> None:
    """Raise LikelihoodOverflowError at the first event whose term (from
    ``event_derivatives`` at a zero covariance) is not finite."""
    if not math.isfinite(value):
        P = stats.n_columns
        terms = event_derivatives(stats, seq, beta, np.zeros((P, P)))[0]
        bad = np.flatnonzero(~np.isfinite(terms))
        raise LikelihoodOverflowError(int(bad[0]))


def _step_sums(stats: StatTensor, columns: Iterable[np.ndarray], n_columns: int) -> np.ndarray:
    """The (M, C) sums, over the runs in force at each event row, of
    ``n_columns`` per-state columns (each of length U). A column is added at
    its runs' start rows and taken off at their stop rows, one
    ``np.bincount`` each, and the differences are summed down the rows; no
    runs x columns array is formed. Non-finite values give non-finite sums
    from their first row on."""
    M = stats.n_events
    ids, starts, stops = (np.asarray(a, dtype=np.intp) for a in (stats.ids, stats.start, _stops(stats)))
    out = np.empty((M, n_columns))
    for c, column in enumerate(columns):
        w = column.take(ids)
        delta = np.bincount(starts, w, minlength=M + 1) - np.bincount(stops, w, minlength=M + 1)
        np.cumsum(delta[:M], out=out[:, c])
    return out


def event_derivatives(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray, cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-event terms l_m, gradients g_m (M, P) and curvatures tr(cov H_m)
    at ``beta``, with H_m = -dt_m sum e_u u u' over the runs in force at row m.

    They are the ``_step_sums`` of the P + 2 per-state columns
    e_u (1, u, u' cov u), with e_u = exp(u . beta): the total rate, the
    rate-weighted statistics and the rate-weighted quadratic forms. Each
    column is made as it is summed, and the quadratic forms are taken one
    float64 block of distinct states at a time. Overflow is returned as
    non-finite values, not raised."""
    U, P = stats.rows, stats.n_columns
    eta = log_rates(stats, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(eta)
        quad = np.empty(len(U))
        for rows, block in _float_blocks(U):
            quad[rows] = np.einsum("up,up->u", block @ cov, block)
        quad *= e
        columns = itertools.chain([e], (e * U[:, p] for p in range(P)), [quad])
        sums = _step_sums(stats, columns, P + 2)
        dt = np.diff(seq.times, prepend=seq.t0)
        terms = eta[stats.realized] - dt * sums[:, 0]
        grads = U[stats.realized] - dt[:, None] * sums[:, 1 : P + 1]
        return terms, grads, -dt * sums[:, P + 1]


def log_likelihood(stats: StatTensor, seq: EventSequence, beta: np.ndarray) -> float:
    """Sum over events of realized log-rate minus waiting-time x total rate;
    an overflow raises at its first event."""
    value = _reduce(stats, *_constants(stats, seq), beta)[0]
    _require_finite(value, stats, seq, beta)
    return value


def _derivatives(U: np.ndarray, s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient s - w . U and Hessian -(sqrt(w) U)'(sqrt(w) U) from the state
    weights of one ``_reduce``. The Hessian is summed over blocks of rows, so
    only one float64 block of the weighted design is held, and each block
    product is symmetric by construction. The gradient is summed one column
    at a time over all rows, so it does not depend on the block size."""
    hess = np.zeros((U.shape[1], U.shape[1]))
    for rows, block in _float_blocks(U):
        block *= np.sqrt(w[rows])[:, None]
        hess -= block.T @ block
    return s - np.array([w @ col for col in U.T]), hess


def grad_and_hessian(
    stats: StatTensor, seq: EventSequence, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic first and second derivatives of the log-likelihood. The Hessian
    is the negated rate-weighted second moment of the statistics, so it is
    negative semidefinite everywhere."""
    W, s = _constants(stats, seq)
    value, w = _reduce(stats, W, s, beta)
    _require_finite(value, stats, seq, beta)
    return _derivatives(stats.rows, s, w)


def _check_identifiable(info: np.ndarray, labels: tuple[str, ...]) -> None:
    """The information at a point whose only nonzero coefficient is the
    intercept's is a positive multiple of the waiting-time-weighted Gram
    matrix of the design: a zero diagonal is a zero column, a rank below P
    dependence."""
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


def _factor(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of A, and whether it needed the 1e-8 diagonal jitter."""
    for jitter in (0.0, 1e-8):
        try:
            return np.linalg.cholesky(A + jitter * np.eye(len(A))), jitter > 0
        except np.linalg.LinAlgError:
            if jitter:
                raise


def fit_mle(
    stats: StatTensor,
    seq: EventSequence,
    opts: FitOptions | None = None,
) -> ModelFit:
    """Newton MLE with step halving, from the intercept-only MLE.

    The start is beta_0 = log(M / sum_u W_u) with every other coefficient 0
    (beta = 0 when the total exposure is 0). With ridge = 0 a rank-deficient
    design is an error, found from the information at the start
    (identically-zero columns are named). The fit has one convergence test,
    the Newton decrement (Boyd & Vandenberghe 2004, section 9.5.1): it stops
    as converged, with stop "float_floor", when the predicted gain
    1/2 g'(ridge*I - H)^-1 g of the next step is at most ``FLOAT_FLOOR`` x
    max(1, |ll|). It stops unconverged when a line search finds no improving
    step among ``LINE_SEARCH_STEPS`` candidates, or after ``MAX_ITER``
    iterations. The rate kernel runs once per candidate point:
    the accepted candidate's state weights give its gradient and Hessian. Each
    Newton system ridge*I - H is factored once, retried with a 1e-8 jitter
    if it fails (recorded as a warning on the fit); the factor at the final
    beta gives the covariance. A column whose realized sum is 0 while its
    exposure sum_u W_u u_p is positive has its MLE at -inf; the fit names
    such columns in a warning on the fit and a RuntimeWarning, and leaves
    ``converged`` as the stopping rule decided it.
    """
    opts = opts or FitOptions()
    M, P = stats.n_events, stats.n_columns
    U = stats.rows
    if U.dtype.kind == "f" and not np.isfinite(U).all():
        raise ValueError("statistics design contains non-finite values")

    W, s = _constants(stats, seq)
    exposure = W.sum()
    beta = np.zeros(P)
    if exposure > 0.0:
        beta[0] = math.log(M / exposure)  # column 0 is the intercept
    ll, w = _reduce(stats, W, s, beta)
    _require_finite(ll, stats, seq, beta)
    grad, hess = _derivatives(U, s, w)
    # where s_p = 0 the gradient is minus the rate-weighted exposure w . u_p,
    # so a negative one marks a column at risk but never realized
    never_realized = np.flatnonzero((s == 0.0) & (grad < 0.0))
    if opts.ridge == 0.0:
        _check_identifiable(-hess, stats.labels)
    ridge = opts.ridge * np.eye(P)
    chol, jitter_used = _factor(ridge - hess)
    halvings = 0
    stop = "max_iter"
    for iters in range(1, MAX_ITER + 1):
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        if 0.5 * (grad @ step) <= FLOAT_FLOOR * max(1.0, abs(ll)):
            stop = "float_floor"
            break

        alpha = 1.0
        for _ in range(LINE_SEARCH_STEPS):
            cand = beta + alpha * step
            # an overflow gives -inf or nan and fails the comparison
            cand_ll, w = _reduce(stats, W, s, cand)
            if cand_ll >= ll:
                beta, ll = cand, cand_ll
                grad, hess = _derivatives(U, s, w)
                chol, jittered = _factor(ridge - hess)
                jitter_used |= jittered
                break
            alpha *= 0.5
            halvings += 1
        else:
            stop = "stalled"
            break

    notes = [_JITTER_NOTE] if jitter_used else []
    if never_realized.size:
        names = ", ".join(stats.labels[p] for p in never_realized)
        notes.append(f"{_NEVER_REALIZED_NOTE}: {names}; the MLE of each is -inf")
        warnings.warn(notes[-1], RuntimeWarning, stacklevel=2)
    converged = stop == "float_floor"
    if stop == "stalled":
        notes.append(f"newton stalled at iteration {iters}: the line search found no improving step")
    elif stop == "max_iter":
        notes.append(f"newton did not converge in {MAX_ITER} iterations")
    if not converged:
        warnings.warn(notes[-1], RuntimeWarning, stacklevel=2)

    cov = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(P)))
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
        halvings=halvings,
        max_abs_grad=float(np.max(np.abs(grad))),
        stop=stop,
    )
