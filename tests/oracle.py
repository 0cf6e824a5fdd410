"""Independent reference implementations used only by the tests.

Everything here recounts from scratch at every event time, straight from the
definitions, with no state carried across rows and none of the engine's
row-range machinery. Ages and window bounds use the same canonical float
expressions as the engine (t_row - t_event, and t_e - (t_row - t_e)), so
agreement is expected to be exact, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from remdecay.events import EventSequence, RiskSet
from remdecay.intervals import IntervalSpec
from remdecay.stats import StatisticKind, StatTensor


def runs_from_dense(
    values: np.ndarray,
    event_positions: np.ndarray,
    waits: np.ndarray,
    labels: tuple[str, ...],
    kinds: tuple = (),
    spec: IntervalSpec | None = None,
) -> StatTensor:
    """Run-length design of a dense values[m, dyad, column] tensor: each
    dyad's runs start at row 0 and wherever its statistic vector changes.
    The states are the distinct cells, told apart by ``np.unique``, so any
    real values work; ``waits[m]`` is row m's wait, and each cell (m, dyad)
    adds it to its state's exposure. ``event_positions[m]`` is the dyad
    of event m, as ``RiskSet.event_positions`` gives it."""
    M, D, P = values.shape
    by_dyad = values.swapaxes(0, 1)
    new = np.ones((D, M), dtype=bool)
    new[:, 1:] = (by_dyad[:, 1:] != by_dyad[:, :-1]).any(axis=2)
    dyad, start = np.nonzero(new)
    rows, cells = np.unique(by_dyad.reshape(D * M, P), axis=0, return_inverse=True)
    cells = cells.reshape(D, M)
    ids = cells[dyad, start]
    event_positions = np.asarray(event_positions)
    return StatTensor(
        rows=rows,
        ids=ids,
        start=start,
        realized=ids[event_runs(dyad, start, event_positions)],
        waits=waits,
        exposure=np.bincount(cells.ravel(), weights=np.tile(waits, D), minlength=len(rows)),
        labels=labels,
        kinds=kinds,
        spec=spec,
    )


def event_runs(dyad: np.ndarray, start: np.ndarray, event_positions: np.ndarray) -> np.ndarray:
    """The run of each event's own dyad at the event's row, for runs sorted
    by (dyad, start)."""
    M = event_positions.size
    keys = dyad * (M + 1) + start
    return np.searchsorted(keys, event_positions * (M + 1) + np.arange(M), side="right") - 1


def run_bounds(stats: StatTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dyad, start, stop) of every run: a run whose start is 0 begins the
    next dyad, and a run stops where the next run of its dyad starts."""
    first = stats.start == 0
    dyad = np.cumsum(first) - 1
    stop = np.append(stats.start[1:], 0)
    stop[np.append(first[1:], True)] = stats.n_events
    return dyad, stats.start, stop


def to_dense(stats: StatTensor) -> np.ndarray:
    """The (M, D, P) tensor values[m, dyad, column] that a design encodes;
    each of the D dyads has one run that starts at row 0."""
    M, D = stats.n_events, np.count_nonzero(stats.start == 0)
    _, start, stop = run_bounds(stats)
    dense = np.repeat(stats.rows[stats.ids], stop - start, axis=0)
    return np.ascontiguousarray(dense.reshape(D, M, -1).swapaxes(0, 1))


def one_row_per_run(stats: StatTensor, seq: EventSequence) -> StatTensor:
    """The same design with every run holding its own row (ids 0..R-1) and its
    own exposure T[stop] - T[start], with T = (t0, times), so the likelihood
    sums over runs instead of pooling runs that share a state."""
    dyad, start, stop = run_bounds(stats)
    T = np.concatenate(([seq.t0], seq.times))
    runs = event_runs(dyad, start, RiskSet(seq.n_actors).event_positions(seq))
    return replace(stats, rows=stats.rows[stats.ids], ids=np.arange(stats.ids.size), realized=runs,
                   exposure=T[stop] - T[start])


def rescan_stepwise_stats(
    seq: EventSequence, rs: RiskSet, kinds, spec: IntervalSpec
) -> StatTensor:
    """Full-history recount of the interval statistics at every event time."""
    kinds = tuple(StatisticKind(k) for k in kinds)
    times, S, R = seq.times, seq.senders, seq.receivers
    N, M, D, K = seq.n_actors, len(seq), len(rs), spec.size
    gamma = spec.gamma
    values = np.zeros((M, D, 1 + K * len(kinds)))
    values[:, :, 0] = 1.0
    dyad_class = S * N + R

    for m in range(M):
        t = times[m]
        # event e has crossed bound g at row m when t > times[e] + g
        crossed = t > times[:m, None] + gamma
        in_h = ~crossed[:, -1]
        k_of = crossed.sum(axis=1)
        # one table per row: counts by (sender, receiver, interval)
        sel = np.flatnonzero(in_h)
        tab = np.bincount(
            dyad_class[sel] * K + k_of[sel], minlength=N * N * K
        ).reshape(N, N, K)
        out_k = tab.sum(axis=1)  # events sent by actor a, per interval
        in_k = tab.sum(axis=0)  # events received by actor a, per interval

        col = 1
        for kind in kinds:
            if kind is StatisticKind.INERTIA:
                block = tab[rs.senders, rs.receivers, :]
            elif kind is StatisticKind.RECIPROCITY:
                block = tab[rs.receivers, rs.senders, :]
            elif kind is StatisticKind.INDEGREE_SENDER:
                block = in_k[rs.senders, :]
            elif kind is StatisticKind.OUTDEGREE_SENDER:
                block = out_k[rs.senders, :]
            elif kind is StatisticKind.INDEGREE_RECEIVER:
                block = in_k[rs.receivers, :]
            elif kind is StatisticKind.OUTDEGREE_RECEIVER:
                block = out_k[rs.receivers, :]
            else:
                block = _closure_row(seq, rs, kind, m, K, k_of, in_h)
            values[m, :, col : col + K] = block
            col += K

    return runs_from_dense(
        values,
        rs.event_positions(seq),
        np.diff(times, prepend=seq.t0),
        labels=("intercept",)
        + tuple(f"{k.value}_k{j + 1}" for k in kinds for j in range(K)),
        kinds=kinds,
        spec=spec,
    )


def _closure_row(seq, rs, kind, m, K, k_of, in_h):
    """Closure counts at row m: for every in-horizon outer event, scan the
    whole earlier history for inner partners whose activation time
    2 t_outer - t_inner the row has reached."""
    times, S, R = seq.times, seq.senders, seq.receivers
    t = times[m]
    block = np.zeros((len(rs), K))
    for e in range(m):
        if not in_h[e]:
            continue
        te = times[e]
        prior = np.arange(m)
        window = (2 * te - times[prior] <= t) & (times[prior] < te)
        partner = R[prior] == S[e]  # inner receiver must equal outer sender
        for e_star in prior[window & partner]:
            if kind is StatisticKind.TRANSITIVITY:
                i, j = int(S[e_star]), int(R[e])
            else:  # cyclic: the pattern runs j -> l -> i before (i, j)
                i, j = int(R[e]), int(S[e_star])
            if i == j:
                continue
            block[rs.index_of(i, j), k_of[e]] += 1
    return block


def brute_triad_pairs(seq, rs, horizon):
    """Every closure pair by brute force, as (outer, act_row, positions).

    For each outer event e and each earlier event i whose receiver is e's
    sender and whose sender is not e's receiver, scan every row for the first
    one at or after the activation time 2 t_e - t_i. The pair is kept when
    that row has not passed t_e + horizon. Pairs come out by outer event,
    then by inner event."""
    times, S, R = seq.times, seq.senders, seq.receivers
    outer, act, trans, cyc = [], [], [], []
    for e in range(len(seq)):
        for i in range(e):
            if R[i] != S[e] or S[i] == R[e]:
                continue
            rows = [m for m in range(len(seq)) if times[m] >= 2 * times[e] - times[i]]
            if not rows or times[rows[0]] > times[e] + horizon:
                continue
            outer.append(e)
            act.append(rows[0])
            trans.append(rs.index_of(int(S[i]), int(R[e])))
            cyc.append(rs.index_of(int(R[e]), int(S[i])))
    positions = {StatisticKind.TRANSITIVITY: trans, StatisticKind.CYCLIC: cyc}
    return np.array(outer, dtype=np.int64), np.array(act, dtype=np.int64), {
        kind: np.array(pos, dtype=np.int64) for kind, pos in positions.items()
    }


def loop_stepwise_stats(seq, rs, kinds, spec):
    """Plain-loop recount for tiny cases: no numpy in the counting path."""
    kinds = tuple(StatisticKind(k) for k in kinds)
    times, S, R = seq.times, seq.senders, seq.receivers
    M, D, K = len(seq), len(rs), spec.size
    gamma = list(spec.gamma)
    values = np.zeros((M, D, 1 + K * len(kinds)))
    values[:, :, 0] = 1.0

    def bucket(t, te):
        for k, g in enumerate(gamma):
            if t <= te + g:
                return k
        return None

    for m in range(M):
        t = times[m]
        for d in range(D):
            i, j = int(rs.senders[d]), int(rs.receivers[d])
            col = 1
            for kind in kinds:
                for e in range(m):
                    k = bucket(t, times[e])
                    if k is None:
                        continue
                    se, re = int(S[e]), int(R[e])
                    if kind is StatisticKind.INERTIA:
                        hit = (se, re) == (i, j)
                    elif kind is StatisticKind.RECIPROCITY:
                        hit = (se, re) == (j, i)
                    elif kind is StatisticKind.INDEGREE_SENDER:
                        hit = re == i
                    elif kind is StatisticKind.OUTDEGREE_SENDER:
                        hit = se == i
                    elif kind is StatisticKind.INDEGREE_RECEIVER:
                        hit = re == j
                    elif kind is StatisticKind.OUTDEGREE_RECEIVER:
                        hit = se == j
                    else:
                        hit = False
                        if kind is StatisticKind.TRANSITIVITY:
                            outer_ok = (re == j) and (se != i) and (se != j)
                        else:
                            outer_ok = (re == i) and (se != i) and (se != j)
                        if outer_ok:
                            inner = 0
                            for e2 in range(m):
                                if not (2 * times[e] - times[e2] <= t and times[e2] < times[e]):
                                    continue
                                if kind is StatisticKind.TRANSITIVITY:
                                    if S[e2] == i and R[e2] == se:
                                        inner += 1
                                else:
                                    if S[e2] == j and R[e2] == se:
                                        inner += 1
                            values[m, d, col + k] += inner
                    if hit:
                        values[m, d, col + k] += 1
                col += K
    return values


def loop_continuous_stats(seq, rs, kinds, decay_per_kind):
    """Plain-loop continuous recount: each qualifying event adds decay(age)."""
    kinds = tuple(StatisticKind(k) for k in kinds)
    times, S, R = seq.times, seq.senders, seq.receivers
    M, D = len(seq), len(rs)
    values = np.zeros((M, D, 1 + len(kinds)))
    values[:, :, 0] = 1.0
    for m in range(M):
        t = times[m]
        for d in range(D):
            i, j = int(rs.senders[d]), int(rs.receivers[d])
            for c, kind in enumerate(kinds):
                decay = decay_per_kind[kind]
                total = 0.0
                for e in range(m):
                    age = t - times[e]
                    se, re = int(S[e]), int(R[e])
                    if kind is StatisticKind.INERTIA:
                        w = float((se, re) == (i, j))
                    elif kind is StatisticKind.RECIPROCITY:
                        w = float((se, re) == (j, i))
                    elif kind is StatisticKind.INDEGREE_SENDER:
                        w = float(re == i)
                    elif kind is StatisticKind.OUTDEGREE_SENDER:
                        w = float(se == i)
                    elif kind is StatisticKind.INDEGREE_RECEIVER:
                        w = float(re == j)
                    elif kind is StatisticKind.OUTDEGREE_RECEIVER:
                        w = float(se == j)
                    elif kind is StatisticKind.TRANSITIVITY:
                        w = 0.0
                        if re == j and se not in (i, j):
                            w = float(
                                sum(
                                    1
                                    for e2 in range(m)
                                    if 2 * times[e] - times[e2] <= t and times[e2] < times[e]
                                    and S[e2] == i
                                    and R[e2] == se
                                )
                            )
                    else:
                        w = 0.0
                        if re == i and se not in (i, j):
                            w = float(
                                sum(
                                    1
                                    for e2 in range(m)
                                    if 2 * times[e] - times[e2] <= t and times[e2] < times[e]
                                    and S[e2] == j
                                    and R[e2] == se
                                )
                            )
                    if w:
                        total += w * float(decay(age))
                values[m, d, 1 + c] = total
    return values


def loop_log_density(values, event_positions, times, t0, beta, first, last):
    """Per-event log factors summed over 1-based events first..last, by
    explicit loops over dyads (used by the predictive-density micro oracle)."""
    total = 0.0
    for j in range(first, last + 1):
        row = j - 1
        lam = [math.exp(float(np.dot(values[row, d], beta))) for d in range(values.shape[1])]
        dt = times[row] - (times[row - 1] if row > 0 else t0)
        total += math.log(lam[event_positions[row]]) - dt * sum(lam)
    return total


def loop_window_derivatives(values, event_positions, times, t0, beta, first, last):
    """(l, g, H): the log density, gradient and Hessian at ``beta`` of the
    1-based events first..last, summed by explicit loops over dyads."""
    P = values.shape[2]
    total, grad, hess = 0.0, np.zeros(P), np.zeros((P, P))
    for j in range(first, last + 1):
        row = j - 1
        dt = times[row] - (times[row - 1] if row > 0 else t0)
        grad += values[row, event_positions[row]]
        for d in range(values.shape[1]):
            u = values[row, d]
            lam = math.exp(float(np.dot(u, beta)))
            if d == event_positions[row]:
                total += math.log(lam)
            total -= dt * lam
            grad -= dt * lam * u
            hess -= dt * lam * np.outer(u, u)
    return total, grad, hess


def oracle_waic(stats, seq, draws, burn_in, ahead):
    """(lpd, p_waic) of the sampled WAIC: the summed log mean density and
    sample variance, over ``draws`` (B, P), of each scoring point's window
    log density. The densities come from the dense design; each is what
    ``loop_log_density`` gives for events i+1..i+ahead, i = burn_in..M-ahead."""
    dense = to_dense(stats)
    M = len(seq)
    positions = RiskSet(seq.n_actors).event_positions(seq)
    dt = np.diff(seq.times, prepend=seq.t0)
    eta = np.einsum("mdp,bp->mdb", dense, draws)
    terms = eta[np.arange(M), positions] - dt[:, None] * np.exp(eta).sum(axis=1)
    lds = sum(terms[burn_in + a : M - ahead + 1 + a] for a in range(ahead))
    mx = lds.max(axis=1, keepdims=True)
    lpd = float(np.sum(np.log(np.exp(lds - mx).mean(axis=1)) + mx[:, 0]))
    return lpd, float(lds.var(axis=1, ddof=1).sum())


def random_sequence(rng: np.random.Generator, n_actors: int, n_events: int) -> EventSequence:
    gaps = rng.exponential(scale=float(rng.uniform(0.2, 2.0)), size=n_events)
    times = np.cumsum(gaps)
    senders = rng.integers(0, n_actors, size=n_events)
    shift = rng.integers(1, n_actors, size=n_events)
    receivers = (senders + shift) % n_actors
    return EventSequence(times, senders, receivers, n_actors)


def late_start(seq: EventSequence, rng: np.random.Generator) -> EventSequence:
    """The same events observed from a t0 > 0, drawn in (0.1, 0.9) x times[0],
    so the first wait times[0] - t0 is not times[0]."""
    t0 = float(rng.uniform(0.1, 0.9) * seq.times[0])
    return EventSequence(seq.times, seq.senders, seq.receivers, seq.n_actors, t0=t0)
