import numpy as np
import pytest

from remdecay.decay import WeibullDecay
from remdecay.events import EventSequence, RiskSet
from remdecay.sim import SimConfig, simulate
from remdecay.stats import StatisticKind

SIX_KINDS = (
    StatisticKind.INERTIA,
    StatisticKind.RECIPROCITY,
    StatisticKind.INDEGREE_RECEIVER,
    StatisticKind.OUTDEGREE_SENDER,
    StatisticKind.TRANSITIVITY,
    StatisticKind.CYCLIC,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def tiny_seq():
    # 6 events, 3 actors, hand-written times
    times = [1.0, 2.5, 3.0, 4.75, 6.0, 7.5]
    senders = [0, 1, 0, 2, 1, 0]
    receivers = [1, 0, 2, 1, 2, 1]
    return EventSequence(times, senders, receivers, 3)


@pytest.fixture
def tiny_rs(tiny_seq):
    return RiskSet(tiny_seq.n_actors)


@pytest.fixture(scope="session")
def wide_seq():
    """3000 events among 10 actors with inertia and reciprocity effects: at
    K = 5 its six-kind design has about 170k runs, most of them from the
    degree kinds."""
    effects = {
        StatisticKind.INERTIA: WeibullDecay(scale=4.0, shape=1.0, peak=0.6),
        StatisticKind.RECIPROCITY: WeibullDecay(scale=2.0, shape=1.0, peak=0.3),
    }
    return simulate(SimConfig(n_actors=10, beta0=-3.9, effects=effects, horizon=20.0,
                              n_events=3000, seed=3))
