"""Memory-decay estimation for relational event networks.

Fit relational event models whose endogenous effects are constant on
transpired-time intervals, average a randomized bag of such stepwise models
with BIC or WAIC weights, and read off a semi-continuous estimate of how an
effect decays with the age of past events. A thinning-based simulator
provides ground-truth sequences for recovery checks.
"""

from .bma import (
    ModelBag,
    PosteriorDraws,
    PosteriorTrend,
    WaicConfig,
    bag_weights,
    bic_weights,
    extract_trend,
    fit_bag,
    hpd_interval,
    kde_mode,
    sample_posterior,
    waic_elpd,
)
from .decay import (
    CompositeDecay,
    DecayError,
    DecayFn,
    LinearDecay,
    StepwiseDecay,
    WeibullDecay,
    decay_from_json,
    decay_to_json,
    half_life,
)
from .events import (
    Event,
    EventDataError,
    EventSequence,
    RiskSet,
    build_risk_set,
    load_events,
    spread_ties,
)
from .intervals import (
    IntervalSpec,
    IntervalSpecError,
    bag_from_json,
    bag_to_json,
    equal_spec,
    generate_interval_bag,
    locate_interval,
    locate_intervals,
)
from .likelihood import (
    FitOptions,
    LikelihoodOverflowError,
    ModelFit,
    RankDeficiencyError,
    fit_mle,
    grad_and_hessian,
    log_likelihood,
)
from .sim import SimConfig, SimulationError, simulate
from .stats import (
    StatTensor,
    StatisticKind,
    TriadPairs,
    build_triad_pairs,
    compute_stepwise_stats,
)

__version__ = "0.1.0"
