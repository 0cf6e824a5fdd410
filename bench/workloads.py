"""Workload definitions for the remdecay benchmark.

Each workload is one simulated sequence plus one interval bag with
K in {3, 4, 5} and horizon 20. The sequence, the bag and every sampling seed
derive from the benchmark's ``--seed``, so one seed always gives the same
inputs. The reasons each workload exists are in ``predictions.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

# Exponential decay truths, weak enough that every seed simulates all 3000
# events. The README's inertia peak=1.2 is supercritical; with 10 actors and
# a baseline near -3.9, peak 0.8 stopped early on 2 of 30 seeds and 0.7 on 1
# of 80, while 0.6 ran 300 of 300. With 30 actors, adding reciprocity at peak
# 0.4 stopped early on 1 of 60 seeds; at 0.3 it ran 200 of 200.
INERTIA = {"variant": "weibull", "scale": 4.0, "shape": 1.0, "peak": 0.6}
RECIPROCITY = {"variant": "weibull", "scale": 2.0, "shape": 1.0, "peak": 0.3}

SIX_KINDS = (
    "inertia",
    "reciprocity",
    "indegree_receiver",
    "outdegree_sender",
    "transitivity_closure",
    "cyclic_closure",
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_actors: int
    effects: dict
    kinds: tuple[str, ...]
    weighting: str
    per_kind_count: int
    jobs: int
    # Pooled trend RMSE above which a run's estimate counts as wrong: about
    # 1.7 times the largest value seen over 13 to 15 seeds.
    rmse_bound: float | None
    n_events: int = 3000
    beta0: float = -3.9
    k_values: tuple[int, ...] = (3, 4, 5)
    min_size: float = 0.05
    gamma_max: float = 20.0
    waic_draws: int = 200
    trend_draws: int = 10_000
    grid_size: int = 101
    setup_imports: int = 3

    @property
    def n_models(self) -> int:
        return len(self.k_values) * (2 * self.per_kind_count + 1)

    def seeds(self, seed: int) -> dict[str, int]:
        """One seed per pipeline step, numbered like the README example."""
        return {"simulate": seed, "intervals": seed + 1, "fit": seed + 2, "trend": seed + 3}

    def smoke(self) -> "Workload":
        """A reduced-size copy that runs in seconds; its accuracy is not gated."""
        return replace(
            self,
            n_actors=min(self.n_actors, 6),
            n_events=300,
            per_kind_count=0,
            waic_draws=20,
            trend_draws=500,
            grid_size=11,
            setup_imports=1,
            rmse_bound=None,
        )

    def commands(self, work: str, seed: int) -> list[tuple[str, list[str]]]:
        """The README pipeline as (step, remdecay CLI arguments) pairs."""
        s = self.seeds(seed)
        sim, iv, fit = f"{work}/sim", f"{work}/iv", f"{work}/fit"
        return [
            ("simulate", [
                "simulate", "--out", sim, "--n-actors", str(self.n_actors),
                "--beta0", repr(self.beta0), "--n-events", str(self.n_events),
                "--horizon", repr(self.gamma_max), "--seed", str(s["simulate"]),
                "--effects", json.dumps(self.effects, sort_keys=True),
            ]),
            ("gen-intervals", [
                "gen-intervals", "--out", iv,
                "--k-values", ",".join(str(k) for k in self.k_values),
                "--per-kind-count", str(self.per_kind_count),
                "--min-size", repr(self.min_size), "--gamma-max", repr(self.gamma_max),
                "--seed", str(s["intervals"]),
            ]),
            ("fit-bag", self.fit_bag_args(work, seed, fit, self.jobs)),
            ("trend", [
                "trend", "--fits", f"{fit}/fits.json", "--out", fit,
                "--n-draws", str(self.trend_draws), "--grid-size", str(self.grid_size),
                "--seed", str(s["trend"]),
            ]),
            ("report", ["report", "--fits", f"{fit}/fits.json", "--out", fit]),
        ]

    def fit_bag_args(self, work: str, seed: int, out: str, jobs: int) -> list[str]:
        """fit-bag on the sequence and bag that the pipeline in ``work`` made."""
        args = [
            "fit-bag", "--events", f"{work}/sim/events.csv",
            "--intervals-file", f"{work}/iv/intervals.json", "--out", out,
            "--kinds", ",".join(self.kinds), "--weighting", self.weighting,
            "--seed", str(self.seeds(seed)["fit"]), "--jobs", str(jobs),
        ]
        if self.weighting == "waic":
            args += ["--waic-draws", str(self.waic_draws)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="waic-inertia",
            n_actors=10,
            effects={"inertia": INERTIA},
            kinds=("inertia",),
            weighting="waic",
            per_kind_count=1,
            jobs=2,
            rmse_bound=0.25,
        ),
        Workload(
            name="bic-multi",
            n_actors=10,
            effects={"inertia": INERTIA, "reciprocity": RECIPROCITY},
            kinds=SIX_KINDS,
            weighting="bic",
            per_kind_count=0,
            jobs=1,
            rmse_bound=0.15,
        ),
        Workload(
            name="bic-scale",
            n_actors=30,
            effects={"inertia": INERTIA, "reciprocity": RECIPROCITY},
            kinds=("inertia", "reciprocity"),
            weighting="bic",
            per_kind_count=0,
            jobs=1,
            rmse_bound=0.15,
        ),
    )
}
