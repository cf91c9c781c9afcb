"""Agent-level Monte Carlo runs of the vote model.

Each channel's deterministic visibility becomes an arrival rate: per step
the number of viewers through a channel is Poisson with mean equal to the
rate times the step, and each viewer votes independently with probability
r.  Trajectories are therefore integer-valued and monotone, and their
ensemble mean should track the mean-field integrator wherever no
promotion flip happens near the mean — which is exactly what the ensemble
summary is used to check.

Reproducibility contract: run ``i`` of an ensemble draws from a generator
seeded with ``SeedSequence(entropy=seed, spawn_key=(i,))``, so results
are independent of execution order and bit-identical across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ParameterError,
    PromotionPolicy,
    StoryConfig,
    VoteModelParams,
    VoteTrajectory,
    _finite,
    _is_integral,
)
from .vote_dynamics import (
    integrate_votes,
    promotion_threshold_for,
    step_count,
    visibility,
)

__all__ = [
    "ARRIVAL_MODES",
    "PROMOTION_QUANTILES",
    "StochasticRunConfig",
    "EnsembleSummary",
    "simulate_once",
    "ensemble",
]

ARRIVAL_MODES = ("poisson", "mean")

# Quantiles of the promotion-time distribution reported by ensembles.
PROMOTION_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class StochasticRunConfig:
    """Everything that determines an ensemble, including the seed.

    ``arrival_mode`` "poisson" draws viewer counts; "mean" degenerately
    replaces every draw by its expectation, reproducing the deterministic
    integrator bit for bit (used as a self-test of the harness).
    """

    story: StoryConfig
    params: VoteModelParams
    policy: PromotionPolicy
    horizon: float
    seed: int
    runs: int = 1
    arrival_mode: str = "poisson"

    def __post_init__(self) -> None:
        bad: list[str] = []
        if not (_finite(self.horizon) and self.horizon > 0):
            bad.append(f"horizon must be a positive finite number, got {self.horizon}")
        if not _is_integral(self.seed) or self.seed < 0:
            bad.append(f"seed must be a nonnegative integer, got {self.seed}")
        if not _is_integral(self.runs) or self.runs < 1:
            bad.append(f"runs must be a positive integer, got {self.runs}")
        if self.arrival_mode not in ARRIVAL_MODES:
            bad.append(
                f"arrival_mode must be one of {ARRIVAL_MODES}, "
                f"got {self.arrival_mode!r}"
            )
        if bad:
            raise ParameterError("; ".join(bad))


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-time and promotion statistics over an ensemble.

    ``promotion_times`` holds NaN for runs that never promoted;
    ``promotion_time_quantiles`` is empty when no run promoted.
    """

    times: np.ndarray
    mean_votes: np.ndarray
    std_votes: np.ndarray
    final_votes: np.ndarray
    promotion_times: np.ndarray
    promotion_probability: float
    promotion_time_quantiles: dict[float, float]
    n_runs: int

    def __post_init__(self) -> None:
        bad: list[str] = []
        if not 0.0 <= self.promotion_probability <= 1.0:
            bad.append(
                f"promotion_probability must be in [0, 1], "
                f"got {self.promotion_probability}"
            )
        if np.any(np.diff(self.mean_votes) < 0):
            bad.append("mean_votes must be nondecreasing")
        if bad:
            raise ParameterError("; ".join(bad))


def _rng_for_run(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(run_index,))
    )


def simulate_once(config: StochasticRunConfig, run_index: int = 0) -> VoteTrajectory:
    """One stochastic realization (run ``run_index`` of the ensemble).

    Mirrors the deterministic integrator step for step: channel rates are
    evaluated at the step midpoint from the pre-step vote count and
    promotion status, viewers and votes are drawn, and the promotion rule
    is checked after the update.  In "mean" arrival mode this is exactly
    the deterministic trajectory.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    story, params, policy = config.story, config.params, config.policy
    if config.arrival_mode == "mean":
        return integrate_votes(story, params, policy, config.horizon)

    dt = params.dt
    n_steps = step_count(config.horizon, dt)

    rng = _rng_for_run(config.seed, run_index)
    threshold = promotion_threshold_for(policy, story)
    r = story.interestingness_r
    times = np.arange(n_steps + 1, dtype=float) * dt
    votes = np.empty(n_steps + 1, dtype=np.int64)
    votes[0] = 1
    promotion_time: float | None = None

    m = 1
    for k in range(n_steps):
        vis = visibility((k + 0.5) * dt, float(m), story, promotion_time, params)
        gained = 0
        for rate in (
            vis.v_front,
            vis.v_upcoming,
            vis.v_submitter_friends,
            vis.v_voter_friends,
        ):
            lam = rate * dt
            if lam <= 0.0:
                continue
            viewers = int(rng.poisson(lam))
            if viewers and r > 0.0:
                gained += int(rng.binomial(viewers, r))
        m += gained
        votes[k + 1] = m
        if promotion_time is None and m >= threshold:
            promotion_time = float(times[k + 1])

    return VoteTrajectory(times=times, votes_m=votes, promotion_time_Th=promotion_time)


def ensemble(config: StochasticRunConfig) -> EnsembleSummary:
    """Run the configured ensemble and aggregate by run index.

    Aggregation is keyed by run index, not completion order, so a
    parallel driver would produce the same summary.
    """
    first = simulate_once(config, run_index=0)
    n_times = first.times.size
    votes = np.empty((config.runs, n_times), dtype=float)
    promo = np.full(config.runs, np.nan)
    votes[0] = first.votes_m
    if first.promotion_time_Th is not None:
        promo[0] = first.promotion_time_Th
    for i in range(1, config.runs):
        run = simulate_once(config, run_index=i)
        votes[i] = run.votes_m
        if run.promotion_time_Th is not None:
            promo[i] = run.promotion_time_Th

    promoted = promo[~np.isnan(promo)]
    if promoted.size:
        quantiles = {
            q: float(np.quantile(promoted, q)) for q in PROMOTION_QUANTILES
        }
    else:
        quantiles = {}
    if config.runs > 1:
        std = votes.std(axis=0, ddof=1)
    else:
        std = np.zeros(n_times)
    return EnsembleSummary(
        times=first.times,
        mean_votes=votes.mean(axis=0),
        std_votes=std,
        final_votes=votes[:, -1].copy(),
        promotion_times=promo,
        promotion_probability=promoted.size / config.runs,
        promotion_time_quantiles=quantiles,
        n_runs=config.runs,
    )
