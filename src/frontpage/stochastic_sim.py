"""Agent-level Monte Carlo runs of the vote model.

Viewers arrive through the four visibility channels as Poisson processes
and each votes independently with probability r.  By Poisson thinning and
superposition the votes of one step are a single
``Poisson(r * total_rate * dt)`` draw, where ``total_rate`` is the sum of
the channel rates the deterministic integrator uses: the fixed step makes
this tau-leaping with tau = dt.  Trajectories are integer-valued and
monotone, and their ensemble mean should track the mean-field integrator
wherever no promotion flip happens near the mean — which is exactly what
the ensemble summary is used to check.

All runs of an ensemble step together on the
:class:`~frontpage.vote_dynamics.RateKernel` that the mean-field
integrator also reads: its time-only tables (upcoming queue, submitter's
friends, front-page decay by age since promotion) are built once per
config, and per step only the voter-network term is evaluated on the
vector of vote counts.  The summary's mean and spread are taken across
runs at each step, so memory is O(horizon + runs) plus a bounded buffer of
uniforms.

Reproducibility contract: run ``i`` of an ensemble draws from a generator
seeded with ``SeedSequence(entropy=seed, spawn_key=(i,))``, one uniform
per step, and turns it into its vote count by inversion.  A step whose
mean exceeds ``_INVERSION_MAX_MEAN`` draws ``Generator.poisson`` from the
run's second stream, ``spawn_key=(i, 0)``, instead.  A run's draws
therefore depend only on the seed, its index and its own history, not on
how many runs share the ensemble or on the order they are reported in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    RateKernel,
    integrate_votes,
    promotion_threshold_for,
    step_count,
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

# Largest per-step mean drawn by inversion.  Far below the ~745 at which
# exp(-mean) underflows, and it bounds the inversion search to a few dozen
# terms; larger means go to Generator.poisson.
_INVERSION_MAX_MEAN = 30.0

# Steps of uniforms drawn per run at a time: the buffer holds at most
# this many doubles per run, whatever the horizon.
_UNIFORM_BLOCK = 128


@dataclass(frozen=True)
class StochasticRunConfig:
    """Everything that determines an ensemble, including the seed.

    ``arrival_mode`` "poisson" draws vote counts; "mean" degenerately
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


def _rng_for_run(seed: int, run_index: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(run_index, *stream))
    )


def _poisson_by_inversion(mean: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k with ``P(X <= k) > u`` for each ``X ~ Poisson(mean)``.

    Means must not exceed ``_INVERSION_MAX_MEAN``.  All still-searching
    entries move to the next k together, so the loop runs as many times as
    the largest count of the step.
    """
    counts = np.zeros(mean.size, dtype=np.int64)
    pmf = np.exp(-mean)
    idx = np.flatnonzero(u >= pmf)
    mean, u, pmf = mean[idx], u[idx], pmf[idx]
    cdf = pmf
    k = 0
    while idx.size:
        k += 1
        counts[idx] = k
        pmf = pmf * mean / k
        cdf = cdf + pmf
        # pmf reaches 0 only if rounding leaves the cdf short of u.
        more = (u >= cdf) & (pmf > 0.0)
        idx, mean, u, pmf, cdf = idx[more], mean[more], u[more], pmf[more], cdf[more]
    return counts


def _lockstep(
    config: StochasticRunConfig, runs: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step the given runs of ``config`` together over the horizon.

    Yields the vote counts and the promotion steps of the runs after each
    step (the same arrays, updated in place).  A promotion step is the
    step at whose end the run reached the threshold, ``n_steps`` while it
    has not.
    """
    story, params = config.story, config.params
    n_steps = step_count(config.horizon, params.dt)
    rate = RateKernel(story, params, n_steps)
    threshold = promotion_threshold_for(config.policy, story)
    scale = story.interestingness_r * params.dt

    streams = [_rng_for_run(config.seed, i) for i in runs]
    large_streams: dict[int, np.random.Generator] = {}
    uniforms = np.empty((len(runs), min(n_steps, _UNIFORM_BLOCK)))
    m = np.ones(len(runs), dtype=np.int64)
    promo_step = np.full(len(runs), n_steps, dtype=np.int64)

    for k in range(n_steps):
        col = k % uniforms.shape[1]
        if col == 0:
            width = min(uniforms.shape[1], n_steps - k)
            for stream, row in zip(streams, uniforms):
                stream.random(out=row[:width])
        mean = scale * rate(k, m, promo_step)
        large = mean > _INVERSION_MAX_MEAN
        if large.any():
            small = ~large
            m[small] += _poisson_by_inversion(mean[small], uniforms[small, col])
            for j in np.flatnonzero(large):
                if j not in large_streams:
                    large_streams[j] = _rng_for_run(config.seed, runs[j], 0)
                # in Python ints, so a count past int64 raises, not wraps
                m[j] = int(m[j]) + int(large_streams[j].poisson(mean[j]))
        else:
            m += _poisson_by_inversion(mean, uniforms[:, col])
        promo_step[(promo_step == n_steps) & (m >= threshold)] = k
        yield m, promo_step


def simulate_once(config: StochasticRunConfig, run_index: int = 0) -> VoteTrajectory:
    """One stochastic realization (run ``run_index`` of the ensemble).

    Mirrors the deterministic integrator step for step: the rate is
    evaluated at the step midpoint from the pre-step vote count and
    promotion status, the step's votes are drawn, and the promotion rule
    is checked after the update.  In "mean" arrival mode this is exactly
    the deterministic trajectory.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    if config.arrival_mode == "mean":
        return integrate_votes(
            config.story, config.params, config.policy, config.horizon
        )
    n_steps = step_count(config.horizon, config.params.dt)
    times = np.arange(n_steps + 1, dtype=float) * config.params.dt
    votes = np.empty(n_steps + 1, dtype=np.int64)
    votes[0] = 1
    for k, (m, promo_step) in enumerate(_lockstep(config, [run_index]), 1):
        votes[k] = m[0]
    step = int(promo_step[0])
    return VoteTrajectory(
        times=times,
        votes_m=votes,
        promotion_time_Th=float(times[step + 1]) if step < n_steps else None,
    )


def ensemble(config: StochasticRunConfig) -> EnsembleSummary:
    """Run the configured ensemble and aggregate across runs at each step.

    In "mean" arrival mode every run is the deterministic trajectory, so
    it is integrated once and shared by all runs.
    """
    story, params, runs = config.story, config.params, config.runs
    if config.arrival_mode == "mean":
        only = integrate_votes(story, params, config.policy, config.horizon)
        times = only.times
        mean = only.votes_m
        std = np.zeros(times.size)
        final = np.full(runs, only.votes_m[-1])
        th = only.promotion_time_Th
        promo = np.full(runs, np.nan if th is None else th)
    else:
        n_steps = step_count(config.horizon, params.dt)
        times = np.arange(n_steps + 1, dtype=float) * params.dt
        mean = np.empty(n_steps + 1)
        std = np.zeros(n_steps + 1)
        mean[0] = 1.0
        for k, (m, promo_step) in enumerate(_lockstep(config, range(runs)), 1):
            mean[k] = m.mean()
            if runs > 1:
                std[k] = m.std(ddof=1)
        final = m.astype(float)
        promo = np.full(runs, np.nan)
        hit = promo_step < n_steps
        promo[hit] = times[promo_step[hit] + 1]

    promoted = promo[~np.isnan(promo)]
    if promoted.size:
        quantiles = {
            q: float(np.quantile(promoted, q)) for q in PROMOTION_QUANTILES
        }
    else:
        quantiles = {}
    return EnsembleSummary(
        times=times,
        mean_votes=mean,
        std_votes=std,
        final_votes=final,
        promotion_times=promo,
        promotion_probability=promoted.size / runs,
        promotion_time_quantiles=quantiles,
        n_runs=runs,
    )
