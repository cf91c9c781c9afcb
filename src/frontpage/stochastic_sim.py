"""Agent-level Monte Carlo runs of the vote model.

Viewers arrive through the four visibility channels as Poisson processes
and each votes independently with probability r.  By Poisson thinning and
superposition the votes of one step are a single
``Poisson(r * total_rate * dt)`` draw, where ``total_rate`` is the sum of
the channel rates the deterministic integrator uses: the fixed step makes
this tau-leaping with tau = dt.  A run's vote counts are integer-valued
and monotone, and their ensemble mean should track the mean-field integrator
wherever no promotion flip happens near the mean — which is exactly what
the ensemble summary is used to check.

All runs of an ensemble step together on the
:class:`~frontpage.vote_dynamics.RateKernel` that the mean-field
integrator also reads: its time-only tables (upcoming queue, submitter's
friends, front-page decay by age since promotion) are built once per
config, and the queue and front-page ones once per ``[vote]`` record and
horizon.  Its voter-network term is ``_voter_rate``, the mean field's
formula, read from a table by vote count of at most ``_VOTER_TABLE_CAP``
entries.  The runs advance through segments of steps.  While the
voter-network term reads the vote counts, a step is drawn on its own;
once no rate depends on them (the friends window has closed, or every
run has promoted), the rest of a segment is one block of draws, a
fixed-tau leap over many steps at once.  The summary's mean and spread
are taken across runs once per segment, over its ``steps x runs`` block,
so memory is O(horizon + runs) plus a bounded buffer of uniforms, one
block of at most ``_SEGMENT_RUN_STEPS`` run-steps and the voter table.

Reproducibility contract: run ``i`` of an ensemble draws from a generator
seeded with ``SeedSequence(entropy=options.seed, spawn_key=(i,))``, one
uniform per step, and turns it into its vote count by inversion.  A step
whose mean exceeds ``_INVERSION_MAX_MEAN`` draws ``Generator.poisson`` from
the run's second stream, ``spawn_key=(i, 0)``, instead.  A run's draws
therefore depend only on the seed, its index and its own history, not on
how many runs share the ensemble or on the order they are reported in, so
an ensemble of ``n`` runs reports the first ``n`` runs of any larger
ensemble of the same arguments and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    EnsembleOptions,
    PromotionPolicy,
    StoryConfig,
    VoteModelParams,
    _Record,
    _bounded,
    _series,
)
from .vote_dynamics import RateKernel, integrate_votes, step_count

__all__ = [
    "PROMOTION_QUANTILES",
    "EnsembleSummary",
    "ensemble",
]

# Quantiles of the promotion-time distribution reported by ensembles.
PROMOTION_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

# Largest per-step mean drawn by inversion.  Far below the ~745 at which
# exp(-mean) underflows, and it bounds the inversion search to a few dozen
# terms; larger means go to Generator.poisson.
_INVERSION_MAX_MEAN = 30.0

# Steps of uniforms drawn per run at a time: the buffer holds at most
# this many doubles per run, whatever the horizon.
_UNIFORM_BLOCK = 128

# Most run-steps in one segment: bounds the per-segment blocks of rates,
# counts and votes, whatever the number of runs.
_SEGMENT_RUN_STEPS = 16384


@dataclass(frozen=True)
class EnsembleSummary(_Record):
    """Per-time and promotion statistics over an ensemble.

    ``final_votes`` and ``promotion_times`` hold one entry per run;
    ``promotion_times`` holds NaN for runs that never promoted, and
    ``promotion_time_quantiles`` is empty when no run promoted.
    """

    times: np.ndarray = _series("strictly increasing")
    mean_votes: np.ndarray = _series("nondecreasing")
    std_votes: np.ndarray = _series(None)
    final_votes: np.ndarray
    promotion_times: np.ndarray
    promotion_probability: float = _bounded("in [0, 1]")
    promotion_time_quantiles: dict[float, float]
    n_runs: int = _bounded("an integer >= 1")

    def _violations(self, broken: set[str]) -> list[str]:
        n = self.n_runs
        return [] if "n_runs" in broken else [
            f"{name} must be a 1-d array of n_runs ({n}) entries, got shape {shape}"
            for name in ("final_votes", "promotion_times")
            if (shape := np.shape(getattr(self, name))) != (n,)
        ]


def _quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(values, q)`` of the finite values sorted in ``ordered``,
    by its default linear method: numpy's ``_lerp`` between the neighbours
    of the virtual index ``(n - 1) * q``.  It leaves out ``np.quantile``'s
    partition bookkeeping, whose ``np.unique`` imports ``numpy.ma``.
    """
    index = (len(ordered) - 1) * q
    below = math.floor(index)
    if index >= len(ordered) - 1:
        below = -1  # numpy takes the last value for both neighbours
    lo, hi = ordered[below], ordered[below + 1 if below >= 0 else -1]
    t = index - below
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


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
    story: StoryConfig, params: VoteModelParams, policy: PromotionPolicy,
    horizon: float, seed: int, runs: Sequence[int],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step the given runs of an ensemble of ``seed`` together over the horizon.

    Yields one ``(width x runs)`` block of vote counts per segment of
    steps, row ``i`` holding the counts after the segment's ``i``-th step,
    with the promotion steps of the runs (one array, updated in place).  A
    promotion step is the step at whose end the run reached the threshold,
    ``n_steps`` while it has not.

    A segment lies inside one chunk of uniforms and spans at most
    ``_SEGMENT_RUN_STEPS`` run-steps.  Its steps are drawn one at a time
    while the voter-network term reads the vote counts, that is while
    ``k < voter_steps`` and some run is still unpromoted.  After that every
    rate is a function of time and promotion step alone, and the rest of
    the segment is drawn as one block: each run that crosses the threshold
    inside it is drawn again from the same uniforms at its post-promotion
    rates, which leaves its steps up to the crossing as they were.  A
    block with a mean past the inversion range is redone one step at a
    time, so that the second streams are read in step order; those draws
    add in Python ints, so a count past int64 raises OverflowError; a mean
    past what ``Generator.poisson`` draws raises ValueError naming the step.
    """
    n_steps = step_count(horizon, params.dt)
    rate = RateKernel(story, params, n_steps)
    threshold = policy.threshold(story)
    scale = story.interestingness_r * params.dt

    streams = [_rng_for_run(seed, i) for i in runs]
    large_streams: dict[int, np.random.Generator] = {}
    chunk = min(n_steps, _UNIFORM_BLOCK)
    uniforms = np.empty((len(runs), chunk))
    widest = max(1, min(chunk, _SEGMENT_RUN_STEPS // len(runs)))
    m = np.ones(len(runs), dtype=np.int64)
    promo_step = np.full(len(runs), n_steps, dtype=np.int64)
    bar = np.full(len(runs), threshold)  # +inf once a run has promoted
    waiting = len(runs)

    def segment(k0: int, k1: int) -> np.ndarray | None:
        """Vote counts after steps ``k0 .. k1 - 1``; None, with nothing
        drawn or changed, if a segment wider than one step has a large
        mean and must be redone one step at a time."""
        nonlocal m, waiting
        col = k0 % chunk
        u = uniforms[:, col : col + k1 - k0].T
        mean = scale * rate(k0, k1, m, promo_step)
        large = mean > _INVERSION_MAX_MEAN
        if not large.any():
            block = _poisson_by_inversion(mean.ravel(), u.ravel()).reshape(mean.shape)
            np.cumsum(block, axis=0, out=block)
            block += m
        elif k1 - k0 > 1:
            return None
        else:
            small = ~large[0]
            block = m[None].copy()
            block[0, small] += _poisson_by_inversion(mean[0, small], u[0, small])
            for j in np.flatnonzero(large[0]):
                if j not in large_streams:
                    large_streams[j] = _rng_for_run(seed, runs[j], 0)
                try:
                    draw = large_streams[j].poisson(mean[0, j])
                except ValueError:  # numpy's bare "lam value too large"
                    message = f"Poisson mean {mean[0, j]} is too large to draw"
                    raise ValueError(f"step {k0 + 1}: {message}") from None
                # in Python ints, so a count past int64 raises, not wraps
                block[0, j] = int(m[j]) + int(draw)
        if waiting:
            crossed = np.flatnonzero(block[-1] >= bar)
            if crossed.size:
                first = k0 + np.argmax(block[:, crossed] >= threshold, axis=0)
                late = first < k1 - 1
                if late.any():
                    # a run promotes once, so one redraw settles its segment
                    cols = crossed[late]
                    mean = scale * rate(k0, k1, m[cols], first[late])
                    if (mean > _INVERSION_MAX_MEAN).any():
                        return None
                    counts = _poisson_by_inversion(mean.ravel(), u[:, cols].ravel())
                    counts = np.cumsum(counts.reshape(mean.shape), axis=0)
                    block[:, cols] = counts + m[cols]
                promo_step[crossed] = first
                bar[crossed] = np.inf
                waiting -= crossed.size
        m = block[-1]
        return block

    k = 0
    while k < n_steps:
        col = k % chunk
        if col == 0:
            width = min(chunk, n_steps - k)
            for stream, row in zip(streams, uniforms):
                stream.random(out=row[:width])
        end = min(n_steps, k - col + chunk, k + widest)
        blocks = []
        while k < end:
            one_step = waiting and k < rate.voter_steps
            block = segment(k, k + 1 if one_step else end)
            if block is None:
                block = np.concatenate([segment(j, j + 1) for j in range(k, end)])
            blocks.append(block)
            k += len(block)
        yield np.concatenate(blocks) if len(blocks) > 1 else blocks[0], promo_step


def ensemble(
    story: StoryConfig, params: VoteModelParams, policy: PromotionPolicy,
    horizon: float, options: EnsembleOptions = EnsembleOptions(),
) -> EnsembleSummary:
    """Run ``options.runs`` runs of the vote model over ``horizon`` minutes
    and aggregate across runs at each step.

    Entry ``i`` of ``final_votes`` and ``promotion_times`` is run ``i``,
    whose draws depend only on ``options.seed`` and ``i`` (the module's
    reproducibility contract).  In "mean" arrival mode every run is the
    deterministic trajectory, so it is integrated once by
    ``integrate_votes`` and shared by all runs.
    """
    runs = options.runs
    if options.arrival_mode == "mean":
        only = integrate_votes(story, params, policy, horizon)
        times = only.times
        mean = only.votes_m
        std = np.zeros(times.size)
        final = np.full(runs, only.votes_m[-1])
        th = only.promotion_time_Th
        promo = np.full(runs, np.nan if th is None else th)
    else:
        n_steps = step_count(horizon, params.dt)
        times = np.arange(n_steps + 1, dtype=float) * params.dt
        mean = np.empty(n_steps + 1)
        std = np.zeros(n_steps + 1)
        mean[0] = 1.0
        k = 1
        lockstep = _lockstep(story, params, policy, horizon, options.seed, range(runs))
        for block, promo_step in lockstep:
            rows = slice(k, k + len(block))
            mean[rows] = block.mean(axis=1)
            if runs > 1:
                std[rows] = block.std(axis=1, ddof=1)
            k += len(block)
        final = block[-1].astype(float)
        promo = np.full(runs, np.nan)
        hit = promo_step < n_steps
        promo[hit] = times[promo_step[hit] + 1]

    promoted = np.sort(promo[~np.isnan(promo)]).tolist()
    quantiles = (
        {q: _quantile(promoted, q) for q in PROMOTION_QUANTILES} if promoted else {}
    )
    return EnsembleSummary(
        times=times,
        mean_votes=mean,
        std_votes=std,
        final_votes=final,
        promotion_times=promo,
        promotion_probability=len(promoted) / runs,
        promotion_time_quantiles=quantiles,
        n_runs=runs,
    )
