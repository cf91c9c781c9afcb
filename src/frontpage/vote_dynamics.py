"""Mean-field vote dynamics for a single story.

A story accumulates votes from four audiences: front-page browsers,
upcoming-queue browsers, the submitter's reverse friends, and the reverse
friends of prior voters.  Each audience contributes a visibility rate
(potential viewers per minute); the story collects votes at that rate
times its interestingness.  The deterministic trajectory is the minute-by-
minute integral of the combined rate, with promotion to the front page
switching the story from the upcoming channels to the front-page channel.

Each channel's rate is written once, as a scalar function.
:func:`visibility` reports them per instant; :class:`RateKernel` tabulates
their time-only parts over a horizon and is the one kernel of both
solution paths: :func:`integrate_votes` (mean-field) and the Monte Carlo
ensemble in :mod:`frontpage.stochastic_sim`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FixedThreshold,
    NetworkProportional,
    PromotionPolicy,
    StoryConfig,
    VoteModelParams,
    VoteTrajectory,
)

__all__ = [
    "VisibilityBreakdown",
    "visibility",
    "RateKernel",
    "promotion_threshold_for",
    "step_count",
    "integrate_votes",
    "analytic_upcoming_saturation",
    "saturation_time",
]

# Friends-interface audiences trickle in over a day: a network of S users
# contributes S/1440 potential viewers per minute until its pool drains
# (submitter's own network) or its window closes.
_FRIENDS_RATE_UNIT = 1.0 / (24.0 * 60.0)

# Minimum bar for the network-proportional promotion rule, so that a
# submitter with no reverse friends still needs more than their own vote.
_PROPORTIONAL_FLOOR = 2.0

# Most steps in one run (about two years of minutes): bounds its time and memory.
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class VisibilityBreakdown:
    """Per-channel potential viewers per minute at one instant."""

    v_front: float
    v_upcoming: float
    v_submitter_friends: float
    v_voter_friends: float

    @property
    def total(self) -> float:
        return (
            self.v_front
            + self.v_upcoming
            + self.v_submitter_friends
            + self.v_voter_friends
        )


def _queue_rate(t: float, params: VoteModelParams) -> float:
    """Upcoming-queue viewers per minute; the story starts on page 1 at t=0
    and drifts down ``k_u`` pages per minute until ``upcoming_window``."""
    if t <= params.upcoming_window:
        page = params.k_u * t + 1.0
        return params.c * params.c_u ** (page - 1.0) * params.visit_rate_N
    return 0.0


def _front_rate(age: float, params: VoteModelParams) -> float:
    """Front-page viewers per minute ``age`` minutes after promotion; the
    front page turns over slowly (``k_f`` << ``k_u``)."""
    page = params.k_f * age + 1.0
    return params.c_f ** (page - 1.0) * params.visit_rate_N


def _submitter_rate(t: float, story: StoryConfig, params: VoteModelParams) -> float:
    """The submitter's S reverse friends, S/1440 per minute until the pool
    drains or the friends window closes."""
    s = story.submitter_network_S
    pool_rate = s * _FRIENDS_RATE_UNIT
    if t <= params.friends_window and pool_rate > 0.0 and s - pool_rate * t >= 0.0:
        return pool_rate
    return 0.0


def _voter_rate(m: float, params: VoteModelParams) -> float:
    """Viewers per minute from the joint reverse-friend network of m voters,
    which overlap makes grow logarithmically (alpha = beta = 0: disabled)."""
    network = params.sm_alpha * math.log(m, params.sm_log_base) + params.sm_beta
    return _FRIENDS_RATE_UNIT * max(0.0, network)


def visibility(
    t: float,
    m: float,
    story: StoryConfig,
    promotion_time: float | None,
    params: VoteModelParams,
) -> VisibilityBreakdown:
    """Potential viewers per minute through each channel at time t.

    ``promotion_time`` of None means the story is still in the upcoming
    queue.  Window edges count as inside (a story aged exactly
    ``upcoming_window`` minutes is still in the queue).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    promoted = promotion_time is not None and t >= promotion_time
    return VisibilityBreakdown(
        v_front=_front_rate(t - promotion_time, params) if promoted else 0.0,
        v_upcoming=0.0 if promoted else _queue_rate(t, params),
        v_submitter_friends=_submitter_rate(t, story, params),
        v_voter_friends=(
            _voter_rate(m, params)
            if not promoted and t <= params.friends_window
            else 0.0
        ),
    )


class RateKernel:
    """Total visibility rate at step ``k``, shared by both solution paths.

    The time-only terms are tables built from the channel functions of
    :func:`visibility`, so each entry equals its ``visibility`` term bit for
    bit at the step midpoint ``t = (k + 0.5) * dt``: ``unpromoted`` (queue
    plus submitter), ``submitter``, and ``front[a]``, the front page
    ``a + 0.5`` steps after promotion.  The voter-network term is added
    while ``k < voter_steps``.  Called on vectors, it gives the rates of
    runs with ``m`` votes promoted at the end of step ``promo_step``
    (``>= n_steps``: not promoted).
    """

    def __init__(self, story: StoryConfig, params: VoteModelParams, n_steps: int):
        t = [(k + 0.5) * params.dt for k in range(n_steps)]
        self._midpoints, self._params = t, params
        self.submitter = np.array([_submitter_rate(x, story, params) for x in t])
        self.unpromoted = np.array([_queue_rate(x, params) for x in t]) + self.submitter
        has_voters = params.sm_alpha > 0.0 or params.sm_beta > 0.0
        # the midpoints increase, so this counts those inside the window
        in_friends = bisect.bisect_right(t, params.friends_window)
        self.voter_steps = in_friends if has_voters else 0
        self.alpha = params.sm_alpha
        self.beta = params.sm_beta
        self.log_base = math.log(params.sm_log_base)

    @functools.cached_property
    def front(self) -> np.ndarray:
        """Built on first use: only the Monte Carlo path reads it."""
        # t is the age since promotion here: promotions happen at step ends.
        return np.array([_front_rate(x, self._params) for x in self._midpoints])

    def __call__(self, k: int, m: np.ndarray, promo_step: np.ndarray) -> np.ndarray:
        rate = np.full(m.shape, self.unpromoted[k])
        if k < self.voter_steps:
            # _voter_rate on a vector: np.log and math.log differ in the
            # last bit on a few inputs, so the Monte Carlo path keeps its own.
            network = self.alpha * (np.log(m) / self.log_base) + self.beta
            rate += _FRIENDS_RATE_UNIT * np.maximum(0.0, network)
        age = k - 1 - promo_step
        promoted = age >= 0
        if promoted.any():
            rate[promoted] = self.front[age[promoted]] + self.submitter[k]
        return rate


def promotion_threshold_for(policy: PromotionPolicy, story: StoryConfig) -> float:
    """Votes required before this story leaves the upcoming queue."""
    if isinstance(policy, FixedThreshold):
        return float(policy.h)
    if isinstance(policy, NetworkProportional):
        return max(_PROPORTIONAL_FLOOR, policy.factor * story.submitter_network_S)
    raise TypeError(f"unknown promotion policy: {policy!r}")


def step_count(horizon: float, dt: float) -> int:
    """Number of ``dt`` steps in ``horizon``; ValueError unless whole and few enough."""
    steps = horizon / dt
    if not steps <= _MAX_STEPS:
        raise ValueError(
            f"horizon ({horizon}) is more than {_MAX_STEPS} steps of dt ({dt})"
        )
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(
            f"horizon ({horizon}) must be a whole number of dt ({dt}) steps"
        )
    return n_steps


def integrate_votes(
    story: StoryConfig,
    params: VoteModelParams,
    policy: PromotionPolicy,
    horizon: float,
) -> VoteTrajectory:
    """Deterministic vote trajectory over ``horizon`` minutes.

    Each step adds ``r * rate * dt`` votes, ``rate`` being the
    :class:`RateKernel` total: tau-leaping with each Poisson draw replaced
    by its mean.  Page positions and windows are sampled at the step
    midpoint, the vote count and promotion status at its start.  Midpoint
    sampling keeps the sum within a fraction of a percent of the
    continuous-time integral at dt = 1; the left endpoint overshoots the
    queue-decay integral by several percent.

    The promotion rule is checked after each step; crossing the bar marks
    the story promoted from the end of that step onward.  The front-page
    term is taken at the exact age ``t - promotion_time``, not from the
    kernel's table, so each step equals ``visibility(...).total`` bit for
    bit at any ``dt``.  OverflowError if the vote count overflows.
    """
    dt = params.dt
    n_steps = step_count(horizon, dt)
    threshold = promotion_threshold_for(policy, story)
    kernel = RateKernel(story, params, n_steps)
    unpromoted, submitter = kernel.unpromoted.tolist(), kernel.submitter.tolist()
    r = story.interestingness_r

    promotion_time: float | None = None
    m = 1.0
    votes = [m]
    for k in range(n_steps):
        if promotion_time is None:
            rate = unpromoted[k]
            if k < kernel.voter_steps:
                rate += _voter_rate(m, params)
        else:
            rate = _front_rate((k + 0.5) * dt - promotion_time, params) + submitter[k]
        m = m + r * rate * dt
        votes.append(m)
        if promotion_time is None and m >= threshold:
            promotion_time = (k + 1) * dt
    # m never decreases, so a final finite count means every step was finite
    if not math.isfinite(m):
        raise OverflowError(
            f"vote count is {m} after {horizon} minutes: the vote rate "
            "overflows floating point"
        )

    return VoteTrajectory(
        times=np.arange(n_steps + 1) * dt,
        votes_m=np.array(votes),
        promotion_time_Th=promotion_time,
    )


def analytic_upcoming_saturation(r: float, params: VoteModelParams) -> float:
    """Closed-form final vote count for a queue-only story that never promotes.

    With only the upcoming channel active, the vote rate decays
    geometrically as the story slides down the queue; integrating to
    infinity gives ``1 - r * c * N / (k_u * ln(c_u))``.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    return 1.0 - r * params.c * params.visit_rate_N / (
        params.k_u * math.log(params.c_u)
    )


def saturation_time(
    trajectory: VoteTrajectory,
    rate_tol: float = 1e-6,
    run_length: int = 60,
) -> float | None:
    """First time the vote rate stays below ``rate_tol`` for ``run_length`` steps.

    Returns None when the trajectory never settles within its horizon.
    """
    if run_length < 1:
        raise ValueError(f"run_length must be >= 1, got {run_length}")
    dm = np.diff(trajectory.votes_m)
    dt = np.diff(trajectory.times)
    slow = (dm / dt) < rate_tol
    if slow.size < run_length:
        return None
    window = np.convolve(slow.astype(int), np.ones(run_length, dtype=int), "valid")
    hits = np.nonzero(window == run_length)[0]
    if hits.size == 0:
        return None
    return float(trajectory.times[hits[0]])
