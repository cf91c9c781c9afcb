"""Mean-field vote dynamics for a single story.

A story accumulates votes from four audiences: front-page browsers,
upcoming-queue browsers, the submitter's reverse friends, and the reverse
friends of prior voters.  Each audience contributes a visibility rate
(potential viewers per minute); the story collects votes at that rate
times its interestingness.  The deterministic trajectory is the minute-by-
minute integral of the combined rate, with promotion to the front page
switching the story from the upcoming channels to the front-page channel.
"""

from __future__ import annotations

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
    "page_upcoming",
    "page_front",
    "combined_voter_network",
    "visibility",
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


def page_upcoming(t: float, params: VoteModelParams) -> float:
    """Position of a story submitted at t=0 in the upcoming queue.

    New submissions push older ones down at ``k_u`` pages per minute;
    page 1 is the queue front.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return params.k_u * t + 1.0


def page_front(t: float, promotion_time: float, params: VoteModelParams) -> float:
    """Position on the front page, 0 before promotion.

    The front page turns over much more slowly than the queue
    (``k_f`` << ``k_u``), so promoted stories stay visible for days.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t < promotion_time:
        return 0.0
    return params.k_f * (t - promotion_time) + 1.0


def combined_voter_network(
    m: float,
    sm_alpha: float,
    sm_beta: float,
    log_base: float = math.e,
) -> float:
    """Size of the joint reverse-friend network of a story's first m voters.

    Overlap between individual networks makes the union grow
    logarithmically rather than linearly in the number of voters.  With
    alpha = 0 and beta = 0 the channel is disabled and this returns 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return max(0.0, sm_alpha * math.log(m, log_base) + sm_beta)


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

    if promoted:
        p = page_front(t, promotion_time, params)
        v_front = params.c_f ** (p - 1.0) * params.visit_rate_N
        v_upcoming = 0.0
    else:
        v_front = 0.0
        if t <= params.upcoming_window:
            q = page_upcoming(t, params)
            v_upcoming = params.c * params.c_u ** (q - 1.0) * params.visit_rate_N
        else:
            v_upcoming = 0.0

    in_friends_window = t <= params.friends_window

    pool_rate = story.submitter_network_S * _FRIENDS_RATE_UNIT
    if (
        in_friends_window
        and pool_rate > 0.0
        and story.submitter_network_S - pool_rate * t >= 0.0
    ):
        v_submitter = pool_rate
    else:
        v_submitter = 0.0

    if not promoted and in_friends_window:
        s_m = combined_voter_network(
            m, params.sm_alpha, params.sm_beta, params.sm_log_base
        )
        v_voters = _FRIENDS_RATE_UNIT * s_m
    else:
        v_voters = 0.0

    return VisibilityBreakdown(
        v_front=v_front,
        v_upcoming=v_upcoming,
        v_submitter_friends=v_submitter,
        v_voter_friends=v_voters,
    )


def promotion_threshold_for(policy: PromotionPolicy, story: StoryConfig) -> float:
    """Votes required before this story leaves the upcoming queue."""
    if isinstance(policy, FixedThreshold):
        return float(policy.h)
    if isinstance(policy, NetworkProportional):
        return max(_PROPORTIONAL_FLOOR, policy.factor * story.submitter_network_S)
    raise TypeError(f"unknown promotion policy: {policy!r}")


def step_count(horizon: float, dt: float) -> int:
    """Number of ``dt`` steps in ``horizon``; ValueError unless it is whole."""
    n_steps = int(round(horizon / dt))
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

    Each step adds ``r * visibility * dt`` votes, with the
    time-dependent page positions and windows sampled at the step
    midpoint (the vote count and promotion status are taken at the start
    of the step).  Midpoint sampling keeps the discrete sum within a
    fraction of a percent of the continuous-time integral at dt = 1;
    sampling at the left endpoint overshoots the queue-decay integral by
    several percent.

    The promotion rule is checked after each step; crossing the bar marks
    the story promoted from the end of that step onward.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be a positive finite number, got {horizon}")
    dt = params.dt
    n_steps = step_count(horizon, dt)

    threshold = promotion_threshold_for(policy, story)
    times = np.empty(n_steps + 1, dtype=float)
    votes = np.empty(n_steps + 1, dtype=float)
    times[0] = 0.0
    votes[0] = 1.0
    promotion_time: float | None = None

    m = 1.0
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        vis = visibility(t_mid, m, story, promotion_time, params)
        m = m + story.interestingness_r * vis.total * dt
        times[k + 1] = (k + 1) * dt
        votes[k + 1] = m
        if promotion_time is None and m >= threshold:
            promotion_time = float(times[k + 1])

    return VoteTrajectory(
        times=times, votes_m=votes, promotion_time_Th=promotion_time
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
