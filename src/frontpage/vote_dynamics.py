"""Mean-field vote dynamics for a single story.

A story accumulates votes from four audiences: front-page browsers,
upcoming-queue browsers, the submitter's reverse friends, and the reverse
friends of prior voters.  Each audience contributes a visibility rate
(potential viewers per minute); the story collects votes at that rate
times its interestingness.  The deterministic trajectory is the minute-by-
minute integral of the combined rate, with promotion to the front page
switching the story from the upcoming channels to the front-page channel.

Each channel's rate is written once.  The page channels (queue, front
page) take a time or an array of times, and raise their page factors to a
power through :func:`_pow`, which maps Python's float pow over an array so
that a table entry equals the scalar rate bit for bit.  :func:`visibility`
reports the channels per instant; :class:`RateKernel` tabulates their
time-only parts over a horizon and is the one kernel of both solution
paths: :func:`integrate_votes` (mean-field) and the Monte Carlo ensemble
in :mod:`frontpage.stochastic_sim`.  The tables that depend on ``[vote]``
and the step count alone are built once and shared by every kernel of a
command.

Both paths follow one segment rule: a step is taken on its own only while
the voter-network term reads the vote count, that is inside the friends
window before promotion.  Every later rate is a function of time and the
promotion step, so the rest of the horizon is one block of array work.
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


def _pow(base: float, exponent):
    """``base ** exponent`` by Python's float pow, for one exponent or a
    1-d array of them.

    Every power of the model goes through here.  ``np.power`` differs from
    the C library's ``pow`` in the last bit on about 5% of inputs, so an
    array is mapped through ``float.__pow__`` instead, which keeps each
    table entry bit-equal to the scalar rate.
    """
    if isinstance(exponent, np.ndarray):
        power = float(base).__pow__
        return np.fromiter(map(power, exponent.tolist()), float, exponent.size)
    return base ** exponent


def _queue_rate(t, params: VoteModelParams):
    """Upcoming-queue viewers per minute; the story starts on page 1 at t=0
    and drifts down ``k_u`` pages per minute until ``upcoming_window``.
    On an array of times the formula sees only those inside the window."""

    def on_page(t):
        page = params.k_u * t + 1.0
        return params.c * _pow(params.c_u, page - 1.0) * params.visit_rate_N

    if not isinstance(t, np.ndarray):
        return on_page(t) if t <= params.upcoming_window else 0.0
    rate = np.zeros(t.shape)
    inside = t <= params.upcoming_window
    rate[inside] = on_page(t[inside])
    return rate


def _front_rate(age, params: VoteModelParams):
    """Front-page viewers per minute ``age`` minutes after promotion (a float
    or an array); the front page turns over slowly (``k_f`` << ``k_u``)."""
    page = params.k_f * age + 1.0
    return _pow(params.c_f, page - 1.0) * params.visit_rate_N


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


@functools.lru_cache(maxsize=4)
def _time_table(rate, params: VoteModelParams, n_steps: int) -> np.ndarray:
    """``rate(t, params)`` at the step midpoints ``t = (k + 0.5) * dt``.

    Read-only and cached per ``[vote]`` record and step count, so the
    points of a sweep that share them share one table.
    """
    t = (np.arange(n_steps) + 0.5) * params.dt
    # the scalar rates are Python floats, which overflow to inf or nan
    # where numpy would raise; the caller checks what comes of them
    with np.errstate(over="ignore", invalid="ignore"):
        table = rate(t, params)
    table.flags.writeable = False
    return table


class RateKernel:
    """Total visibility rate over a segment of steps, shared by both
    solution paths.

    The time-only terms are tables built from the channel functions of
    :func:`visibility`, so each entry equals its ``visibility`` term bit for
    bit at the step midpoint ``t = (k + 0.5) * dt``: ``unpromoted`` (queue
    plus submitter), ``submitter``, and ``front[a]``, the front page
    ``a + 0.5`` steps after promotion.  The queue and front-page tables
    are evaluated on the array of midpoints, with no Python call per step,
    their powers by Python's float pow (:func:`_pow`, not ``np.power``),
    and are cached per ``[vote]`` record and step count.  The voter-network
    term is added while ``k < voter_steps``.  Called on vectors, it gives
    the ``(k1 - k0) x runs`` rates of steps ``k0 .. k1 - 1`` of runs
    promoted at the end of step ``promo_step`` (``>= n_steps``: not
    promoted).  The voter term reads ``m``, the vote counts before step
    ``k0``, so a segment wider than one step is exact only where that term
    is off.
    """

    def __init__(self, story: StoryConfig, params: VoteModelParams, n_steps: int):
        t = ((np.arange(n_steps) + 0.5) * params.dt).tolist()
        self._params, self._n_steps = params, n_steps
        # Both conditions of _submitter_rate are monotone in t, so it is
        # its constant rate on a prefix of the midpoints and 0.0 after it.
        n_pool = bisect.bisect_left(
            t, True, key=lambda x: _submitter_rate(x, story, params) == 0.0
        )
        self.submitter = np.zeros(n_steps)
        self.submitter[:n_pool] = _submitter_rate(t[0], story, params)
        self.unpromoted = _time_table(_queue_rate, params, n_steps) + self.submitter
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
        return _time_table(_front_rate, self._params, self._n_steps)

    def __call__(
        self, k0: int, k1: int, m: np.ndarray, promo_step: np.ndarray
    ) -> np.ndarray:
        rate = np.repeat(self.unpromoted[k0:k1, None], m.size, axis=1)
        if k0 < self.voter_steps:
            # _voter_rate on a vector: np.log and math.log differ in the
            # last bit on a few inputs, so the Monte Carlo path keeps its own.
            network = self.alpha * (np.log(m) / self.log_base) + self.beta
            rate[: self.voter_steps - k0] += _FRIENDS_RATE_UNIT * np.maximum(0.0, network)
        age = np.arange(k0 - 1, k1 - 1)[:, None] - promo_step
        promoted = age >= 0
        if promoted.any():
            steps = np.nonzero(promoted)[0]
            rate[promoted] = self.front[age[promoted]] + self.submitter[k0 + steps]
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
    term is taken at the exact age ``t - promotion_time``, so each step
    equals ``visibility(...).total`` bit for bit at any ``dt``.

    Steps are taken one at a time only while the voter-network term reads
    the vote count: inside the friends window, before promotion.  The rest
    is at most two blocks, each one ``np.add.accumulate`` of the step
    increments seeded with the count before it: the unpromoted stretch,
    whose first entry at the bar is the promotion step, and the promoted
    stretch.  The accumulation adds from left to right, so every entry is
    bit-equal to ``m = m + r * rate * dt`` in a loop.  The block arithmetic
    lets a count overflow to inf or nan as Python floats do;
    OverflowError if the final count is not finite.
    """
    dt = params.dt
    n_steps = step_count(horizon, dt)
    threshold = promotion_threshold_for(policy, story)
    kernel = RateKernel(story, params, n_steps)
    r = story.interestingness_r

    votes = np.empty(n_steps + 1)
    m = votes[0] = 1.0
    done = 0  # steps integrated so far
    promo: int | None = None  # the step at whose end the story promoted
    for rate in kernel.unpromoted[: kernel.voter_steps].tolist():
        m = m + r * (rate + _voter_rate(m, params)) * dt
        done += 1
        votes[done] = m
        if m >= threshold:
            promo = done - 1
            break
    with np.errstate(over="ignore", invalid="ignore"):
        if promo is None and done < n_steps:
            block = votes[done:]
            block[1:] = r * kernel.unpromoted[done:] * dt
            np.add.accumulate(block, out=block)
            crossed = block[1:] >= threshold
            if crossed.any():
                promo = done + int(crossed.argmax())
            done = n_steps if promo is None else promo + 1
        if promo is not None and done < n_steps:
            age = (np.arange(done, n_steps) + 0.5) * dt - (promo + 1) * dt
            rate = _front_rate(age, params) + kernel.submitter[done:]
            block = votes[done:]
            block[1:] = r * rate * dt
            np.add.accumulate(block, out=block)
    # m never decreases, so a final finite count means every step was finite
    m = float(votes[-1])
    if not math.isfinite(m):
        raise OverflowError(
            f"vote count is {m} after {horizon} minutes: the vote rate "
            "overflows floating point"
        )

    return VoteTrajectory(
        times=np.arange(n_steps + 1) * dt,
        votes_m=votes,
        promotion_time_Th=None if promo is None else (promo + 1) * dt,
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
