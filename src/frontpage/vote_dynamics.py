"""Mean-field vote dynamics for a single story.

A story accumulates votes from four audiences: front-page browsers,
upcoming-queue browsers, the submitter's reverse friends, and the reverse
friends of prior voters.  Each audience contributes a visibility rate
(potential viewers per minute); the story collects votes at that rate
times its interestingness.  The deterministic trajectory is the minute-by-
minute integral of the combined rate, with promotion to the front page
switching the story from the upcoming channels to the front-page channel.

Each channel's rate is written once.  The three time channels (queue,
front page, submitter) take an array of times; the page channels raise
their page factors to a power through :func:`_pow`, which maps Python's
float pow over the array.  The voter-network term ``alpha * log_b(m) +
beta`` is the one scalar channel, :func:`_voter_rate` on a Python float,
because it reads the vote count; the kernel reads it from a bounded table
by vote count.  No rate here goes through numpy's ``log``, ``exp`` or
``power``, whose last bit can differ from Python's.

:class:`RateKernel` tabulates the time channels at the step midpoints and
combines the four channels for the Monte Carlo ensemble in
:mod:`frontpage.stochastic_sim`.  :func:`integrate_votes` (mean-field)
adds the same tables, and :func:`_voter_rate` on its float count, so
every rate either path adds comes from one table or from
:func:`_voter_rate`.  The tables that depend on ``[vote]`` and the step
count alone are built once and shared by every kernel of a command.

Both paths follow one segment rule: a step is taken on its own only while
the voter-network term reads the vote count, that is inside the friends
window before promotion.  Every later rate is a function of time and the
promotion step, so the rest of the horizon is one block of array work.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _EXPORTS, _check
from .core import (
    PromotionPolicy,
    StoryConfig,
    VoteModelParams,
    VoteTrajectory,
)

__all__ = list(_EXPORTS["vote_dynamics"])

# Friends-interface audiences trickle in over a day: a network of S users
# contributes S/1440 potential viewers per minute until its pool drains
# (submitter's own network) or its window closes.
_FRIENDS_RATE_UNIT = 1.0 / (24.0 * 60.0)

# Most steps in one run (about two years of minutes): bounds its time and memory.
_MAX_STEPS = 1_000_000

# Most entries of a kernel's table of voter-network rates by vote count
# (512 KB): a run's count is bounded only by the promotion bar.
_VOTER_TABLE_CAP = 1 << 16

# A story has saturated once its vote rate stays this low this many steps.
_SATURATION_RATE = 1e-6
_SATURATION_STEPS = 60


def _pow(base: float, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` by Python's float pow, over a 1-d array.

    Every power of the model goes through here.  ``np.power`` differs from
    the C library's ``pow`` in the last bit on about 5% of inputs, so each
    exponent is mapped through ``float.__pow__`` instead.
    """
    power = float(base).__pow__
    return np.fromiter(map(power, exponent.tolist()), float, exponent.size)


def _queue_rate(t: np.ndarray, params: VoteModelParams) -> np.ndarray:
    """Upcoming-queue viewers per minute at the times ``t``; the story
    starts on page 1 at t=0 and drifts down ``k_u`` pages per minute until
    ``upcoming_window`` (inclusive), after which the rate is 0.0."""
    rate = np.zeros(t.shape)
    inside = t <= params.upcoming_window
    page = params.k_u * t[inside] + 1.0
    rate[inside] = params.c * _pow(params.c_u, page - 1.0) * params.visit_rate_N
    return rate


def _front_rate(age: np.ndarray, params: VoteModelParams) -> np.ndarray:
    """Front-page viewers per minute at the ``age``s since promotion; the
    front page turns over slowly (``k_f`` << ``k_u``)."""
    page = params.k_f * age + 1.0
    return _pow(params.c_f, page - 1.0) * params.visit_rate_N


def _submitter_rate(
    t: np.ndarray, story: StoryConfig, params: VoteModelParams
) -> np.ndarray:
    """The submitter's S reverse friends at the times ``t``: S/1440 per
    minute until the pool drains or the friends window closes."""
    s = story.submitter_network_S
    pool_rate = s * _FRIENDS_RATE_UNIT
    inside = (t <= params.friends_window) & (s - pool_rate * t >= 0.0)
    return np.where(inside, pool_rate, 0.0)


def _voter_rate(m: float, params: VoteModelParams) -> float:
    """Viewers per minute from the joint reverse-friend network of m voters,
    which overlap makes grow logarithmically (alpha = beta = 0: disabled)."""
    network = params.sm_alpha * math.log(m, params.sm_log_base) + params.sm_beta
    return _FRIENDS_RATE_UNIT * max(0.0, network)


@functools.lru_cache(maxsize=4)
def _time_table(rate, params: VoteModelParams, n_steps: int) -> np.ndarray:
    """``rate(t, params)`` at the step midpoints ``t = (k + 0.5) * dt``.

    Read-only and cached per ``[vote]`` record and step count, so the
    points of a sweep that share them share one table.
    """
    t = (np.arange(n_steps) + 0.5) * params.dt
    # overflow to inf or nan as Python floats do, where numpy would warn
    # or raise; the caller checks what comes of them
    with np.errstate(over="ignore", invalid="ignore"):
        table = rate(t, params)
    table.flags.writeable = False
    return table


class RateKernel:
    """Total visibility rate over a segment of steps, as the Monte Carlo
    ensemble reads it; :func:`integrate_votes` reads its tables.

    The time-only terms are one table per channel, each the channel
    function on the array of step midpoints ``t = (k + 0.5) * dt``, with
    no Python call per step and its powers by Python's float pow
    (:func:`_pow`, not ``np.power``): ``queue``, ``submitter``, and
    ``front[a]``, the front page ``a + 0.5`` steps after promotion.
    ``unpromoted`` is ``queue + submitter``.  All are built with the
    kernel; the queue and front-page tables come from the cache of
    :func:`_time_table`, so the kernels of one ``[vote]`` record and step
    count share them, read-only.  Called on vectors, it gives the
    ``(k1 - k0) x runs`` rates of steps ``k0 .. k1 - 1`` of runs promoted
    at the end of step ``promo_step`` (``>= n_steps``: not promoted).

    The voter-network term, the one scalar channel, is added while
    ``k < voter_steps``.  It reads ``m``, the vote counts before step
    ``k0``, so a segment wider than one step is exact only where that term
    is off.  Its one formula is :func:`_voter_rate`, which fills a table by
    vote count as counts reach it.  An unpromoted run's count is bounded
    only by the bar, so the table doubles only up to ``_VOTER_TABLE_CAP``
    entries, and a count at or above the cap calls :func:`_voter_rate` for
    itself.  A run promoted before ``k0`` has every row overwritten by the
    front page, so it is looked up as count 1.
    """

    def __init__(self, story: StoryConfig, params: VoteModelParams, n_steps: int):
        t = (np.arange(n_steps) + 0.5) * params.dt
        self._params = params
        self.submitter = _submitter_rate(t, story, params)
        self.queue = _time_table(_queue_rate, params, n_steps)
        self.front = _time_table(_front_rate, params, n_steps)
        self.unpromoted = self.queue + self.submitter
        has_voters = params.sm_alpha > 0.0 or params.sm_beta > 0.0
        in_friends = int(np.count_nonzero(t <= params.friends_window))
        self.voter_steps = in_friends if has_voters else 0
        self._voter = np.array([np.nan])  # by vote count; no run has 0 votes

    def _voter_rates(self, m: np.ndarray) -> np.ndarray:
        """``_voter_rate(float(j), params)`` for each vote count ``j`` in ``m``;
        a count at or above the cap never grows the table."""
        top = int(m.max())
        if top >= self._voter.size:
            below = m[m < _VOTER_TABLE_CAP]
            if below.size and int(below.max()) >= self._voter.size:
                new = range(self._voter.size, 1 << int(below.max()).bit_length())
                grown = [_voter_rate(float(j), self._params) for j in new]
                self._voter = np.concatenate([self._voter, grown])
        if top < _VOTER_TABLE_CAP:
            return self._voter[m]
        over = m >= _VOTER_TABLE_CAP
        rates = self._voter[np.where(over, 0, m)]
        rates[over] = [_voter_rate(float(j), self._params) for j in m[over].tolist()]
        return rates

    def __call__(
        self, k0: int, k1: int, m: np.ndarray, promo_step: np.ndarray
    ) -> np.ndarray:
        rate = np.repeat(self.unpromoted[k0:k1, None], m.size, axis=1)
        if k0 < self.voter_steps:
            # a run promoted before k0 has every row overwritten below
            counts = np.where(promo_step < k0, 1, m)
            rate[: self.voter_steps - k0] += self._voter_rates(counts)
        age = np.arange(k0 - 1, k1 - 1)[:, None] - promo_step
        promoted = age >= 0
        if promoted.any():
            steps = np.nonzero(promoted)[0]
            rate[promoted] = self.front[age[promoted]] + self.submitter[k0 + steps]
        return rate


def step_count(horizon: float, dt: float) -> int:
    """Number of ``dt`` steps in ``horizon``; ValueError unless ``horizon``
    is > 0 and a whole number of steps, and the steps few enough.  Every
    entry point of the vote model checks its horizon here."""
    _check(horizon, "> 0", "horizon")
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

    Each step adds ``r * rate * dt`` votes, ``rate`` being the total of
    the four channels: tau-leaping with each Poisson draw replaced by its
    mean.  Page positions and windows are sampled at the step
    midpoint, the vote count and promotion status at its start.  Midpoint
    sampling keeps the sum within a fraction of a percent of the
    continuous-time integral at dt = 1; the left endpoint overshoots the
    queue-decay integral by several percent.

    The promotion rule is checked after each step; crossing the bar,
    ``policy.threshold(story)``, marks the story promoted from the end of
    that step onward.  After it the rate is the kernel's ``front`` plus
    ``submitter``; before it, its ``unpromoted`` plus the voter network
    inside the friends window.

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
    threshold = policy.threshold(story)
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
            rate = kernel.front[: n_steps - done] + kernel.submitter[done:]
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
    _check(r, "in [0, 1]", "r")
    return 1.0 - r * params.c * params.visit_rate_N / (
        params.k_u * math.log(params.c_u)
    )


def saturation_time(trajectory: VoteTrajectory) -> float | None:
    """First time the vote rate stays below ``_SATURATION_RATE`` votes per
    minute for ``_SATURATION_STEPS`` steps.

    Returns None when the trajectory never settles within its horizon.
    """
    dm = np.diff(trajectory.votes_m)
    dt = np.diff(trajectory.times)
    slow = (dm / dt) < _SATURATION_RATE
    if slow.size < _SATURATION_STEPS:
        return None
    run = np.ones(_SATURATION_STEPS, dtype=int)
    window = np.convolve(slow.astype(int), run, "valid")
    hits = np.nonzero(window == _SATURATION_STEPS)[0]
    if hits.size == 0:
        return None
    return float(trajectory.times[hits[0]])
