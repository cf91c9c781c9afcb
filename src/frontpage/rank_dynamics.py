"""Weekly dynamics of a user's front-page tally and social network.

A user's chance of getting a story promoted grows with the size of their
reverse-friend network (friends vote early, which is what promotion
rewards), and the network in turn grows with visible success: a standing
trickle from stories already on the front page, plus a burst for each new
promotion.  Iterating the two coupled updates week over week produces the
rich-get-richer growth seen in active users' histories, and stagnation
once submissions stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _check
from .core import RankModelParams, RunOptions, UserState, _raise_if

__all__ = [
    "RankTrajectory",
    "success_rate",
    "rank_proxy",
    "step_week",
    "integrate_rank",
]


@dataclass(frozen=True)
class RankTrajectory:
    """A user's week-by-week front-page count and network size."""

    weeks: np.ndarray
    front_page_F: np.ndarray
    network_S: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weeks, dtype=float)
        f = np.asarray(self.front_page_F, dtype=float)
        s = np.asarray(self.network_S, dtype=float)
        object.__setattr__(self, "weeks", w)
        object.__setattr__(self, "front_page_F", f)
        object.__setattr__(self, "network_S", s)
        bad: list[str] = []
        if w.ndim != 1 or w.size == 0:
            bad.append("weeks must be a non-empty 1-d array")
        elif f.shape != w.shape or s.shape != w.shape:
            bad.append("front_page_F and network_S must match weeks in shape")
        else:
            if np.any(np.diff(w) <= 0):
                bad.append("weeks must be strictly increasing")
            if np.any(f < 0) or np.any(np.diff(f) < 0):
                bad.append("front_page_F must be nonnegative and nondecreasing")
            if np.any(s < 0) or np.any(np.diff(s) < 0):
                bad.append("network_S must be nonnegative and nondecreasing")
        _raise_if(bad)


def success_rate(network_S: float, params: RankModelParams) -> float:
    """Fraction of a user's submissions that reach the front page.

    Linear in network size — each reverse friend adds a fixed increment
    of early-vote support.  The line is a fit over observed network
    sizes and is not clipped at 1.
    """
    _check(network_S, ">= 0", "network_S")
    return params.c_success * network_S


def rank_proxy(front_page_F: float, kappa: float = 1.0) -> float | None:
    """Rank stand-in ``kappa / F``: rank improves (shrinks) as F grows.

    Returns None while the user has no front-page stories ("unranked").
    Ties and activity-based tie-breaking are deliberately out of model:
    the proxy is a strict function of F alone.
    """
    _check(front_page_F, ">= 0", "front_page_F")
    _check(kappa, "> 0", "kappa")
    if front_page_F == 0.0:
        return None
    return kappa / front_page_F


def step_week(state: UserState, params: RankModelParams) -> UserState:
    """Advance one week using start-of-week values on the right-hand side.

    The week's promotions are the success rate times the submissions
    made; the network gains its standing per-front-page-story increment
    plus ``b`` reverse friends per new promotion.  Both increments read
    the pre-step state, so the update is synchronous: the order of the
    two assignments does not matter.  OverflowError if either value grows
    past floating point.
    """
    dt = params.dt_weeks
    dF = success_rate(state.network_S, params) * state.submission_rate_M * dt
    dS = params.a * state.front_page_F * dt + params.b * dF
    front_page_F = state.front_page_F + dF
    network_S = state.network_S + dS
    if not (math.isfinite(front_page_F) and math.isfinite(network_S)):
        raise OverflowError(
            f"front_page_F is {front_page_F} and network_S is {network_S}: "
            "the rank model overflows floating point"
        )
    return UserState(
        front_page_F=front_page_F,
        network_S=network_S,
        submission_rate_M=state.submission_rate_M,
    )


def integrate_rank(
    initial: UserState, params: RankModelParams, run: RunOptions
) -> RankTrajectory:
    """Trajectory over ``run.weeks`` weekly steps, including the initial state.

    ``run.M_schedule`` optionally varies the submission rate week by week,
    with one entry per week; the record has checked both.  When it is None,
    the initial state's rate is used throughout.  OverflowError, naming the
    week, if F or S grows past floating point.
    """
    weeks, schedule = run.weeks, run.M_schedule
    if schedule is None:
        schedule = [initial.submission_rate_M] * weeks

    w = np.arange(weeks + 1, dtype=float) * params.dt_weeks
    f = np.empty(weeks + 1, dtype=float)
    s = np.empty(weeks + 1, dtype=float)
    f[0] = initial.front_page_F
    s[0] = initial.network_S
    current = initial
    for k, rate in enumerate(schedule):
        if rate != current.submission_rate_M:
            current = replace(current, submission_rate_M=rate)
        try:
            current = step_week(current, params)
        except OverflowError as exc:
            raise OverflowError(f"week {k + 1}: {exc}") from None
        f[k + 1] = current.front_page_F
        s[k + 1] = current.network_S
    return RankTrajectory(weeks=w, front_page_F=f, network_S=s)
