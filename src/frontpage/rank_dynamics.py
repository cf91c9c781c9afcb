"""Weekly dynamics of a user's front-page tally and social network.

A user's chance of getting a story promoted grows with the size of their
reverse-friend network (friends vote early, which is what promotion
rewards), and the network in turn grows with visible success: a standing
trickle from stories already on the front page, plus a burst for each new
promotion.  Iterating the two coupled updates week over week produces the
rich-get-richer growth seen in active users' histories, and stagnation
once submissions stop.

The weekly update is written once, in :func:`_step`, on Python floats:
:func:`step_week` wraps it for one :class:`UserState` and
:func:`integrate_rank` loops it over a run, building no record per week.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _check
from .core import RankModelParams, RunOptions, UserState, _Record, _series

__all__ = [
    "RankTrajectory",
    "success_rate",
    "rank_proxy",
    "rank_proxies",
    "step_week",
    "integrate_rank",
]


@dataclass(frozen=True)
class RankTrajectory(_Record):
    """A user's week-by-week front-page count and network size."""

    weeks: np.ndarray = _series("strictly increasing")
    front_page_F: np.ndarray = _series("nonnegative and nondecreasing")
    network_S: np.ndarray = _series("nonnegative and nondecreasing")


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
    with np.errstate(over="ignore"):  # as Python's float division: inf
        [proxy] = rank_proxies(np.array([front_page_F], dtype=float), kappa).tolist()
    return None if math.isnan(proxy) else proxy


def rank_proxies(front_page_F: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    """:func:`rank_proxy` of each F of a column, NaN where it is None.

    ``kappa`` is checked; the column is not, as :class:`RankTrajectory`
    checks a trajectory's F.
    """
    _check(kappa, "> 0", "kappa")
    F = np.asarray(front_page_F, dtype=float)
    return np.divide(float(kappa), F, out=np.full_like(F, np.nan), where=F != 0.0)


def _step(F: float, S: float, M: float, params: RankModelParams) -> tuple[float, float]:
    """``(F, S)`` one step of ``dt_weeks`` on from ``F`` and ``S`` at rate ``M``.

    The week's promotions are the success rate times the submissions
    made; the network gains its standing per-front-page-story increment
    plus ``b`` reverse friends per new promotion.  Both increments read
    the start-of-week values, so on nonnegative inputs neither value
    shrinks.  OverflowError if either grows past floating point.
    """
    dt = params.dt_weeks
    dF = params.c_success * S * M * dt
    dS = params.a * F * dt + params.b * dF
    F, S = F + dF, S + dS
    if not (math.isfinite(F) and math.isfinite(S)):
        raise OverflowError(
            f"front_page_F is {F} and network_S is {S}: "
            "the rank model overflows floating point"
        )
    return F, S


def step_week(state: UserState, params: RankModelParams) -> UserState:
    """Advance one week by :func:`_step`; the submission rate carries over.
    OverflowError if either value grows past floating point."""
    M = state.submission_rate_M
    F, S = _step(state.front_page_F, state.network_S, M, params)
    return UserState(front_page_F=F, network_S=S, submission_rate_M=M)


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
        schedule = itertools.repeat(initial.submission_rate_M, weeks)
    w = np.arange(weeks + 1, dtype=float) * params.dt_weeks
    f = np.empty(weeks + 1, dtype=float)
    s = np.empty(weeks + 1, dtype=float)
    F, S = f[0], s[0] = float(initial.front_page_F), float(initial.network_S)
    try:
        for k, rate in enumerate(schedule, 1):
            F, S = f[k], s[k] = _step(F, S, float(rate), params)
    except OverflowError as exc:
        raise OverflowError(f"week {k}: {exc}") from None
    return RankTrajectory(weeks=w, front_page_F=f, network_S=s)
