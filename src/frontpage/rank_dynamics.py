"""Weekly dynamics of a user's front-page tally and social network.

A user's chance of getting a story promoted grows with the size of their
reverse-friend network (friends vote early, which is what promotion
rewards), and the network in turn grows with visible success: a standing
trickle from stories already on the front page, plus a burst for each new
promotion.  Iterating the two coupled updates week over week produces the
rich-get-richer growth seen in active users' histories, and stagnation
once submissions stop.

Each rule is written once: :func:`_step` is the weekly update, on Python
floats, with the unclipped success law ``c_success * S``;
:func:`integrate_rank` loops it, and :func:`rank_proxies` is ``kappa / F``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS, _check
from .core import RankModelParams, RunOptions, UserState, _Record, _series

__all__ = list(_EXPORTS["rank_dynamics"])


@dataclass(frozen=True)
class RankTrajectory(_Record):
    """A user's week-by-week front-page count and network size."""

    weeks: np.ndarray = _series("strictly increasing")
    front_page_F: np.ndarray = _series("nonnegative and nondecreasing")
    network_S: np.ndarray = _series("nonnegative and nondecreasing")


def rank_proxies(front_page_F: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    """Rank stand-in ``kappa / F`` of each F of a column, NaN while F = 0.

    ``kappa`` is checked; the column is not, as :class:`RankTrajectory`
    checks a trajectory's F.  OverflowError if a proxy overflows floating point.
    """
    _check(kappa, "> 0", "kappa")
    F = np.asarray(front_page_F, dtype=float)
    try:
        with np.errstate(over="raise"):
            return np.divide(float(kappa), F, out=np.full_like(F, np.nan),
                             where=F != 0.0)
    except FloatingPointError:
        nonzero = F[F != 0.0]
        f = nonzero[np.nanargmin(np.abs(nonzero))]
        raise OverflowError(f"rank_proxy column: kappa ({kappa}) / front_page_F ({f}) "
                            "overflows floating point") from None


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


def integrate_rank(
    initial: UserState, params: RankModelParams, run: RunOptions
) -> RankTrajectory:
    """Trajectory over ``run.weeks`` weekly steps, including the initial state.

    ``run.M_schedule`` optionally varies the submission rate week by week,
    with one entry per week; the record has checked both.  When it is None,
    the initial state's rate is used throughout.  OverflowError, naming the
    week, if F or S grows past floating point, or the week column does.
    """
    weeks, schedule = run.weeks, run.M_schedule
    if schedule is None:
        schedule = itertools.repeat(initial.submission_rate_M, weeks)
    if not math.isfinite(weeks * float(params.dt_weeks)):
        raise OverflowError(f"week column: weeks ({weeks}) * dt_weeks "
                            f"({params.dt_weeks}) overflows floating point")
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
