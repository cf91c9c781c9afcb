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

from .core import ParameterError, RankModelParams, UserState

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
        if bad:
            raise ParameterError("; ".join(bad))


def success_rate(network_S: float, params: RankModelParams) -> float:
    """Fraction of a user's submissions that reach the front page.

    Linear in network size — each reverse friend adds a fixed increment
    of early-vote support.  The line is a fit over observed network
    sizes and is not clipped at 1.
    """
    if not (math.isfinite(network_S) and network_S >= 0.0):
        raise ValueError(f"network_S must be >= 0, got {network_S}")
    return params.c_success * network_S


def rank_proxy(front_page_F: float, kappa: float = 1.0) -> float | None:
    """Rank stand-in ``kappa / F``: rank improves (shrinks) as F grows.

    Returns None while the user has no front-page stories ("unranked").
    Ties and activity-based tie-breaking are deliberately out of model:
    the proxy is a strict function of F alone.
    """
    if not (math.isfinite(front_page_F) and front_page_F >= 0.0):
        raise ValueError(f"front_page_F must be >= 0, got {front_page_F}")
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if front_page_F == 0.0:
        return None
    return kappa / front_page_F


def step_week(state: UserState, params: RankModelParams) -> UserState:
    """Advance one week using start-of-week values on the right-hand side.

    The week's promotions are the success rate times the submissions
    made; the network gains its standing per-front-page-story increment
    plus ``b`` reverse friends per new promotion.  Both increments read
    the pre-step state, so the update is synchronous: the order of the
    two assignments does not matter.
    """
    dt = params.dt_weeks
    dF = success_rate(state.network_S, params) * state.submission_rate_M * dt
    dS = params.a * state.front_page_F * dt + params.b * dF
    return UserState(
        front_page_F=state.front_page_F + dF,
        network_S=state.network_S + dS,
        submission_rate_M=state.submission_rate_M,
    )


def integrate_rank(
    initial: UserState,
    params: RankModelParams,
    weeks: int,
    M_schedule=None,
) -> RankTrajectory:
    """Trajectory over ``weeks`` weekly steps, including the initial state.

    ``M_schedule`` optionally varies the submission rate week by week:
    either a single number applied every week or a sequence with one
    entry per week.  When omitted, the initial state's rate is used
    throughout.
    """
    if not isinstance(weeks, int) or isinstance(weeks, bool) or weeks < 1:
        raise ValueError(f"weeks must be a positive integer, got {weeks}")
    if M_schedule is None:
        schedule = [initial.submission_rate_M] * weeks
    elif np.ndim(M_schedule) == 0:
        schedule = [float(M_schedule)] * weeks
    else:
        schedule = [float(m) for m in M_schedule]
        if len(schedule) != weeks:
            raise ValueError(
                f"M_schedule has {len(schedule)} entries but the run is "
                f"{weeks} weeks"
            )

    w = np.arange(weeks + 1, dtype=float) * params.dt_weeks
    f = np.empty(weeks + 1, dtype=float)
    s = np.empty(weeks + 1, dtype=float)
    f[0] = initial.front_page_F
    s[0] = initial.network_S
    current = initial
    for k, rate in enumerate(schedule):
        if rate != current.submission_rate_M:
            current = replace(current, submission_rate_M=rate)
        current = step_week(current, params)
        f[k + 1] = current.front_page_F
        s[k + 1] = current.network_S
    return RankTrajectory(weeks=w, front_page_F=f, network_S=s)
