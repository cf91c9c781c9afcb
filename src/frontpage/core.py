"""Domain types and validation for the collaborative-rating toolkit.

Two families of records live here: the constants and inputs of the
story-vote model (minute resolution) and of the user-rank model (week
resolution), plus the observation tuple used by the friend-voting
significance test.  Every record checks its invariants on construction and
is frozen afterwards, so validated instances can be shared freely between
concurrent runs.

The run settings of the ``[run]`` and ``[ensemble]`` config sections are
records too.  :func:`record_from_mapping` builds any record from the raw
strings of one config section; see :mod:`frontpage.cli` for the layout.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, fields
from typing import Mapping, Union

import numpy as np

__all__ = [
    "ParameterError",
    "VoteModelParams",
    "StoryConfig",
    "VoteTrajectory",
    "FixedThreshold",
    "NetworkProportional",
    "PromotionPolicy",
    "RankModelParams",
    "UserState",
    "FriendVoteObservation",
    "RunOptions",
    "ARRIVAL_MODES",
    "EnsembleOptions",
    "record_from_mapping",
]


class ParameterError(ValueError):
    """One or more invariants are violated.

    The message lists *every* violation, each naming the offending field
    and the bound it broke.
    """


# Longest rank-model run (about 19,000 years of weeks): bounds its time and memory.
_MAX_WEEKS = 1_000_000
# Largest voter sample of the chance-probability test: its binomial tail
# then sums at most ~4e5 terms (under a second), where 10^30 would never end.
_MAX_SAMPLE_N = 100_000_000


def _raise_if(violations: list[str]) -> None:
    if violations:
        raise ParameterError("; ".join(violations))


def _is_integral(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and float(value).is_integer()
    )


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


@dataclass(frozen=True)
class VoteModelParams:
    """Constants of the story-vote model.

    All rates are per minute.  The stock values are the fitted site-wide
    constants; only the story-specific inputs (interestingness and the
    submitter's network) change from one submission to the next.
    """

    c: float = 0.3              # share of visitors who browse the upcoming section
    c_u: float = 0.3            # fraction proceeding from one upcoming page to the next
    c_f: float = 0.3            # fraction proceeding from one front page to the next
    visit_rate_N: float = 10.0  # site visitors per minute
    k_u: float = 0.060          # upcoming-queue page drift, pages/minute
    k_f: float = 0.003          # front-page drift, pages/minute
    sm_alpha: float = 112.0     # voter-network growth law: alpha * log(m) + beta
    sm_beta: float = 47.0
    sm_log_base: float = math.e  # base of the voter-network logarithm
    upcoming_window: float = 1440.0  # minutes a story stays in the upcoming queue
    friends_window: float = 2880.0   # minutes a story stays in the friends interface
    dt: float = 1.0             # integration step, minutes

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        if not (_finite(self.c) and 0.0 < self.c <= 1.0):
            bad.append(f"c must be in (0, 1], got {self.c}")
        if not (_finite(self.c_u) and 0.0 < self.c_u < 1.0):
            bad.append(f"c_u must be in (0, 1), got {self.c_u}")
        if not (_finite(self.c_f) and 0.0 < self.c_f < 1.0):
            bad.append(f"c_f must be in (0, 1), got {self.c_f}")
        if not (_finite(self.visit_rate_N) and self.visit_rate_N > 0.0):
            bad.append(f"visit_rate_N must be > 0, got {self.visit_rate_N}")
        if not (_finite(self.k_u) and self.k_u > 0.0):
            bad.append(f"k_u must be > 0, got {self.k_u}")
        if not (_finite(self.k_f) and self.k_f >= 0.0):
            bad.append(f"k_f must be >= 0, got {self.k_f}")
        if not (_finite(self.sm_alpha) and self.sm_alpha >= 0.0):
            bad.append(f"sm_alpha must be >= 0, got {self.sm_alpha}")
        if not (_finite(self.sm_beta) and self.sm_beta >= 0.0):
            bad.append(f"sm_beta must be >= 0, got {self.sm_beta}")
        if not (
            _finite(self.sm_log_base)
            and self.sm_log_base > 0.0
            and self.sm_log_base != 1.0
        ):
            bad.append(f"sm_log_base must be positive and != 1, got {self.sm_log_base}")
        if not (_finite(self.upcoming_window) and self.upcoming_window > 0.0):
            bad.append(f"upcoming_window must be > 0, got {self.upcoming_window}")
        if not (_finite(self.friends_window) and self.friends_window > 0.0):
            bad.append(f"friends_window must be > 0, got {self.friends_window}")
        elif _finite(self.upcoming_window) and not (
            self.upcoming_window < self.friends_window
        ):
            bad.append(
                f"upcoming_window ({self.upcoming_window}) must be shorter than "
                f"friends_window ({self.friends_window})"
            )
        if not (_finite(self.dt) and self.dt > 0.0):
            bad.append(f"dt must be > 0, got {self.dt}")
        return bad


@dataclass(frozen=True)
class StoryConfig:
    """A single story's inputs: how interesting it is and who submitted it."""

    interestingness_r: float      # probability a viewer votes on the story
    submitter_network_S: int = 0  # submitter's reverse friends

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        if not (_finite(self.interestingness_r) and 0.0 <= self.interestingness_r <= 1.0):
            bad.append(
                f"interestingness_r must be in [0, 1], got {self.interestingness_r}"
            )
        if not _is_integral(self.submitter_network_S) or self.submitter_network_S < 0:
            bad.append(
                f"submitter_network_S must be a non-negative integer, "
                f"got {self.submitter_network_S}"
            )
        return bad


@dataclass(frozen=True)
class VoteTrajectory:
    """A story's vote history on a fixed time grid.

    ``votes_m`` is float-valued for mean-field runs and integer-valued for
    stochastic ones; either way it starts at the submitter's own vote and
    never decreases.  ``promotion_time_Th`` is the end of the step in
    which the promotion policy first fired, or None if it never did.
    """

    times: np.ndarray
    votes_m: np.ndarray
    promotion_time_Th: float | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.votes_m)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "votes_m", m)
        bad: list[str] = []
        if t.ndim != 1 or t.size == 0:
            bad.append("times must be a non-empty 1-d array")
        elif m.shape != t.shape:
            bad.append(f"votes_m shape {m.shape} does not match times shape {t.shape}")
        else:
            if np.any(np.diff(t) <= 0):
                bad.append("times must be strictly increasing")
            if m[0] != 1:
                bad.append(f"votes_m must start at 1 (submitter's vote), got {m[0]}")
            if np.any(np.diff(m) < 0):
                bad.append("votes_m must be nondecreasing")
        if self.promotion_time_Th is not None and not _finite(self.promotion_time_Th):
            bad.append(
                f"promotion_time_Th must be finite or None, got {self.promotion_time_Th}"
            )
        _raise_if(bad)

    @property
    def final_votes(self):
        """Vote count at the end of the horizon."""
        return self.votes_m[-1].item()


@dataclass(frozen=True)
class FixedThreshold:
    """Promote once the vote count reaches a site-wide constant."""

    h: int = 40

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        if not _is_integral(self.h) or self.h < 2:
            return [
                f"h must be an integer >= 2 (a story starts with one vote), got {self.h}"
            ]
        return []


@dataclass(frozen=True)
class NetworkProportional:
    """Promote once votes reach ``factor`` times the submitter's network size.

    Scaling the bar with the network keeps low-interest stories off the
    front page even when the submitter's reverse friends vote early and
    often.
    """

    factor: float = 1.5

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        if not (_finite(self.factor) and self.factor > 0.0):
            return [f"factor must be > 0, got {self.factor}"]
        return []


PromotionPolicy = Union[FixedThreshold, NetworkProportional]


@dataclass(frozen=True)
class RankModelParams:
    """Constants of the weekly front-page / social-network model."""

    a: float = 0.03        # reverse friends per front-page story per week (standing)
    b: float = 1.0         # reverse friends gained per newly promoted story
    c_success: float = 0.002  # success rate per reverse friend
    dt_weeks: float = 1.0  # integration step, weeks

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        for name in ("a", "b", "c_success"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0.0):
                bad.append(f"{name} must be >= 0, got {value}")
        if not (_finite(self.dt_weeks) and self.dt_weeks > 0.0):
            bad.append(f"dt_weeks must be > 0, got {self.dt_weeks}")
        return bad


@dataclass(frozen=True)
class UserState:
    """A user's evolving state in the rank model.

    Front-page count and network size are real-valued in the model
    (fractional weekly increments accumulate); round only for display.
    """

    front_page_F: float       # cumulative stories promoted to the front page
    network_S: float          # reverse friends
    submission_rate_M: float  # stories submitted per week

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        for name in ("front_page_F", "network_S", "submission_rate_M"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0.0):
                bad.append(f"{name} must be >= 0, got {value}")
        return bad


@dataclass(frozen=True)
class FriendVoteObservation:
    """One story's voter sample for the chance-probability test.

    Of ``sample_n`` voters drawn from a pool of ``pool_N`` users,
    ``overlap_k`` belonged to the submitter's group of ``group_K``
    reverse friends.
    """

    pool_N: int
    sample_n: int
    group_K: int
    overlap_k: int

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        for name in ("pool_N", "sample_n", "group_K", "overlap_k"):
            if not _is_integral(getattr(self, name)):
                bad.append(f"{name} must be an integer, got {getattr(self, name)}")
        if bad:
            return bad
        if self.pool_N < 1:
            bad.append(f"pool_N must be >= 1, got {self.pool_N}")
        if not 0 <= self.sample_n <= self.pool_N:
            bad.append(
                f"sample_n must be in [0, pool_N], got {self.sample_n} "
                f"with pool_N={self.pool_N}"
            )
        elif self.sample_n > _MAX_SAMPLE_N:
            bad.append(f"sample_n must be at most {_MAX_SAMPLE_N}, got {self.sample_n}")
        if not 0 <= self.group_K <= self.pool_N:
            bad.append(
                f"group_K must be in [0, pool_N], got {self.group_K} "
                f"with pool_N={self.pool_N}"
            )
        if not 0 <= self.overlap_k <= min(self.sample_n, self.group_K):
            bad.append(
                f"overlap_k must be in [0, min(sample_n, group_K)], "
                f"got {self.overlap_k}"
            )
        return bad


@dataclass(frozen=True)
class RunOptions:
    """Run length of the models, and how the rank model reports rank."""

    horizon_minutes: float = 2880.0  # vote-model horizon
    weeks: int = 25                  # rank-model horizon
    rank_kappa: float = 1.0          # rank proxy is kappa / F
    M_schedule: tuple[float, ...] | None = None  # per-week submission rates

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        bad: list[str] = []
        if not (_finite(self.horizon_minutes) and self.horizon_minutes > 0):
            bad.append(f"horizon_minutes must be > 0, got {self.horizon_minutes}")
        if not _is_integral(self.weeks) or self.weeks < 1:
            bad.append(f"weeks must be >= 1, got {self.weeks}")
        elif self.weeks > _MAX_WEEKS:
            bad.append(f"weeks must be at most {_MAX_WEEKS}, got {self.weeks}")
        if not (_finite(self.rank_kappa) and self.rank_kappa > 0):
            bad.append(f"rank_kappa must be > 0, got {self.rank_kappa}")
        if self.M_schedule is not None and len(self.M_schedule) != self.weeks:
            bad.append(
                f"M_schedule has {len(self.M_schedule)} entries "
                f"but weeks = {self.weeks}"
            )
        return bad


ARRIVAL_MODES = ("poisson", "mean")


@dataclass(frozen=True)
class EnsembleOptions:
    """Size, seed and arrival mode of a stochastic ensemble."""

    runs: int = 100
    seed: int = 0
    arrival_mode: str = "poisson"

    def __post_init__(self) -> None:
        _raise_if(self._violations())

    def _violations(self) -> list[str]:
        # also the checks of StochasticRunConfig, which has these fields
        bad: list[str] = []
        if not _is_integral(self.seed) or self.seed < 0:
            bad.append(f"seed must be a nonnegative integer, got {self.seed}")
        if not _is_integral(self.runs) or self.runs < 1:
            bad.append(f"runs must be a positive integer, got {self.runs}")
        if self.arrival_mode not in ARRIVAL_MODES:
            bad.append(
                f"arrival_mode must be one of {ARRIVAL_MODES}, "
                f"got {self.arrival_mode!r}"
            )
        return bad


# --- building records from config strings -----------------------------------

def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        value = float(raw)  # may raise again; caller reports the key
        if not value.is_integer():
            raise ValueError(f"{raw!r} is not an integer") from None
        return int(value)


def _parse_floats(raw: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in raw.split(",") if v.strip())
    if not values:
        raise ValueError("no values")
    return values


# Keyed by the field annotations as written (they are strings here).
_CASTERS = {
    "int": _parse_int,
    "float": float,
    "str": str,
    "tuple[float, ...] | None": _parse_floats,
}


def record_from_mapping(cls, mapping: Mapping[str, str]):
    """Build a record from string values, coercing per field type.

    Unknown keys and unparseable values raise :class:`ParameterError`
    naming the key; omitted keys fall back to the record's defaults.
    """
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ParameterError(
            f"unknown key(s) for {cls.__name__}: {', '.join(unknown)}"
        )
    kwargs = {}
    for key, raw in mapping.items():
        caster = _CASTERS[known[key].type]
        try:
            kwargs[key] = caster(str(raw).strip())
        except ValueError:
            raise ParameterError(
                f"{key}: cannot parse {raw!r} as {known[key].type}"
            ) from None
    required = [
        f.name
        for f in fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
        and f.name not in kwargs
    ]
    if required:
        raise ParameterError(
            f"missing required key(s) for {cls.__name__}: {', '.join(required)}"
        )
    return cls(**kwargs)
