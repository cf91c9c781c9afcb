"""Domain types and validation for the collaborative-rating toolkit.

Two families of records live here: the constants and inputs of the
story-vote model (minute resolution) and of the user-rank model (week
resolution), plus the friend-voting test's observation and a vote run's
trajectory.  Every record checks its invariants on construction and is
frozen afterwards, so validated instances can be shared freely between
concurrent runs.  Input and result records alike declare each rule once,
on the field, as the text its message states: a number's bound,
integrality and caps included (``c: float = _bounded("in (0, 1]", 0.3)``),
checked by :func:`frontpage._check` against the package's one table of
bounds, which the model functions and the command-line flags check through
too; and an array's shape and order, checked against ``_SERIES``
(``times: np.ndarray = _series("strictly increasing")``).  Only the
comparisons between fields, the non-numeric keys and a trajectory's first
vote are checked by hand.

Each promotion policy, a member of ``PromotionPolicy``, names its
``[policy] kind`` and computes its own bar: ``policy.threshold(story)`` is
the vote count at which ``story`` leaves the upcoming queue.

The run settings of the ``[run]`` and ``[ensemble]`` config sections are
records too.  :func:`record_from_mapping` builds any record from the raw
strings of one config section; see :mod:`frontpage.cli` for the layout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import ClassVar, Mapping, Union

import numpy as np

from . import _EXPORTS, _MAX_RUNS, _MAX_SAMPLE_N, _MAX_WEEKS, _check, _echo, _finite

__all__ = list(_EXPORTS["core"])


class ParameterError(ValueError):
    """One or more invariants are violated.

    The message lists *every* violation, each naming the offending field
    and the bound it broke.
    """


def _bounded(bound: str, default=dataclasses.MISSING):
    """A numeric field that must be finite and pass ``frontpage._BOUNDS[bound]``."""
    return dataclasses.field(default=default, metadata={"bound": bound})


# Each rule a series may have, as its message states it, and its test.
_SERIES = {
    "strictly increasing": lambda a: not np.any(np.diff(a) <= 0),
    "nondecreasing": lambda a: not np.any(np.diff(a) < 0),
    "nonnegative and nondecreasing":
        lambda a: not (np.any(a < 0) or np.any(np.diff(a) < 0)),
}


def _series(rule: str | None):
    """A finite 1-d array field, read by ``np.asarray(value, dtype=float)``,
    of the shape of the record's first series, that passes ``_SERIES[rule]``."""
    return dataclasses.field(metadata={"series": rule})


class _Record:
    """Base of the self-checking records.

    Constructing one raises :class:`ParameterError` listing every
    violation: first each field, in order, that :func:`frontpage._check`
    rejects for the bound declared on it with :func:`_bounded`, then the
    faults of the series declared with :func:`_series`, then every entry
    of the record's own ``_violations(broken)``, ``broken`` naming the
    fields it must not read: those that broke their bounds, every series
    if one has a bad shape, and each series that is not finite, whose
    rule is then left unchecked.  A series that cannot be read as floats
    (text, or an int past float range) is not finite.  An integer field
    holds a Python int once it passes, and a series a float array.
    """

    def __post_init__(self) -> None:
        bad, broken, series = [], set(), []
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "series" in meta:
                try:
                    value = np.asarray(value, dtype=float)
                except (TypeError, ValueError, OverflowError):
                    value = np.full(np.asarray(value, dtype=object).shape, np.nan)
                series.append((f.name, meta["series"], value))
            elif "bound" in meta:
                try:
                    value = _check(value, meta["bound"], f.name)
                except ValueError as exc:
                    bad.append(str(exc))
                    broken.add(f.name)
            object.__setattr__(self, f.name, value)
        if series:
            (first, _, head), *rest = series
            if head.ndim != 1 or head.size == 0:
                shapes = [f"{first} must be a non-empty 1-d array"]
            else:
                shapes = [
                    f"{name} shape {a.shape} does not match {first} shape {head.shape}"
                    for name, _, a in rest
                    if a.shape != head.shape
                ]
            if shapes:
                bad += shapes
                broken.update(name for name, _, _ in series)
                series = []
            for name, rule, a in series:
                if not np.isfinite(a).all():
                    bad.append(f"{name} must be finite")
                    broken.add(name)
                elif rule is not None and not _SERIES[rule](a):
                    bad.append(f"{name} must be {rule}")
        bad += self._violations(broken)
        if bad:
            raise ParameterError("; ".join(bad))

    def _violations(self, broken: set[str]) -> list[str]:
        return []


@dataclass(frozen=True)
class VoteModelParams(_Record):
    """Constants of the story-vote model.

    All rates are per minute.  The stock values are the fitted site-wide
    constants; only the story-specific inputs (interestingness and the
    submitter's network) change from one submission to the next.
    """

    c: float = _bounded("in (0, 1]", 0.3)    # share of visitors browsing upcoming
    c_u: float = _bounded("in (0, 1)", 0.3)  # share going on to the next upcoming page
    c_f: float = _bounded("in (0, 1)", 0.3)  # share going on to the next front page
    visit_rate_N: float = _bounded("> 0", 10.0)  # site visitors per minute
    k_u: float = _bounded("> 0", 0.060)      # upcoming-queue page drift, pages/minute
    k_f: float = _bounded(">= 0", 0.003)     # front-page drift, pages/minute
    # voter-network growth law: alpha * log(m) + beta, logarithm to sm_log_base
    sm_alpha: float = _bounded(">= 0", 112.0)
    sm_beta: float = _bounded(">= 0", 47.0)
    sm_log_base: float = _bounded("positive and != 1", math.e)
    upcoming_window: float = _bounded("> 0", 1440.0)  # minutes in the upcoming queue
    friends_window: float = _bounded("> 0", 2880.0)   # minutes in the friends interface
    dt: float = _bounded("> 0", 1.0)         # integration step, minutes

    def _violations(self, broken: set[str]) -> list[str]:
        up, friends = self.upcoming_window, self.friends_window
        if not broken & {"upcoming_window", "friends_window"} and friends <= up:
            return [
                f"upcoming_window ({up}) must be shorter than "
                f"friends_window ({friends})"
            ]
        return []


@dataclass(frozen=True)
class StoryConfig(_Record):
    """A single story's inputs: how interesting it is and who submitted it."""

    interestingness_r: float = _bounded("in [0, 1]")  # chance a viewer votes on it
    submitter_network_S: int = _bounded("an integer >= 0", 0)  # reverse friends


@dataclass(frozen=True)
class VoteTrajectory(_Record):
    """A story's vote history on a fixed time grid.

    ``votes_m`` is read as floats, like ``times``; it starts at the
    submitter's own vote and never decreases.  ``promotion_time_Th`` is
    the end of the step in which the promotion policy first fired, or None
    if it never did.
    """

    times: np.ndarray = _series("strictly increasing")
    votes_m: np.ndarray = _series("nondecreasing")
    promotion_time_Th: float | None = None

    def _violations(self, broken: set[str]) -> list[str]:
        bad, m, th = [], self.votes_m, self.promotion_time_Th
        if "votes_m" not in broken and m[0] != 1:
            bad.append(f"votes_m must start at 1 (submitter's vote), got {m[0]}")
        if th is not None and not _finite(th):
            bad.append(f"promotion_time_Th must be finite or None, got {th}")
        return bad

    @property
    def final_votes(self):
        """Vote count at the end of the horizon."""
        return self.votes_m[-1].item()


@dataclass(frozen=True)
class FixedThreshold(_Record):
    """Promote once the vote count reaches a site-wide constant."""

    kind: ClassVar[str] = "fixed"
    h: int = _bounded("an integer >= 2", 40)  # a story starts with one vote

    def threshold(self, story: StoryConfig) -> float:
        """Votes required before ``story`` leaves the upcoming queue."""
        return float(self.h)


# Minimum bar for the network-proportional promotion rule, so that a
# submitter with no reverse friends still needs more than their own vote.
_PROPORTIONAL_FLOOR = 2.0


@dataclass(frozen=True)
class NetworkProportional(_Record):
    """Promote once votes reach ``factor`` times the submitter's network size.

    Scaling the bar with the network keeps low-interest stories off the
    front page even when the submitter's reverse friends vote early and
    often.
    """

    kind: ClassVar[str] = "network_proportional"
    factor: float = _bounded("> 0", 1.5)

    def threshold(self, story: StoryConfig) -> float:
        """Votes required before ``story`` leaves the upcoming queue."""
        return max(_PROPORTIONAL_FLOOR, self.factor * story.submitter_network_S)


# The promotion policies, the ``[policy]`` record: its ``kind`` key names
# one by its ``kind``, the first member's by default.
PromotionPolicy = Union[FixedThreshold, NetworkProportional]


@dataclass(frozen=True)
class RankModelParams(_Record):
    """Constants of the weekly front-page / social-network model."""

    a: float = _bounded(">= 0", 0.03)  # reverse friends per front-page story-week
    b: float = _bounded(">= 0", 1.0)   # reverse friends per newly promoted story
    c_success: float = _bounded(">= 0", 0.002)  # success rate per reverse friend
    dt_weeks: float = _bounded("> 0", 1.0)      # integration step, weeks


@dataclass(frozen=True)
class UserState(_Record):
    """A user's evolving state in the rank model.

    Front-page count and network size are real-valued in the model
    (fractional weekly increments accumulate); round only for display.
    """

    front_page_F: float = _bounded(">= 0")       # stories promoted so far
    network_S: float = _bounded(">= 0")          # reverse friends
    submission_rate_M: float = _bounded(">= 0")  # stories submitted per week


@dataclass(frozen=True)
class FriendVoteObservation(_Record):
    """One story's voter sample for the chance-probability test.

    Of ``sample_n`` voters drawn from a pool of ``pool_N`` users,
    ``overlap_k`` belonged to the submitter's group of ``group_K``
    reverse friends.
    """

    pool_N: int = _bounded("an integer >= 1")
    sample_n: int = _bounded(f"an integer in [0, {_MAX_SAMPLE_N}]")
    group_K: int = _bounded("an integer >= 0")
    overlap_k: int = _bounded("an integer >= 0")

    def _violations(self, broken: set[str]) -> list[str]:
        pool, n, group, k = self.pool_N, self.sample_n, self.group_K, self.overlap_k
        bad: list[str] = []
        if not broken & {"pool_N", "sample_n"} and n > pool:
            bad.append(f"sample_n must be in [0, pool_N], got {n} with pool_N={pool}")
        if not broken & {"pool_N", "group_K"} and group > pool:
            bad.append(f"group_K must be in [0, pool_N], got {group} with pool_N={pool}")
        if not broken & {"sample_n", "group_K", "overlap_k"} and k > min(n, group):
            bad.append(f"overlap_k must be in [0, min(sample_n, group_K)], got {k}")
        return bad


@dataclass(frozen=True)
class RunOptions(_Record):
    """Run length of the models, and how the rank model reports rank."""

    horizon_minutes: float = _bounded("> 0", 2880.0)  # vote-model horizon
    weeks: int = _bounded(f"an integer in [1, {_MAX_WEEKS}]", 25)  # rank-model horizon
    rank_kappa: float = _bounded("> 0", 1.0)   # rank proxy is kappa / F
    M_schedule: tuple[float, ...] | None = None  # per-week submission rates

    def _violations(self, broken: set[str]) -> list[str]:
        bad: list[str] = []
        schedule, weeks = self.M_schedule, self.weeks
        if schedule is not None and "weeks" not in broken and len(schedule) != weeks:
            bad.append(f"M_schedule has {len(schedule)} entries but weeks = {weeks}")
        for week, rate in enumerate(() if schedule is None else schedule, 1):
            if not (_finite(rate) and rate >= 0):
                bad.append(
                    f"M_schedule entry {week} must be finite and >= 0, got {rate}"
                )
        return bad


ARRIVAL_MODES = ("poisson", "mean")


@dataclass(frozen=True)
class EnsembleOptions(_Record):
    """Size, seed and arrival mode of a stochastic ensemble: the
    ``[ensemble]`` record, and the ``options`` of ``ensemble``.  Arrival
    mode "poisson" draws vote counts; in "mean" mode ``ensemble`` draws
    nothing: it runs ``integrate_votes`` once and reports its trajectory
    as every run's."""

    runs: int = _bounded(f"an integer in [1, {_MAX_RUNS}]", 100)
    seed: int = _bounded("an integer >= 0", 0)
    arrival_mode: str = "poisson"

    def _violations(self, broken: set[str]) -> list[str]:
        if self.arrival_mode not in ARRIVAL_MODES:
            return [
                f"arrival_mode must be one of {ARRIVAL_MODES}, "
                f"got {self.arrival_mode!r}"
            ]
        return []


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
                f"{key}: cannot parse {_echo(raw)} as {known[key].type}"
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
