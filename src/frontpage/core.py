"""Domain types and validation for the collaborative-rating toolkit.

Two families of records live here: the constants and inputs of the
story-vote model (minute resolution) and of the user-rank model (week
resolution), plus the observation tuple used by the friend-voting
significance test.  Every record checks its invariants on construction and
is frozen afterwards, so validated instances can be shared freely between
concurrent runs.  Each numeric field's bound, integrality and caps
included, is declared once, on the field, as the text its message states
(``c: float = _bounded("in (0, 1]", 0.3)``), and checked by
:func:`frontpage._check` against the package's one table of bounds, which
the model functions and the command-line flags check through too.  An
integer field holds a Python int once checked.  Only the comparisons
between fields and the checks of the two non-numeric keys are written out
by hand.

The run settings of the ``[run]`` and ``[ensemble]`` config sections are
records too.  :func:`record_from_mapping` builds any record from the raw
strings of one config section; see :mod:`frontpage.cli` for the layout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import Mapping, Union

import numpy as np

from . import _MAX_RUNS, _MAX_SAMPLE_N, _MAX_WEEKS, _check, _finite

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


def _raise_if(violations: list[str]) -> None:
    if violations:
        raise ParameterError("; ".join(violations))


def _bounded(bound: str, default=dataclasses.MISSING):
    """A numeric field that must be finite and pass ``frontpage._BOUNDS[bound]``."""
    return dataclasses.field(default=default, metadata={"bound": bound})


class _Record:
    """Base of the self-checking records.

    Constructing one raises :class:`ParameterError` listing every
    violation: first each field, in order, that :func:`frontpage._check`
    rejects for the bound declared on it with :func:`_bounded`, then every
    entry of the record's own ``_violations(broken)``, ``broken`` being the
    names of the fields that broke their bounds, which it does not compare.
    A field with an integer bound holds a Python int once it passes.
    """

    def __post_init__(self) -> None:
        bad, broken = [], set()
        for f in fields(self):
            bound = f.metadata.get("bound")
            if bound is None:
                continue
            try:
                value = _check(getattr(self, f.name), bound, f.name)
            except ValueError as exc:
                bad.append(str(exc))
                broken.add(f.name)
            else:
                object.__setattr__(self, f.name, value)
        _raise_if(bad + self._violations(broken))

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
class FixedThreshold(_Record):
    """Promote once the vote count reaches a site-wide constant."""

    h: int = _bounded("an integer >= 2", 40)  # a story starts with one vote


@dataclass(frozen=True)
class NetworkProportional(_Record):
    """Promote once votes reach ``factor`` times the submitter's network size.

    Scaling the bar with the network keeps low-interest stories off the
    front page even when the submitter's reverse friends vote early and
    often.
    """

    factor: float = _bounded("> 0", 1.5)


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
    ``[ensemble]`` record, and the base of
    :class:`~frontpage.stochastic_sim.StochasticRunConfig`."""

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
