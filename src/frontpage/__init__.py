"""Models of collaborative story rating and user rank on social news sites.

The package has two coupled model families and the tooling around them:

* :mod:`frontpage.vote_dynamics` — deterministic mean-field trajectory of
  a single story's votes through four visibility channels, with pluggable
  promotion policies and the closed-form queue-saturation solution.
* :mod:`frontpage.stochastic_sim` — seeded agent-level Monte Carlo runs
  of the same model, used to validate the mean-field abstraction and to
  measure promotion probabilities and spreads.
* :mod:`frontpage.rank_dynamics` — weekly co-evolution of a user's
  front-page tally and reverse-friend network.
* :mod:`frontpage.fitting` — least-squares calibration fits and the
  binomial friend-voting significance test.
* :mod:`frontpage.cli` — config-driven scenario runner emitting CSV and
  JSON.
"""

import math
import numbers
import sys

__version__ = "0.1.0"

# --- the bound of every numeric parameter ------------------------------------
# Record fields, model-function arguments and command-line flags all check
# their bounds through :func:`_check`; the table lives in this module, which
# loads only the standard library, so that flags are checked before numpy.

# Longest rank-model run (about 19,000 years of weeks): bounds its time and
# memory.  At the cap `integrate_rank` takes about 0.5 s and `simulate rank`
# about 5 s, most of it in the rendering, and 64 MB peak RSS in csv, 62 MB
# in json, about half of it the trajectory's four columns (2 vCPU Xeon).
_MAX_WEEKS = 1_000_000
# Largest voter sample of the chance-probability test: its binomial tail
# then sums at most ~4e5 terms (under a second), where 10^30 would never end.
_MAX_SAMPLE_N = 100_000_000
# Largest ensemble: each run holds about 1.1 KB and takes ~30 us to seed
# before its first step, so 10^5 runs set up in about 3 s and 150 MB.
_MAX_RUNS = 100_000
# Most bins of a success-rate series: users are sorted by bin once and each
# non-empty bin reduces its slice, so 10^5 bins take 0.06-0.09 s for 10^4
# users and 2.1-3.0 s for 10^6 (2 vCPU Xeon); 10^9 would need 8 GB of edges.
_MAX_BINS = 100_000


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        return False


def _is_integral(value) -> bool:
    """Whether a finite number is whole and not a bool."""
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, numbers.Real) and float(value).is_integer()


# Each bound a parameter may have, as its message states it, and its test.
_BOUNDS = {
    "> 0": lambda x: x > 0.0,
    ">= 0": lambda x: x >= 0.0,
    "in (0, 1]": lambda x: 0.0 < x <= 1.0,
    "in (0, 1)": lambda x: 0.0 < x < 1.0,
    "in [0, 1]": lambda x: 0.0 <= x <= 1.0,
    "positive and != 1": lambda x: x > 0.0 and x != 1.0,
    "an integer >= 0": lambda x: _is_integral(x) and x >= 0,
    "an integer >= 1": lambda x: _is_integral(x) and x >= 1,
    "an integer >= 2": lambda x: _is_integral(x) and x >= 2,
    **{
        f"an integer in [{lo}, {hi}]":
            lambda x, lo=lo, hi=hi: _is_integral(x) and lo <= x <= hi
        for lo, hi in (
            (0, _MAX_SAMPLE_N), (1, _MAX_WEEKS), (1, _MAX_RUNS), (1, _MAX_BINS)
        )
    },
}


def _check(value, bound: str, name: str = ""):
    """``value`` if it is finite and passes ``_BOUNDS[bound]``, as a Python
    int if ``bound`` is an integer bound.  Otherwise ValueError
    ``NAME must be BOUND, got VALUE``, or from ``must`` on without a name."""
    if _finite(value) and _BOUNDS[bound](value):
        return int(value) if bound.startswith("an integer") else value
    message = f"must be {bound}, got {value}"
    raise ValueError(f"{name} {message}" if name else message)


# Most characters of a value a message echoes in full; a longer one is cut.
_ECHO_CHARS = 40


def _echo(raw) -> str:
    """``repr(raw)``, or for a string longer than ``_ECHO_CHARS`` the repr of
    its first ``_ECHO_CHARS`` characters and ``…``, and its length."""
    if isinstance(raw, str) and len(raw) > _ECHO_CHARS:
        return f"{raw[:_ECHO_CHARS] + '…'!r} ({len(raw)} characters)"
    return repr(raw)


# The one list of public names: each model module -> the names it exports.
# Each module's ``__all__`` is its entry, the package exports them all, and
# a command binds its modules' entries on ``frontpage.cli``.  A module, and
# numpy with it, is imported on the first use of one of its names (PEP 562),
# so that ``import frontpage`` and the command line's parser load only the
# standard library.
_EXPORTS = {
    "core": (
        "ARRIVAL_MODES",
        "EnsembleOptions",
        "FixedThreshold",
        "FriendVoteObservation",
        "NetworkProportional",
        "ParameterError",
        "PromotionPolicy",
        "RankModelParams",
        "RunOptions",
        "StoryConfig",
        "UserState",
        "VoteModelParams",
        "VoteTrajectory",
        "record_from_mapping",
    ),
    "fitting": (
        "ComparisonReport",
        "LinearFit",
        "LogFit",
        "SuccessRateBins",
        "binomial_pmf",
        "chance_probability",
        "compare_model_to_trace",
        "fit_linear",
        "fit_log",
        "success_rate_series",
    ),
    "rank_dynamics": (
        "RankTrajectory",
        "integrate_rank",
        "rank_proxies",
    ),
    "stochastic_sim": (
        "EnsembleSummary",
        "PROMOTION_QUANTILES",
        "ensemble",
    ),
    "vote_dynamics": (
        "RateKernel",
        "analytic_upcoming_saturation",
        "integrate_votes",
        "saturation_time",
        "step_count",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _load(module: str):
    """Import ``module`` the way an import statement does: unlike
    ``importlib.import_module``, ``python -X importtime`` reports it."""
    __import__(module)
    return sys.modules[module]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(_load(f"{__name__}.{module}"), name)
            globals()[name] = value  # later reads skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
