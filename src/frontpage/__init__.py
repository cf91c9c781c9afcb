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

import sys

__version__ = "0.1.0"

# Most bins of a success-rate series, which ``fitting.success_rate_series``
# enforces and ``fit success --bins`` checks while parsing: the kept users
# are sorted by bin once and each non-empty bin reduces its slice, so 10^5
# bins take 0.11 s for 10^4 users and 1.9 s for 10^6; 10^9 bins would need
# 8 GB of edges.
_MAX_BINS = 100_000

# Each submodule -> the names exported from it.  A submodule, and numpy
# with it, is imported on the first use of one of its names (PEP 562), so
# that ``import frontpage`` and the command line's parser load only the
# standard library.
_EXPORTS = {
    "core": (
        "FixedThreshold",
        "FriendVoteObservation",
        "NetworkProportional",
        "ParameterError",
        "PromotionPolicy",
        "RankModelParams",
        "StoryConfig",
        "UserState",
        "VoteModelParams",
        "VoteTrajectory",
    ),
    "fitting": (
        "LinearFit",
        "LogFit",
        "binomial_pmf",
        "chance_probability",
        "fit_linear",
        "fit_log",
        "success_rate_series",
    ),
    "rank_dynamics": ("RankTrajectory", "integrate_rank", "rank_proxy", "step_week"),
    "stochastic_sim": (
        "EnsembleSummary",
        "StochasticRunConfig",
        "ensemble",
        "simulate_once",
    ),
    "vote_dynamics": (
        "analytic_upcoming_saturation",
        "integrate_votes",
        "promotion_threshold_for",
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
