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

from .core import (
    FixedThreshold,
    FriendVoteObservation,
    NetworkProportional,
    ParameterError,
    PromotionPolicy,
    RankModelParams,
    StoryConfig,
    UserState,
    VoteModelParams,
    VoteTrajectory,
)
from .fitting import (
    LinearFit,
    LogFit,
    binomial_pmf,
    chance_probability,
    fit_linear,
    fit_log,
    success_rate_series,
)
from .rank_dynamics import RankTrajectory, integrate_rank, rank_proxy, step_week
from .stochastic_sim import (
    EnsembleSummary,
    StochasticRunConfig,
    ensemble,
    simulate_once,
)
from .vote_dynamics import (
    VisibilityBreakdown,
    analytic_upcoming_saturation,
    integrate_votes,
    promotion_threshold_for,
    visibility,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleSummary",
    "FixedThreshold",
    "FriendVoteObservation",
    "LinearFit",
    "LogFit",
    "NetworkProportional",
    "ParameterError",
    "PromotionPolicy",
    "RankModelParams",
    "RankTrajectory",
    "StochasticRunConfig",
    "StoryConfig",
    "UserState",
    "VisibilityBreakdown",
    "VoteModelParams",
    "VoteTrajectory",
    "analytic_upcoming_saturation",
    "binomial_pmf",
    "chance_probability",
    "ensemble",
    "fit_linear",
    "fit_log",
    "integrate_rank",
    "integrate_votes",
    "promotion_threshold_for",
    "rank_proxy",
    "simulate_once",
    "step_week",
    "success_rate_series",
    "visibility",
]
