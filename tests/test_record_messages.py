"""Every message a record's checks write, word for word.

Each row builds one record with one bad value (or, at the end, two) on
top of valid required arguments and asserts the exact
:class:`ParameterError` text.  The table pins the bounds declared on the
fields, integers and caps included, and the hand-written checks that
remain (comparisons between fields, ``arrival_mode`` and ``M_schedule``)
alike, so moving a check between the two cannot change what a user reads
unseen.  The guard at the end requires every numeric field to declare its
bound, so a hand-written numeric check cannot come back.  The result
records' series rules are pinned the same way, and a second guard
requires each of their per-time arrays to declare its series.  The model
functions' argument checks go through the same table and are pinned the
same way, and a field with an integer bound hands its consumers an int.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from frontpage import core
from frontpage.core import (
    ARRIVAL_MODES,
    EnsembleOptions,
    FixedThreshold,
    FriendVoteObservation,
    NetworkProportional,
    ParameterError,
    RankModelParams,
    RunOptions,
    StoryConfig,
    UserState,
    VoteModelParams,
    VoteTrajectory,
)
from frontpage.fitting import (
    binomial_pmf,
    chance_probability,
    fit_log,
    success_rate_series,
)
from frontpage.rank_dynamics import RankTrajectory, rank_proxies
from frontpage.stochastic_sim import EnsembleSummary, ensemble
from frontpage.vote_dynamics import analytic_upcoming_saturation, integrate_votes

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int past the float range: math.isfinite overflows on it

# Valid values for the arguments a record requires.
REQUIRED = {
    StoryConfig: {"interestingness_r": 0.5},
    UserState: {"front_page_F": 1.0, "network_S": 2.0, "submission_rate_M": 3.0},
    FriendVoteObservation: {
        "pool_N": 100, "sample_n": 10, "group_K": 5, "overlap_k": 2,
    },
}

MESSAGES = [
    # VoteModelParams
    (VoteModelParams, {"c": 0.0}, "c must be in (0, 1], got 0.0"),
    (VoteModelParams, {"c": 1.0000000000000002},
     "c must be in (0, 1], got 1.0000000000000002"),
    (VoteModelParams, {"c": NAN}, "c must be in (0, 1], got nan"),
    (VoteModelParams, {"c": INF}, "c must be in (0, 1], got inf"),
    (VoteModelParams, {"c": -INF}, "c must be in (0, 1], got -inf"),
    (VoteModelParams, {"c": "x"}, "c must be in (0, 1], got x"),
    (VoteModelParams, {"c": HUGE}, f"c must be in (0, 1], got {HUGE}"),
    (VoteModelParams, {"c_u": 0.0}, "c_u must be in (0, 1), got 0.0"),
    (VoteModelParams, {"c_u": 1.0}, "c_u must be in (0, 1), got 1.0"),
    (VoteModelParams, {"c_u": NAN}, "c_u must be in (0, 1), got nan"),
    (VoteModelParams, {"c_u": INF}, "c_u must be in (0, 1), got inf"),
    (VoteModelParams, {"c_u": -INF}, "c_u must be in (0, 1), got -inf"),
    (VoteModelParams, {"c_u": "x"}, "c_u must be in (0, 1), got x"),
    (VoteModelParams, {"c_u": HUGE}, f"c_u must be in (0, 1), got {HUGE}"),
    (VoteModelParams, {"c_f": 0.0}, "c_f must be in (0, 1), got 0.0"),
    (VoteModelParams, {"c_f": 1.0}, "c_f must be in (0, 1), got 1.0"),
    (VoteModelParams, {"c_f": NAN}, "c_f must be in (0, 1), got nan"),
    (VoteModelParams, {"c_f": INF}, "c_f must be in (0, 1), got inf"),
    (VoteModelParams, {"c_f": -INF}, "c_f must be in (0, 1), got -inf"),
    (VoteModelParams, {"c_f": "x"}, "c_f must be in (0, 1), got x"),
    (VoteModelParams, {"c_f": HUGE}, f"c_f must be in (0, 1), got {HUGE}"),
    (VoteModelParams, {"visit_rate_N": 0.0}, "visit_rate_N must be > 0, got 0.0"),
    (VoteModelParams, {"visit_rate_N": NAN}, "visit_rate_N must be > 0, got nan"),
    (VoteModelParams, {"visit_rate_N": INF}, "visit_rate_N must be > 0, got inf"),
    (VoteModelParams, {"visit_rate_N": -INF}, "visit_rate_N must be > 0, got -inf"),
    (VoteModelParams, {"visit_rate_N": "x"}, "visit_rate_N must be > 0, got x"),
    (VoteModelParams, {"visit_rate_N": HUGE}, f"visit_rate_N must be > 0, got {HUGE}"),
    (VoteModelParams, {"k_u": 0.0}, "k_u must be > 0, got 0.0"),
    (VoteModelParams, {"k_u": NAN}, "k_u must be > 0, got nan"),
    (VoteModelParams, {"k_u": INF}, "k_u must be > 0, got inf"),
    (VoteModelParams, {"k_u": -INF}, "k_u must be > 0, got -inf"),
    (VoteModelParams, {"k_u": "x"}, "k_u must be > 0, got x"),
    (VoteModelParams, {"k_u": HUGE}, f"k_u must be > 0, got {HUGE}"),
    (VoteModelParams, {"k_f": -5e-324}, "k_f must be >= 0, got -5e-324"),
    (VoteModelParams, {"k_f": NAN}, "k_f must be >= 0, got nan"),
    (VoteModelParams, {"k_f": INF}, "k_f must be >= 0, got inf"),
    (VoteModelParams, {"k_f": -INF}, "k_f must be >= 0, got -inf"),
    (VoteModelParams, {"k_f": "x"}, "k_f must be >= 0, got x"),
    (VoteModelParams, {"k_f": HUGE}, f"k_f must be >= 0, got {HUGE}"),
    (VoteModelParams, {"sm_alpha": -5e-324}, "sm_alpha must be >= 0, got -5e-324"),
    (VoteModelParams, {"sm_alpha": NAN}, "sm_alpha must be >= 0, got nan"),
    (VoteModelParams, {"sm_alpha": INF}, "sm_alpha must be >= 0, got inf"),
    (VoteModelParams, {"sm_alpha": -INF}, "sm_alpha must be >= 0, got -inf"),
    (VoteModelParams, {"sm_alpha": "x"}, "sm_alpha must be >= 0, got x"),
    (VoteModelParams, {"sm_alpha": HUGE}, f"sm_alpha must be >= 0, got {HUGE}"),
    (VoteModelParams, {"sm_beta": -5e-324}, "sm_beta must be >= 0, got -5e-324"),
    (VoteModelParams, {"sm_beta": NAN}, "sm_beta must be >= 0, got nan"),
    (VoteModelParams, {"sm_beta": INF}, "sm_beta must be >= 0, got inf"),
    (VoteModelParams, {"sm_beta": -INF}, "sm_beta must be >= 0, got -inf"),
    (VoteModelParams, {"sm_beta": "x"}, "sm_beta must be >= 0, got x"),
    (VoteModelParams, {"sm_beta": HUGE}, f"sm_beta must be >= 0, got {HUGE}"),
    (VoteModelParams, {"sm_log_base": 0.0},
     "sm_log_base must be positive and != 1, got 0.0"),
    (VoteModelParams, {"sm_log_base": 1.0},
     "sm_log_base must be positive and != 1, got 1.0"),
    (VoteModelParams, {"sm_log_base": NAN},
     "sm_log_base must be positive and != 1, got nan"),
    (VoteModelParams, {"sm_log_base": INF},
     "sm_log_base must be positive and != 1, got inf"),
    (VoteModelParams, {"sm_log_base": -INF},
     "sm_log_base must be positive and != 1, got -inf"),
    (VoteModelParams, {"sm_log_base": "x"},
     "sm_log_base must be positive and != 1, got x"),
    (VoteModelParams, {"sm_log_base": HUGE},
     f"sm_log_base must be positive and != 1, got {HUGE}"),
    (VoteModelParams, {"upcoming_window": 0.0}, "upcoming_window must be > 0, got 0.0"),
    (VoteModelParams, {"upcoming_window": 2880.0},
     "upcoming_window (2880.0) must be shorter than friends_window (2880.0)"),
    (VoteModelParams, {"upcoming_window": 3000.0},
     "upcoming_window (3000.0) must be shorter than friends_window (2880.0)"),
    (VoteModelParams, {"upcoming_window": NAN}, "upcoming_window must be > 0, got nan"),
    (VoteModelParams, {"upcoming_window": INF}, "upcoming_window must be > 0, got inf"),
    (VoteModelParams, {"upcoming_window": -INF},
     "upcoming_window must be > 0, got -inf"),
    (VoteModelParams, {"upcoming_window": "x"}, "upcoming_window must be > 0, got x"),
    (VoteModelParams, {"upcoming_window": HUGE},
     f"upcoming_window must be > 0, got {HUGE}"),
    (VoteModelParams, {"friends_window": 0.0}, "friends_window must be > 0, got 0.0"),
    (VoteModelParams, {"friends_window": 1440.0},
     "upcoming_window (1440.0) must be shorter than friends_window (1440.0)"),
    (VoteModelParams, {"friends_window": 1000.0},
     "upcoming_window (1440.0) must be shorter than friends_window (1000.0)"),
    (VoteModelParams, {"friends_window": NAN}, "friends_window must be > 0, got nan"),
    (VoteModelParams, {"friends_window": INF}, "friends_window must be > 0, got inf"),
    (VoteModelParams, {"friends_window": -INF}, "friends_window must be > 0, got -inf"),
    (VoteModelParams, {"friends_window": "x"}, "friends_window must be > 0, got x"),
    (VoteModelParams, {"friends_window": HUGE},
     f"friends_window must be > 0, got {HUGE}"),
    (VoteModelParams, {"dt": 0.0}, "dt must be > 0, got 0.0"),
    (VoteModelParams, {"dt": NAN}, "dt must be > 0, got nan"),
    (VoteModelParams, {"dt": INF}, "dt must be > 0, got inf"),
    (VoteModelParams, {"dt": -INF}, "dt must be > 0, got -inf"),
    (VoteModelParams, {"dt": "x"}, "dt must be > 0, got x"),
    (VoteModelParams, {"dt": HUGE}, f"dt must be > 0, got {HUGE}"),
    # StoryConfig
    (StoryConfig, {"interestingness_r": -5e-324},
     "interestingness_r must be in [0, 1], got -5e-324"),
    (StoryConfig, {"interestingness_r": 1.0000000000000002},
     "interestingness_r must be in [0, 1], got 1.0000000000000002"),
    (StoryConfig, {"interestingness_r": NAN},
     "interestingness_r must be in [0, 1], got nan"),
    (StoryConfig, {"interestingness_r": INF},
     "interestingness_r must be in [0, 1], got inf"),
    (StoryConfig, {"interestingness_r": -INF},
     "interestingness_r must be in [0, 1], got -inf"),
    (StoryConfig, {"interestingness_r": "x"},
     "interestingness_r must be in [0, 1], got x"),
    (StoryConfig, {"interestingness_r": HUGE},
     f"interestingness_r must be in [0, 1], got {HUGE}"),
    (StoryConfig, {"submitter_network_S": -1},
     "submitter_network_S must be an integer >= 0, got -1"),
    (StoryConfig, {"submitter_network_S": 0.5},
     "submitter_network_S must be an integer >= 0, got 0.5"),
    (StoryConfig, {"submitter_network_S": True},
     "submitter_network_S must be an integer >= 0, got True"),
    (StoryConfig, {"submitter_network_S": NAN},
     "submitter_network_S must be an integer >= 0, got nan"),
    (StoryConfig, {"submitter_network_S": INF},
     "submitter_network_S must be an integer >= 0, got inf"),
    (StoryConfig, {"submitter_network_S": -INF},
     "submitter_network_S must be an integer >= 0, got -inf"),
    (StoryConfig, {"submitter_network_S": "x"},
     "submitter_network_S must be an integer >= 0, got x"),
    (StoryConfig, {"submitter_network_S": HUGE},
     f"submitter_network_S must be an integer >= 0, got {HUGE}"),
    # FixedThreshold
    (FixedThreshold, {"h": 1}, "h must be an integer >= 2, got 1"),
    (FixedThreshold, {"h": 2.5}, "h must be an integer >= 2, got 2.5"),
    (FixedThreshold, {"h": True}, "h must be an integer >= 2, got True"),
    (FixedThreshold, {"h": NAN}, "h must be an integer >= 2, got nan"),
    (FixedThreshold, {"h": INF}, "h must be an integer >= 2, got inf"),
    (FixedThreshold, {"h": -INF}, "h must be an integer >= 2, got -inf"),
    (FixedThreshold, {"h": "x"}, "h must be an integer >= 2, got x"),
    (FixedThreshold, {"h": HUGE}, f"h must be an integer >= 2, got {HUGE}"),
    (FixedThreshold, {"h": Fraction(HUGE, 3)},
     f"h must be an integer >= 2, got {Fraction(HUGE, 3)}"),
    # NetworkProportional
    (NetworkProportional, {"factor": 0.0}, "factor must be > 0, got 0.0"),
    (NetworkProportional, {"factor": NAN}, "factor must be > 0, got nan"),
    (NetworkProportional, {"factor": INF}, "factor must be > 0, got inf"),
    (NetworkProportional, {"factor": -INF}, "factor must be > 0, got -inf"),
    (NetworkProportional, {"factor": "x"}, "factor must be > 0, got x"),
    (NetworkProportional, {"factor": HUGE}, f"factor must be > 0, got {HUGE}"),
    # RankModelParams
    (RankModelParams, {"a": -5e-324}, "a must be >= 0, got -5e-324"),
    (RankModelParams, {"a": NAN}, "a must be >= 0, got nan"),
    (RankModelParams, {"a": INF}, "a must be >= 0, got inf"),
    (RankModelParams, {"a": -INF}, "a must be >= 0, got -inf"),
    (RankModelParams, {"a": "x"}, "a must be >= 0, got x"),
    (RankModelParams, {"a": HUGE}, f"a must be >= 0, got {HUGE}"),
    (RankModelParams, {"b": -5e-324}, "b must be >= 0, got -5e-324"),
    (RankModelParams, {"b": NAN}, "b must be >= 0, got nan"),
    (RankModelParams, {"b": INF}, "b must be >= 0, got inf"),
    (RankModelParams, {"b": -INF}, "b must be >= 0, got -inf"),
    (RankModelParams, {"b": "x"}, "b must be >= 0, got x"),
    (RankModelParams, {"b": HUGE}, f"b must be >= 0, got {HUGE}"),
    (RankModelParams, {"c_success": -5e-324}, "c_success must be >= 0, got -5e-324"),
    (RankModelParams, {"c_success": NAN}, "c_success must be >= 0, got nan"),
    (RankModelParams, {"c_success": INF}, "c_success must be >= 0, got inf"),
    (RankModelParams, {"c_success": -INF}, "c_success must be >= 0, got -inf"),
    (RankModelParams, {"c_success": "x"}, "c_success must be >= 0, got x"),
    (RankModelParams, {"c_success": HUGE}, f"c_success must be >= 0, got {HUGE}"),
    (RankModelParams, {"dt_weeks": 0.0}, "dt_weeks must be > 0, got 0.0"),
    (RankModelParams, {"dt_weeks": NAN}, "dt_weeks must be > 0, got nan"),
    (RankModelParams, {"dt_weeks": INF}, "dt_weeks must be > 0, got inf"),
    (RankModelParams, {"dt_weeks": -INF}, "dt_weeks must be > 0, got -inf"),
    (RankModelParams, {"dt_weeks": "x"}, "dt_weeks must be > 0, got x"),
    (RankModelParams, {"dt_weeks": HUGE}, f"dt_weeks must be > 0, got {HUGE}"),
    # UserState
    (UserState, {"front_page_F": -5e-324}, "front_page_F must be >= 0, got -5e-324"),
    (UserState, {"front_page_F": NAN}, "front_page_F must be >= 0, got nan"),
    (UserState, {"front_page_F": INF}, "front_page_F must be >= 0, got inf"),
    (UserState, {"front_page_F": -INF}, "front_page_F must be >= 0, got -inf"),
    (UserState, {"front_page_F": "x"}, "front_page_F must be >= 0, got x"),
    (UserState, {"front_page_F": HUGE}, f"front_page_F must be >= 0, got {HUGE}"),
    (UserState, {"network_S": -5e-324}, "network_S must be >= 0, got -5e-324"),
    (UserState, {"network_S": NAN}, "network_S must be >= 0, got nan"),
    (UserState, {"network_S": INF}, "network_S must be >= 0, got inf"),
    (UserState, {"network_S": -INF}, "network_S must be >= 0, got -inf"),
    (UserState, {"network_S": "x"}, "network_S must be >= 0, got x"),
    (UserState, {"network_S": HUGE}, f"network_S must be >= 0, got {HUGE}"),
    (UserState, {"submission_rate_M": -5e-324},
     "submission_rate_M must be >= 0, got -5e-324"),
    (UserState, {"submission_rate_M": NAN}, "submission_rate_M must be >= 0, got nan"),
    (UserState, {"submission_rate_M": INF}, "submission_rate_M must be >= 0, got inf"),
    (UserState, {"submission_rate_M": -INF},
     "submission_rate_M must be >= 0, got -inf"),
    (UserState, {"submission_rate_M": "x"}, "submission_rate_M must be >= 0, got x"),
    (UserState, {"submission_rate_M": HUGE},
     f"submission_rate_M must be >= 0, got {HUGE}"),
    # FriendVoteObservation
    (FriendVoteObservation, {"pool_N": 0}, "pool_N must be an integer >= 1, got 0"),
    (FriendVoteObservation, {"pool_N": 9},
     "sample_n must be in [0, pool_N], got 10 with pool_N=9"),
    (FriendVoteObservation, {"pool_N": 1.5}, "pool_N must be an integer >= 1, got 1.5"),
    (FriendVoteObservation, {"pool_N": NAN}, "pool_N must be an integer >= 1, got nan"),
    (FriendVoteObservation, {"pool_N": INF}, "pool_N must be an integer >= 1, got inf"),
    (FriendVoteObservation, {"pool_N": -INF},
     "pool_N must be an integer >= 1, got -inf"),
    (FriendVoteObservation, {"pool_N": "x"}, "pool_N must be an integer >= 1, got x"),
    (FriendVoteObservation, {"pool_N": HUGE},
     f"pool_N must be an integer >= 1, got {HUGE}"),
    (FriendVoteObservation, {"sample_n": -1},
     "sample_n must be an integer in [0, 100000000], got -1"),
    (FriendVoteObservation, {"sample_n": 101},
     "sample_n must be in [0, pool_N], got 101 with pool_N=100"),
    (FriendVoteObservation, {"sample_n": 1.5},
     "sample_n must be an integer in [0, 100000000], got 1.5"),
    (FriendVoteObservation, {"sample_n": NAN},
     "sample_n must be an integer in [0, 100000000], got nan"),
    (FriendVoteObservation, {"sample_n": INF},
     "sample_n must be an integer in [0, 100000000], got inf"),
    (FriendVoteObservation, {"sample_n": -INF},
     "sample_n must be an integer in [0, 100000000], got -inf"),
    (FriendVoteObservation, {"sample_n": "x"},
     "sample_n must be an integer in [0, 100000000], got x"),
    (FriendVoteObservation, {"sample_n": HUGE},
     f"sample_n must be an integer in [0, 100000000], got {HUGE}"),
    (FriendVoteObservation, {"group_K": -1}, "group_K must be an integer >= 0, got -1"),
    (FriendVoteObservation, {"group_K": 101},
     "group_K must be in [0, pool_N], got 101 with pool_N=100"),
    (FriendVoteObservation, {"group_K": 1.5},
     "group_K must be an integer >= 0, got 1.5"),
    (FriendVoteObservation, {"group_K": NAN},
     "group_K must be an integer >= 0, got nan"),
    (FriendVoteObservation, {"group_K": INF},
     "group_K must be an integer >= 0, got inf"),
    (FriendVoteObservation, {"group_K": -INF},
     "group_K must be an integer >= 0, got -inf"),
    (FriendVoteObservation, {"group_K": "x"}, "group_K must be an integer >= 0, got x"),
    (FriendVoteObservation, {"group_K": HUGE},
     f"group_K must be an integer >= 0, got {HUGE}"),
    (FriendVoteObservation, {"overlap_k": -1},
     "overlap_k must be an integer >= 0, got -1"),
    (FriendVoteObservation, {"overlap_k": 6},
     "overlap_k must be in [0, min(sample_n, group_K)], got 6"),
    (FriendVoteObservation, {"overlap_k": 1.5},
     "overlap_k must be an integer >= 0, got 1.5"),
    (FriendVoteObservation, {"overlap_k": NAN},
     "overlap_k must be an integer >= 0, got nan"),
    (FriendVoteObservation, {"overlap_k": INF},
     "overlap_k must be an integer >= 0, got inf"),
    (FriendVoteObservation, {"overlap_k": -INF},
     "overlap_k must be an integer >= 0, got -inf"),
    (FriendVoteObservation, {"overlap_k": "x"},
     "overlap_k must be an integer >= 0, got x"),
    (FriendVoteObservation, {"overlap_k": HUGE},
     f"overlap_k must be an integer >= 0, got {HUGE}"),
    # RunOptions
    (RunOptions, {"horizon_minutes": 0.0}, "horizon_minutes must be > 0, got 0.0"),
    (RunOptions, {"horizon_minutes": NAN}, "horizon_minutes must be > 0, got nan"),
    (RunOptions, {"horizon_minutes": INF}, "horizon_minutes must be > 0, got inf"),
    (RunOptions, {"horizon_minutes": -INF}, "horizon_minutes must be > 0, got -inf"),
    (RunOptions, {"horizon_minutes": "x"}, "horizon_minutes must be > 0, got x"),
    (RunOptions, {"horizon_minutes": HUGE}, f"horizon_minutes must be > 0, got {HUGE}"),
    (RunOptions, {"weeks": 0}, "weeks must be an integer in [1, 1000000], got 0"),
    (RunOptions, {"weeks": 1000001},
     "weeks must be an integer in [1, 1000000], got 1000001"),
    (RunOptions, {"weeks": 1.5}, "weeks must be an integer in [1, 1000000], got 1.5"),
    (RunOptions, {"weeks": NAN}, "weeks must be an integer in [1, 1000000], got nan"),
    (RunOptions, {"weeks": INF}, "weeks must be an integer in [1, 1000000], got inf"),
    (RunOptions, {"weeks": -INF}, "weeks must be an integer in [1, 1000000], got -inf"),
    (RunOptions, {"weeks": "x"}, "weeks must be an integer in [1, 1000000], got x"),
    (RunOptions, {"weeks": HUGE},
     f"weeks must be an integer in [1, 1000000], got {HUGE}"),
    (RunOptions, {"rank_kappa": 0.0}, "rank_kappa must be > 0, got 0.0"),
    (RunOptions, {"rank_kappa": NAN}, "rank_kappa must be > 0, got nan"),
    (RunOptions, {"rank_kappa": INF}, "rank_kappa must be > 0, got inf"),
    (RunOptions, {"rank_kappa": -INF}, "rank_kappa must be > 0, got -inf"),
    (RunOptions, {"rank_kappa": "x"}, "rank_kappa must be > 0, got x"),
    (RunOptions, {"rank_kappa": HUGE}, f"rank_kappa must be > 0, got {HUGE}"),
    (RunOptions, {"M_schedule": (1.0, 2.0)}, "M_schedule has 2 entries but weeks = 25"),
    (RunOptions, {"weeks": 1, "M_schedule": (-5e-324,)},
     "M_schedule entry 1 must be finite and >= 0, got -5e-324"),
    (RunOptions, {"weeks": 1, "M_schedule": (NAN,)},
     "M_schedule entry 1 must be finite and >= 0, got nan"),
    (RunOptions, {"weeks": 1, "M_schedule": (INF,)},
     "M_schedule entry 1 must be finite and >= 0, got inf"),
    (RunOptions, {"weeks": 1, "M_schedule": (-INF,)},
     "M_schedule entry 1 must be finite and >= 0, got -inf"),
    (RunOptions, {"weeks": 1, "M_schedule": ("x",)},
     "M_schedule entry 1 must be finite and >= 0, got x"),
    (RunOptions, {"weeks": 1, "M_schedule": (HUGE,)},
     f"M_schedule entry 1 must be finite and >= 0, got {HUGE}"),
    # EnsembleOptions
    (EnsembleOptions, {"runs": 0}, "runs must be an integer in [1, 100000], got 0"),
    (EnsembleOptions, {"runs": 100001},
     "runs must be an integer in [1, 100000], got 100001"),
    (EnsembleOptions, {"runs": 1.5}, "runs must be an integer in [1, 100000], got 1.5"),
    (EnsembleOptions, {"runs": NAN}, "runs must be an integer in [1, 100000], got nan"),
    (EnsembleOptions, {"runs": INF}, "runs must be an integer in [1, 100000], got inf"),
    (EnsembleOptions, {"runs": -INF},
     "runs must be an integer in [1, 100000], got -inf"),
    (EnsembleOptions, {"runs": "x"}, "runs must be an integer in [1, 100000], got x"),
    (EnsembleOptions, {"runs": HUGE},
     f"runs must be an integer in [1, 100000], got {HUGE}"),
    (EnsembleOptions, {"seed": -1}, "seed must be an integer >= 0, got -1"),
    (EnsembleOptions, {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    (EnsembleOptions, {"seed": NAN}, "seed must be an integer >= 0, got nan"),
    (EnsembleOptions, {"seed": INF}, "seed must be an integer >= 0, got inf"),
    (EnsembleOptions, {"seed": -INF}, "seed must be an integer >= 0, got -inf"),
    (EnsembleOptions, {"seed": "x"}, "seed must be an integer >= 0, got x"),
    (EnsembleOptions, {"seed": HUGE}, f"seed must be an integer >= 0, got {HUGE}"),
    (EnsembleOptions, {"arrival_mode": "gaussian"},
     "arrival_mode must be one of ('poisson', 'mean'), got 'gaussian'"),
    (EnsembleOptions, {"arrival_mode": NAN},
     "arrival_mode must be one of ('poisson', 'mean'), got nan"),
    (EnsembleOptions, {"arrival_mode": 1},
     "arrival_mode must be one of ('poisson', 'mean'), got 1"),

    # Two bad fields: the declared bounds are listed in field order, and
    # before a record's hand-written checks, whatever the field order.
    (VoteModelParams, {"upcoming_window": 3000.0, "dt": 0.0},
     "dt must be > 0, got 0.0; "
     "upcoming_window (3000.0) must be shorter than friends_window (2880.0)"),
    (RunOptions, {"weeks": 0, "rank_kappa": 0.0},
     "weeks must be an integer in [1, 1000000], got 0; "
     "rank_kappa must be > 0, got 0.0"),
    (FriendVoteObservation, {"pool_N": 10**9, "sample_n": 10**8 + 1},
     "sample_n must be an integer in [0, 100000000], got 100000001"),
    # A field that breaks its bound is left out of the comparisons.
    (RunOptions, {"weeks": 0, "M_schedule": (1.0, 2.0)},
     "weeks must be an integer in [1, 1000000], got 0"),
    (FriendVoteObservation, {"sample_n": 101, "overlap_k": 1.5},
     "overlap_k must be an integer >= 0, got 1.5; "
     "sample_n must be in [0, pool_N], got 101 with pool_N=100"),
]


def _row_id(cls, changes) -> str:
    """A row's test id: its class and each changed ``key=value``."""
    pairs = (f"{key}={value!r}" for key, value in changes.items())
    return "-".join([cls.__name__, *pairs]).replace(repr(HUGE), "HUGE")


MESSAGE_IDS = [_row_id(cls, changes) for cls, changes, _ in MESSAGES]


@pytest.mark.parametrize("cls, changes, message", MESSAGES, ids=MESSAGE_IDS)
def test_each_bad_value_gets_its_exact_message(cls, changes, message):
    with pytest.raises(ParameterError) as info:
        cls(**{**REQUIRED.get(cls, {}), **changes})
    assert str(info.value) == message


def _model(horizon):
    """The arguments ``integrate_votes`` and ``ensemble`` share."""
    return (StoryConfig(interestingness_r=0.5), VoteModelParams(), FixedThreshold(),
            horizon)


@pytest.mark.parametrize(
    "horizon, message",
    [
        (NAN, "horizon must be > 0, got nan"),
        (INF, "horizon must be > 0, got inf"),
        (0.0, "horizon must be > 0, got 0.0"),
        (-5.0, "horizon must be > 0, got -5.0"),
        ("x", "horizon must be > 0, got x"),
        (HUGE, f"horizon must be > 0, got {HUGE}"),
        (2880.5, "horizon (2880.5) must be a whole number of dt (1.0) steps"),
    ],
    ids=["nan", "inf", "zero", "negative", "text", "huge", "fractional-step"],
)
@pytest.mark.parametrize("mode", ARRIVAL_MODES)
def test_the_vote_model_checks_its_horizon_once(horizon, message, mode):
    # integrate_votes and ensemble read it through step_count
    options = EnsembleOptions(runs=2, arrival_mode=mode)
    for call in (
        lambda: integrate_votes(*_model(horizon)),
        lambda: ensemble(*_model(horizon), options),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == message


def _numeric_fields():
    records = [
        cls for cls in vars(core).values()
        if isinstance(cls, type) and issubclass(cls, core._Record)
        and cls is not core._Record
    ]
    for cls in records:
        for field in dataclasses.fields(cls):
            if field.type in ("int", "float"):
                yield cls, field


@pytest.mark.parametrize(
    "value", [NAN, INF, -INF, HUGE], ids=["nan", "inf", "-inf", "huge"]
)
@pytest.mark.parametrize(
    "cls, field", list(_numeric_fields()),
    ids=lambda x: getattr(x, "__name__", getattr(x, "name", x)),
)
def test_every_numeric_field_declares_its_bound(cls, field, value):
    # A numeric field added without a bound, or checked by hand, fails here.
    assert "bound" in field.metadata
    kwargs = dict(REQUIRED.get(cls, {}), **{field.name: value})
    with pytest.raises(ParameterError) as info:
        cls(**kwargs)
    assert str(info.value) == (
        f"{field.name} must be {field.metadata['bound']}, got {value}"
    )


# Valid arguments of the result records.
RESULT_REQUIRED = {
    VoteTrajectory: {"times": [0.0, 1.0, 2.0], "votes_m": [1, 2, 2]},
    RankTrajectory: {
        "weeks": [0.0, 1.0, 2.0],
        "front_page_F": [0.0, 1.0, 1.5],
        "network_S": [5.0, 5.0, 7.0],
    },
    EnsembleSummary: {
        "times": [0.0, 1.0, 2.0],
        "mean_votes": [1.0, 1.5, 2.0],
        "std_votes": [0.0, 0.5, 0.5],
        "final_votes": [2.0, 2.0],
        "promotion_times": [NAN, NAN],
        "promotion_probability": 0.0,
        "promotion_time_quantiles": {},
        "n_runs": 2,
    },
}

# Each rule of the result records, and what a bad shape leaves unchecked.
RESULT_MESSAGES = [
    # VoteTrajectory
    (VoteTrajectory, {"times": []}, "times must be a non-empty 1-d array"),
    (VoteTrajectory, {"times": [[0.0, 1.0, 2.0]]},
     "times must be a non-empty 1-d array"),
    (VoteTrajectory, {"votes_m": [1, 2]},
     "votes_m shape (2,) does not match times shape (3,)"),
    (VoteTrajectory, {"times": [0.0, 1.0, 1.0]}, "times must be strictly increasing"),
    (VoteTrajectory, {"times": [0.0, 2.0, 1.0]}, "times must be strictly increasing"),
    (VoteTrajectory, {"votes_m": [0, 2, 2]},
     "votes_m must start at 1 (submitter's vote), got 0.0"),
    (VoteTrajectory, {"votes_m": [1.5, 2.0, 2.0]},
     "votes_m must start at 1 (submitter's vote), got 1.5"),
    (VoteTrajectory, {"votes_m": [1, 3, 2]}, "votes_m must be nondecreasing"),
    (VoteTrajectory, {"promotion_time_Th": NAN},
     "promotion_time_Th must be finite or None, got nan"),
    (VoteTrajectory, {"promotion_time_Th": INF},
     "promotion_time_Th must be finite or None, got inf"),
    (VoteTrajectory, {"promotion_time_Th": "x"},
     "promotion_time_Th must be finite or None, got x"),
    # a series that is not finite gets only that message (NaN passes any order)
    (VoteTrajectory, {"times": [0.0, NAN, 2.0], "votes_m": [1, NAN, 1]},
     "times must be finite; votes_m must be finite"),
    (VoteTrajectory, {"times": [0.0, 1.0, INF]}, "times must be finite"),
    (VoteTrajectory, {"votes_m": [NAN, 2.0, 2.0]}, "votes_m must be finite"),
    (VoteTrajectory, {"votes_m": [1, -INF, 2]}, "votes_m must be finite"),
    (VoteTrajectory, {"votes_m": [1, HUGE, HUGE]}, "votes_m must be finite"),
    # a series that cannot be read as floats is not finite
    (VoteTrajectory, {"times": [0, 1, HUGE]}, "times must be finite"),
    # RankTrajectory
    (RankTrajectory, {"weeks": []}, "weeks must be a non-empty 1-d array"),
    (RankTrajectory, {"weeks": [[0.0], [1.0], [2.0]]},
     "weeks must be a non-empty 1-d array"),
    (RankTrajectory, {"front_page_F": [0.0, 1.0]},
     "front_page_F shape (2,) does not match weeks shape (3,)"),
    (RankTrajectory, {"network_S": [5.0, 5.0]},
     "network_S shape (2,) does not match weeks shape (3,)"),
    (RankTrajectory, {"weeks": [0.0, 0.0, 1.0]}, "weeks must be strictly increasing"),
    (RankTrajectory, {"front_page_F": [-1.0, 1.0, 1.5]},
     "front_page_F must be nonnegative and nondecreasing"),
    (RankTrajectory, {"front_page_F": [0.0, 2.0, 1.5]},
     "front_page_F must be nonnegative and nondecreasing"),
    (RankTrajectory, {"network_S": [-5.0, 5.0, 7.0]},
     "network_S must be nonnegative and nondecreasing"),
    (RankTrajectory, {"network_S": [5.0, 4.0, 7.0]},
     "network_S must be nonnegative and nondecreasing"),
    (RankTrajectory, {"weeks": [0.0, NAN, 2.0]}, "weeks must be finite"),
    (RankTrajectory, {"front_page_F": [0.0, NAN, 1.5]},
     "front_page_F must be finite"),
    (RankTrajectory, {"network_S": [5.0, 5.0, INF]}, "network_S must be finite"),
    (RankTrajectory, {"weeks": ["a", "b", "c"], "network_S": [5.0, 4.0, 7.0]},
     "weeks must be finite; network_S must be nonnegative and nondecreasing"),
    # EnsembleSummary
    (EnsembleSummary, {"promotion_probability": 1.5},
     "promotion_probability must be in [0, 1], got 1.5"),
    (EnsembleSummary, {"promotion_probability": NAN},
     "promotion_probability must be in [0, 1], got nan"),
    (EnsembleSummary, {"mean_votes": [1.0, 2.0, 1.5]},
     "mean_votes must be nondecreasing"),
    (EnsembleSummary, {"mean_votes": [1.0, NAN, 2.0]}, "mean_votes must be finite"),
    (EnsembleSummary, {"std_votes": [0.0, INF, 0.5]}, "std_votes must be finite"),
    (EnsembleSummary, {"mean_votes": [1, HUGE, HUGE]}, "mean_votes must be finite"),

    # Two violations, listed in the order the record checks them.
    (VoteTrajectory, {"times": [0.0, 1.0, 1.0], "promotion_time_Th": NAN},
     "times must be strictly increasing; "
     "promotion_time_Th must be finite or None, got nan"),
    (RankTrajectory, {"weeks": [0.0, 0.0, 1.0], "network_S": [5.0, 4.0, 7.0]},
     "weeks must be strictly increasing; "
     "network_S must be nonnegative and nondecreasing"),
    (EnsembleSummary, {"mean_votes": [1.0, 2.0, 1.5], "promotion_probability": -1.0},
     "promotion_probability must be in [0, 1], got -1.0; "
     "mean_votes must be nondecreasing"),
    # The series rules come before a record's own checks.
    (VoteTrajectory, {"votes_m": [0, 2, 1]},
     "votes_m must be nondecreasing; "
     "votes_m must start at 1 (submitter's vote), got 0.0"),
    # A series of a bad shape leaves every rule of its record unchecked.
    (VoteTrajectory, {"times": [0.0, 1.0, 1.0], "votes_m": [0, 2]},
     "votes_m shape (2,) does not match times shape (3,)"),
    (VoteTrajectory, {"times": [], "votes_m": [0, 2]},
     "times must be a non-empty 1-d array"),
    (RankTrajectory, {"weeks": [0.0, 0.0, 1.0], "network_S": [5.0, 4.0]},
     "network_S shape (2,) does not match weeks shape (3,)"),
]


RESULT_MESSAGE_IDS = [_row_id(cls, changes) for cls, changes, _ in RESULT_MESSAGES]


@pytest.mark.parametrize(
    "cls, changes, message", RESULT_MESSAGES, ids=RESULT_MESSAGE_IDS
)
def test_each_bad_result_gets_its_exact_message(cls, changes, message):
    with pytest.raises(ParameterError) as info:
        cls(**{**RESULT_REQUIRED[cls], **changes})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "ids", [MESSAGE_IDS, RESULT_MESSAGE_IDS], ids=["values", "results"]
)
def test_each_row_has_its_own_id(ids):
    """pytest numbers repeated ids, so a new row would rename those after it."""
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"times": [0.0, 0.0, 1.0]}, "times must be strictly increasing"),
        ({"times": []}, "times must be a non-empty 1-d array"),
        ({"mean_votes": [1.0, 1.5]},
         "mean_votes shape (2,) does not match times shape (3,)"),
        ({"std_votes": [0.0]}, "std_votes shape (1,) does not match times shape (3,)"),
        ({"times": [0.0, 0.0, 1.0], "mean_votes": [1.0, 1.5], "std_votes": [0.0]},
         "mean_votes shape (2,) does not match times shape (3,); "
         "std_votes shape (1,) does not match times shape (3,)"),
        # the per-run arrays hold one entry per run
        ({"final_votes": [1.0], "promotion_times": [1.0, 2.0, 3.0], "n_runs": 7},
         "final_votes must be a 1-d array of n_runs (7) entries, got shape (1,); "
         "promotion_times must be a 1-d array of n_runs (7) entries, got shape (3,)"),
        ({"final_votes": [[2.0, 2.0]]},
         "final_votes must be a 1-d array of n_runs (2) entries, got shape (1, 2)"),
        ({"promotion_times": NAN},
         "promotion_times must be a 1-d array of n_runs (2) entries, got shape ()"),
        ({"n_runs": 0}, "n_runs must be an integer >= 1, got 0"),
    ],
    ids=[
        "repeated-times", "empty-times", "short-mean", "short-std", "all-three",
        "per-run-lengths", "per-run-2d", "per-run-scalar", "no-runs",
    ],
)
def test_ensemble_summary_rejects_inconsistent_series(changes, message):
    with pytest.raises(ParameterError) as info:
        EnsembleSummary(**{**RESULT_REQUIRED[EnsembleSummary], **changes})
    assert str(info.value) == message


# Array fields with one entry per run, not one per time: no series rule.
PLAIN_ARRAYS = {"final_votes", "promotion_times"}


def _array_fields():
    for cls in RESULT_REQUIRED:
        for field in dataclasses.fields(cls):
            if field.type == "np.ndarray":
                yield cls, field


@pytest.mark.parametrize(
    "cls, field", list(_array_fields()),
    ids=lambda x: getattr(x, "__name__", getattr(x, "name", x)),
)
def test_every_array_field_declares_its_series(cls, field):
    # An array field added without a series rule, or checked by hand, fails here.
    if field.name in PLAIN_ARRAYS:
        assert "series" not in field.metadata
        return
    assert "series" in field.metadata
    first = next(f.name for f in dataclasses.fields(cls) if f.type == "np.ndarray")
    kwargs = RESULT_REQUIRED[cls]
    column = np.asarray(kwargs[field.name])[:, None]
    with pytest.raises(ParameterError) as info:
        cls(**{**kwargs, field.name: column})
    assert str(info.value) == (
        f"{first} must be a non-empty 1-d array" if field.name == first
        else f"{field.name} shape (3, 1) does not match {first} shape (3,)"
    )


USERS = [(100, 10, 5), (60, 3, 40)]
POINTS = [(1.0, 2.0), (2.0, 3.0)]

# Each model function's argument check, through the records' table.
FUNCTION_MESSAGES = [
    (lambda: fit_log(POINTS, log_base=1.0),
     "log_base must be positive and != 1, got 1.0"),
    (lambda: fit_log(POINTS, log_base=NAN),
     "log_base must be positive and != 1, got nan"),
    (lambda: binomial_pmf(1, 2, 1.5), "p must be in [0, 1], got 1.5"),
    (lambda: binomial_pmf(1, 2, NAN), "p must be in [0, 1], got nan"),
    (lambda: success_rate_series(*zip(*USERS), bins=0),
     "bins must be an integer in [1, 100000], got 0"),
    (lambda: success_rate_series(*zip(*USERS), bins=100_001),
     "bins must be an integer in [1, 100000], got 100001"),
    (lambda: success_rate_series(*zip(*USERS), bins=2.5),
     "bins must be an integer in [1, 100000], got 2.5"),
    (lambda: success_rate_series(*zip(*USERS), bins=True),
     "bins must be an integer in [1, 100000], got True"),
    (lambda: success_rate_series(*zip(*USERS), min_submissions=0),
     "min_submissions must be an integer >= 1, got 0"),
    (lambda: success_rate_series(*zip(*USERS), min_submissions=NAN),
     "min_submissions must be an integer >= 1, got nan"),
    (lambda: success_rate_series(*zip((0, 0, 5))),
     "user 0: submissions must be > 0, got 0.0"),
    (lambda: success_rate_series(*zip(*USERS, (60, 3, -1))),
     "user 2: network_S must be >= 0, got -1.0"),
    # a user's first broken rule, in the order submissions, F, S
    (lambda: success_rate_series(*zip(*USERS, (0.0, 5.0, -1.0))),
     "user 2: submissions must be > 0, got 0.0"),
    (lambda: success_rate_series(*zip(*USERS, (10.0, 20.0, -1.0))),
     "user 2: front_page_F must be in [0, submissions], got 20.0"),
    # the first user that breaks any rule, whichever rule it is
    (lambda: success_rate_series(*zip(*USERS, (60.0, 3.0, -1.0), (0.0, 0.0, 5.0))),
     "user 2: network_S must be >= 0, got -1.0"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, 61.0, 5.0))),
     "user 2: front_page_F must be in [0, submissions], got 61.0"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, -1.0, 5.0))),
     "user 2: front_page_F must be in [0, submissions], got -1.0"),
    (lambda: success_rate_series(*zip(*USERS, (NAN, 0.0, 5.0))),
     "user 2: submissions must be > 0, got nan"),
    (lambda: success_rate_series(*zip(*USERS, (INF, 0.0, 5.0))),
     "user 2: submissions must be > 0, got inf"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, NAN, 5.0))),
     "user 2: front_page_F must be in [0, submissions], got nan"),
    (lambda: success_rate_series(*zip(*USERS, (INF, INF, 5.0))),
     "user 2: submissions must be > 0, got inf"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, INF, 5.0))),
     "user 2: front_page_F must be in [0, submissions], got inf"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, 3.0, NAN))),
     "user 2: network_S must be >= 0, got nan"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, 3.0, INF))),
     "user 2: network_S must be >= 0, got inf"),
    (lambda: success_rate_series(*zip(*USERS, (60.0, 3.0, -INF))),
     "user 2: network_S must be >= 0, got -inf"),
    # every column is read as floats, ints included
    (lambda: success_rate_series(*zip(*USERS, (60, 61, 5))),
     "user 2: front_page_F must be in [0, submissions], got 61.0"),
    (lambda: success_rate_series([60.0, 70.0], [1.0], [5.0, 6.0]),
     "columns must be 1-d and of one length, got shapes [(2,), (1,), (2,)]"),
    (lambda: success_rate_series(*np.ones((3, 2, 2))),
     "columns must be 1-d and of one length, got shapes [(2, 2), (2, 2), (2, 2)]"),
    (lambda: rank_proxies([1.0], kappa=0.0), "kappa must be > 0, got 0.0"),
    (lambda: analytic_upcoming_saturation(1.5, VoteModelParams()),
     "r must be in [0, 1], got 1.5"),
]


@pytest.mark.parametrize(
    "call, message", FUNCTION_MESSAGES, ids=[m for _, m in FUNCTION_MESSAGES]
)
def test_each_bad_argument_gets_its_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _same_summary(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("mean_votes", "std_votes", "final_votes", "promotion_times")
    ) and a.n_runs == b.n_runs


@pytest.mark.parametrize("field, value", [("runs", 5), ("seed", 3)])
def test_an_integral_float_ensemble_field_runs_as_its_int(field, value):
    by_float = EnsembleOptions(**{field: float(value)})
    by_int = EnsembleOptions(**{field: value})
    assert type(getattr(by_float, field)) is int
    assert _same_summary(
        ensemble(*_model(60.0), by_float), ensemble(*_model(60.0), by_int)
    )


@pytest.mark.parametrize("mode", ["exact", "tail"])
def test_an_integral_float_observation_tests_as_its_ints(mode):
    counts = {"pool_N": 10, "sample_n": 4, "group_K": 5, "overlap_k": 2}
    by_float = FriendVoteObservation(**{k: float(v) for k, v in counts.items()})
    assert all(type(getattr(by_float, key)) is int for key in counts)
    assert chance_probability(by_float, mode) == chance_probability(
        FriendVoteObservation(**counts), mode
    )
