import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontpage import (
    FixedThreshold,
    FriendVoteObservation,
    NetworkProportional,
    ParameterError,
    RankModelParams,
    StoryConfig,
    UserState,
    VoteModelParams,
    VoteTrajectory,
)
from frontpage.cli import load_config
from frontpage.core import EnsembleOptions, RunOptions, record_from_mapping


def test_golden_defaults():
    v = VoteModelParams()
    assert (v.c, v.c_u, v.c_f) == (0.3, 0.3, 0.3)
    assert v.visit_rate_N == 10.0
    assert v.k_u == 0.060
    assert v.k_f == 0.003
    assert (v.sm_alpha, v.sm_beta) == (112.0, 47.0)
    assert v.sm_log_base == math.e
    assert (v.upcoming_window, v.friends_window) == (1440.0, 2880.0)
    assert v.dt == 1.0
    r = RankModelParams()
    assert (r.a, r.b, r.c_success, r.dt_weeks) == (0.03, 1.0, 0.002, 1.0)
    assert NetworkProportional().factor == 1.5
    assert FixedThreshold().h == 40


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"c_u": 1.0}, "c_u"),  # saturation diverges at c_u = 1
        ({"c_u": 0.0}, "c_u"),
        ({"c_f": 1.0}, "c_f"),
        ({"c": 0.0}, "c"),
        ({"c": 1.2}, "c"),
        ({"visit_rate_N": 0.0}, "visit_rate_N"),
        ({"sm_beta": -1.0}, "sm_beta"),
        ({"friends_window": 0.0}, "friends_window"),
        ({"k_u": 0.0}, "k_u"),
        ({"k_f": -0.1}, "k_f"),
        ({"sm_alpha": -1.0}, "sm_alpha"),
        ({"sm_log_base": 1.0}, "sm_log_base"),
        ({"upcoming_window": 3000.0}, "upcoming_window"),  # exceeds friends_window
        ({"dt": 0.0}, "dt"),
        ({"dt": float("nan")}, "dt"),
    ],
)
def test_vote_params_rejections_name_the_field(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        VoteModelParams(**kwargs)


@pytest.mark.parametrize("h", [1, 2.5])  # h = 1 would promote at the initial vote
def test_fixed_threshold_rejects_h(h):
    with pytest.raises(ParameterError, match=r"^h must be an integer >= 2"):
        FixedThreshold(h=h)


def test_error_lists_every_violation():
    with pytest.raises(ParameterError) as exc:
        VoteModelParams(c_u=2.0, visit_rate_N=-1.0, k_u=0.0)
    message = str(exc.value)
    assert "c_u" in message
    assert "visit_rate_N" in message
    assert "k_u" in message


def test_story_config_bounds():
    assert StoryConfig(interestingness_r=0.0).submitter_network_S == 0
    assert StoryConfig(interestingness_r=1.0, submitter_network_S=400)
    with pytest.raises(ParameterError, match="interestingness_r"):
        StoryConfig(interestingness_r=1.5)
    with pytest.raises(ParameterError, match="submitter_network_S"):
        StoryConfig(interestingness_r=0.5, submitter_network_S=-3)
    with pytest.raises(ParameterError, match="submitter_network_S"):
        StoryConfig(interestingness_r=0.5, submitter_network_S=2.5)


def test_policy_bounds():
    with pytest.raises(ParameterError, match="h"):
        FixedThreshold(h=1)
    with pytest.raises(ParameterError, match="factor"):
        NetworkProportional(factor=0.0)


def test_rank_and_user_bounds():
    with pytest.raises(ParameterError, match="c_success"):
        RankModelParams(c_success=-0.001)
    with pytest.raises(ParameterError, match="dt_weeks"):
        RankModelParams(dt_weeks=0.0)
    with pytest.raises(ParameterError, match="network_S"):
        UserState(front_page_F=1.0, network_S=-2.0, submission_rate_M=0.0)


def test_trajectory_invariants():
    good = VoteTrajectory(times=[0.0, 1.0, 2.0], votes_m=[1.0, 1.5, 1.5])
    assert good.final_votes == 1.5
    assert good.promotion_time_Th is None
    with pytest.raises(ParameterError, match="start at 1"):
        VoteTrajectory(times=[0.0, 1.0], votes_m=[0.0, 1.0])
    with pytest.raises(ParameterError, match="nondecreasing"):
        VoteTrajectory(times=[0.0, 1.0, 2.0], votes_m=[1.0, 2.0, 1.9])
    with pytest.raises(ParameterError, match="strictly increasing"):
        VoteTrajectory(times=[0.0, 1.0, 1.0], votes_m=[1.0, 1.0, 1.0])


def test_observation_bounds():
    obs = FriendVoteObservation(pool_N=15742, sample_n=215, group_K=120, overlap_k=4)
    assert obs.overlap_k == 4
    with pytest.raises(ParameterError, match="overlap_k"):
        FriendVoteObservation(pool_N=100, sample_n=10, group_K=5, overlap_k=6)
    with pytest.raises(ParameterError, match="sample_n"):
        FriendVoteObservation(pool_N=100, sample_n=101, group_K=5, overlap_k=0)
    with pytest.raises(ParameterError, match="group_K"):
        FriendVoteObservation(pool_N=100, sample_n=10, group_K=101, overlap_k=0)


@given(
    c_u=st.floats(allow_nan=True, allow_infinity=True, width=64),
    k_u=st.floats(allow_nan=True, allow_infinity=True, width=64),
    h=st.one_of(st.integers(min_value=-10, max_value=10**9), st.floats(width=64)),
)
@settings(max_examples=200, deadline=None)
def test_validation_is_total(c_u, k_u, h):
    """Any field combination either validates or raises ParameterError."""
    try:
        params = VoteModelParams(c_u=c_u, k_u=k_u)
    except ParameterError:
        pass
    else:
        assert 0.0 < params.c_u < 1.0
        assert params.k_u > 0.0
    try:
        policy = FixedThreshold(h=h)
    except ParameterError:
        return
    assert policy.h >= 2


def test_config_text_round_trip(tmp_path):
    """A record written out as an INI section reads back equal."""
    params = VoteModelParams(c=0.25, sm_log_base=10.0)
    path = tmp_path / "vote.ini"
    path.write_text(
        "[vote]\n"
        + "".join(
            f"{f.name} = {getattr(params, f.name)!r}\n"
            for f in dataclasses.fields(params)
        )
    )
    assert "c = 0.25" in path.read_text()
    cfg, records = load_config(path)
    assert record_from_mapping(VoteModelParams, cfg["vote"]) == params
    assert records["vote"] == params


def test_record_from_mapping_errors():
    with pytest.raises(ParameterError, match="unknown key"):
        record_from_mapping(VoteModelParams, {"speed": "1"})
    with pytest.raises(ParameterError, match="cannot parse"):
        record_from_mapping(VoteModelParams, {"c": "fast"})
    with pytest.raises(ParameterError, match=r"^h: cannot parse '40.5' as int"):
        record_from_mapping(FixedThreshold, {"h": "40.5"})
    # a value of up to 40 characters is echoed whole, a longer one cut
    with pytest.raises(ParameterError, match=f"^c: cannot parse '{'x' * 40}' as float$"):
        record_from_mapping(VoteModelParams, {"c": "x" * 40})
    with pytest.raises(
        ParameterError, match=f"^c: cannot parse '{'x' * 40}…' \\(41 characters\\) as float$"
    ):
        record_from_mapping(VoteModelParams, {"c": "x" * 41})
    with pytest.raises(ParameterError, match="missing required"):
        record_from_mapping(StoryConfig, {"submitter_network_S": "10"})
    story = record_from_mapping(
        StoryConfig, {"interestingness_r": "0.5", "submitter_network_S": "80"}
    )
    assert story == StoryConfig(interestingness_r=0.5, submitter_network_S=80)


def test_run_and_ensemble_options_from_strings():
    run = record_from_mapping(
        RunOptions, {"weeks": "3.0", "M_schedule": "1, 2,,3", "rank_kappa": "10"}
    )
    assert run == RunOptions(weeks=3, rank_kappa=10.0, M_schedule=(1.0, 2.0, 3.0))
    assert isinstance(run.weeks, int)
    with pytest.raises(ParameterError, match="M_schedule has 2 entries but weeks = 3"):
        record_from_mapping(RunOptions, {"weeks": "3", "M_schedule": "1,2"})
    with pytest.raises(ParameterError, match="M_schedule: cannot parse"):
        record_from_mapping(RunOptions, {"M_schedule": " , "})
    with pytest.raises(ParameterError) as exc:
        RunOptions(horizon_minutes=float("nan"), weeks=0, rank_kappa=-1.0)
    for name in ("horizon_minutes", "weeks", "rank_kappa"):
        assert name in str(exc.value)
    opts = record_from_mapping(
        EnsembleOptions, {"runs": "3.0", "seed": "7", "arrival_mode": " mean "}
    )
    assert opts == EnsembleOptions(runs=3, seed=7, arrival_mode="mean")
    with pytest.raises(ParameterError, match="unknown key.*for EnsembleOptions: speed"):
        record_from_mapping(EnsembleOptions, {"speed": "1"})


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"runs": 0}, "runs"),
        ({"seed": -1}, "seed"),
        ({"arrival_mode": "x"}, "arrival_mode"),
    ],
)
def test_ensemble_options_check_themselves(kwargs, field):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        EnsembleOptions(**kwargs)


def test_ensemble_runs_are_capped():
    assert EnsembleOptions(runs=100_000).runs == 100_000
    with pytest.raises(
        ParameterError, match=r"^runs must be an integer in \[1, 100000\], got 100001$"
    ):
        EnsembleOptions(runs=100_001)
