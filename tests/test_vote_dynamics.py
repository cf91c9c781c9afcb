import dataclasses
import math

import numpy as np
import pytest

from frontpage import (
    FixedThreshold,
    NetworkProportional,
    StoryConfig,
    VoteModelParams,
)
from frontpage.vote_dynamics import (
    RateKernel,
    analytic_upcoming_saturation,
    integrate_votes,
    promotion_threshold_for,
    saturation_time,
    step_count,
    visibility,
)


class TestPagePositions:
    def test_upcoming_initial_and_drift(self, default_params):
        story = StoryConfig(0.5, 0)
        p = default_params

        def v_upcoming(t):
            return visibility(t, 1.0, story, None, p).v_upcoming

        # queue page 1 at submission, 4.6 after an hour, 61 after 1000 min
        assert v_upcoming(0.0) == p.c * p.visit_rate_N
        assert v_upcoming(60.0) == pytest.approx(p.c * p.c_u**3.6 * p.visit_rate_N)
        assert v_upcoming(1000.0) == pytest.approx(p.c * p.c_u**60 * p.visit_rate_N)

    def test_front_zero_before_promotion(self, default_params):
        story = StoryConfig(0.5, 0)
        p = default_params

        def v_front(t, promotion_time):
            return visibility(t, 45.0, story, promotion_time, p).v_front

        assert v_front(50.0, 100.0) == 0.0
        assert v_front(100.0, 100.0) == p.visit_rate_N  # front page 1
        assert v_front(1100.0, 100.0) == pytest.approx(p.c_f**3 * p.visit_rate_N)

    def test_negative_time_rejected(self, default_params):
        story = StoryConfig(0.5, 0)
        with pytest.raises(ValueError):
            visibility(-1.0, 1.0, story, None, default_params)
        with pytest.raises(ValueError):
            visibility(-1.0, 1.0, story, 0.0, default_params)


def _v_voters(m, **params):
    return visibility(0.0, m, StoryConfig(0.5, 0), None, VoteModelParams(**params))


class TestCombinedVoterNetwork:
    """The voter-friends channel is alpha * log(m) + beta viewers per day."""

    def test_intercept_at_single_vote(self):
        v = _v_voters(1.0, sm_alpha=112.0, sm_beta=47.0)
        assert v.v_voter_friends * 1440.0 == pytest.approx(47.0)

    def test_natural_log_growth(self):
        # 112 * ln(10) + 47
        v = _v_voters(10.0, sm_alpha=112.0, sm_beta=47.0)
        assert v.v_voter_friends * 1440.0 == pytest.approx(304.88953041533315)

    def test_disabled_channel(self):
        for m in (1.0, 5.0, 1e6):
            assert _v_voters(m, sm_alpha=0.0, sm_beta=0.0).v_voter_friends == 0.0

    def test_alternate_base(self):
        v = _v_voters(100.0, sm_alpha=112.0, sm_beta=47.0, sm_log_base=10.0)
        assert v.v_voter_friends * 1440.0 == pytest.approx(112.0 * 2 + 47.0)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            _v_voters(0.5, sm_alpha=112.0, sm_beta=47.0)


class TestVisibility:
    def test_fresh_story_channels(self, default_params):
        v = visibility(0.0, 1.0, StoryConfig(0.5, 0), None, default_params)
        assert v.v_upcoming == pytest.approx(3.0)  # c * N on queue page 1
        assert v.v_front == 0.0
        assert v.v_submitter_friends == 0.0
        assert v.v_voter_friends == pytest.approx(47.0 / 1440.0)

    def test_friends_windows_close(self, default_params):
        story = StoryConfig(0.5, 300)
        v = visibility(2881.0, 5.0, story, None, default_params)
        assert v.v_submitter_friends == 0.0
        assert v.v_voter_friends == 0.0

    def test_submitter_pool_drains_after_a_day(self, default_params):
        story = StoryConfig(0.5, 300)
        before = visibility(1000.0, 5.0, story, None, default_params)
        assert before.v_submitter_friends == pytest.approx(300.0 / 1440.0)
        after = visibility(1500.0, 5.0, story, None, default_params)
        assert after.v_submitter_friends == 0.0

    def test_promotion_switches_page_channels(self, default_params):
        story = StoryConfig(0.5, 0)
        promoted = visibility(100.0, 45.0, story, 100.0, default_params)
        assert promoted.v_upcoming == 0.0
        assert promoted.v_front == pytest.approx(10.0)  # front page 1
        assert promoted.v_voter_friends == 0.0
        waiting = visibility(100.0, 45.0, story, None, default_params)
        assert waiting.v_front == 0.0
        assert waiting.v_upcoming > 0.0

    def test_queue_expires_after_a_day(self, default_params):
        story = StoryConfig(0.5, 0)
        edge = visibility(1440.0, 2.0, story, None, default_params)
        assert edge.v_upcoming > 0.0  # window edge counts as inside
        gone = visibility(1441.0, 2.0, story, None, default_params)
        assert gone.v_upcoming == 0.0

    def test_total_sums_channels(self, default_params):
        v = visibility(10.0, 3.0, StoryConfig(0.5, 50), None, default_params)
        assert v.total == pytest.approx(
            v.v_front + v.v_upcoming + v.v_submitter_friends + v.v_voter_friends
        )


def test_promotion_threshold_for():
    story = StoryConfig(0.5, 160)
    assert promotion_threshold_for(FixedThreshold(h=40), story) == 40.0
    assert promotion_threshold_for(NetworkProportional(1.5), story) == 240.0
    no_network = StoryConfig(0.5, 0)
    assert promotion_threshold_for(NetworkProportional(1.5), no_network) == 2.0


class TestAnalyticSaturation:
    def test_matches_forty_two_r_plus_one(self, default_params):
        value = analytic_upcoming_saturation(1.0, default_params)
        assert 42.0 <= value <= 43.0
        assert analytic_upcoming_saturation(0.5, default_params) == pytest.approx(
            21.8, abs=0.1
        )
        assert analytic_upcoming_saturation(0.0, default_params) == 1.0

    def test_r_out_of_range(self, default_params):
        with pytest.raises(ValueError):
            analytic_upcoming_saturation(1.5, default_params)


class TestIntegrateVotes:
    def test_zero_interest_stays_at_one(self, default_params):
        story = StoryConfig(0.0, 400)
        traj = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        assert np.all(traj.votes_m == 1.0)
        assert traj.promotion_time_Th is None

    def test_queue_only_matches_closed_form(
        self, queue_only_params, unreachable_policy
    ):
        for r in (0.1, 0.5, 0.9):
            story = StoryConfig(r, 0)
            traj = integrate_votes(story, queue_only_params, unreachable_policy, 2880.0)
            closed = analytic_upcoming_saturation(r, queue_only_params)
            assert traj.final_votes == pytest.approx(closed, rel=0.02)

    def test_big_network_promotes_low_interest(self, queue_only_params):
        story = StoryConfig(0.1, 400)
        traj = integrate_votes(story, queue_only_params, FixedThreshold(h=40), 2880.0)
        assert traj.promotion_time_Th is not None

    def test_design_threshold_blocks_low_interest(self, default_params):
        story = StoryConfig(0.15, 160)
        traj = integrate_votes(
            story, default_params, NetworkProportional(1.5), 7 * 1440.0
        )
        assert traj.promotion_time_Th is None

    def test_monotone_in_time(self, default_params):
        story = StoryConfig(0.7, 120)
        traj = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        assert np.all(np.diff(traj.votes_m) >= 0)

    def test_monotone_in_r_grid(self, queue_only_params):
        finals, promotions = [], []
        for r in np.arange(0.1, 0.95, 0.1):
            story = StoryConfig(round(float(r), 2), 80)
            traj = integrate_votes(
                story, queue_only_params, FixedThreshold(h=40), 2880.0
            )
            finals.append(traj.final_votes)
            promotions.append(traj.promotion_time_Th)
        assert all(b >= a for a, b in zip(finals, finals[1:]))
        defined = [t for t in promotions if t is not None]
        assert all(b <= a for a, b in zip(defined, defined[1:]))
        # once a story promotes, every more interesting one does too
        first_promoted = next(
            i for i, t in enumerate(promotions) if t is not None
        )
        assert all(t is not None for t in promotions[first_promoted:])

    def test_promotion_crossing_is_tight(self, default_params):
        story = StoryConfig(0.5, 80)
        traj = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        th = traj.promotion_time_Th
        assert th is not None
        i = int(np.searchsorted(traj.times, th))
        assert traj.votes_m[i] >= 40.0
        assert traj.votes_m[i - 1] < 40.0

    def test_channel_complementarity(self, default_params):
        story = StoryConfig(0.9, 80)
        traj = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        for k, t in enumerate(traj.times[:-1]):
            v = visibility(
                float(t),
                float(traj.votes_m[k]),
                story,
                traj.promotion_time_Th,
                default_params,
            )
            assert not (v.v_front > 0.0 and v.v_upcoming > 0.0)

    def test_reproducible(self, default_params):
        story = StoryConfig(0.5, 80)
        a = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        b = integrate_votes(story, default_params, FixedThreshold(h=40), 2880.0)
        assert np.array_equal(a.votes_m, b.votes_m)
        assert a.promotion_time_Th == b.promotion_time_Th

    def test_horizon_must_align_with_dt(self, default_params):
        story = StoryConfig(0.5, 0)
        with pytest.raises(ValueError):
            integrate_votes(story, default_params, FixedThreshold(h=40), 10.5)
        with pytest.raises(ValueError):
            integrate_votes(story, default_params, FixedThreshold(h=40), 0.0)


def test_saturation_time_detects_stalling(queue_only_params, unreachable_policy):
    story = StoryConfig(0.5, 0)
    traj = integrate_votes(story, queue_only_params, unreachable_policy, 1440.0)
    t_sat = saturation_time(traj)
    assert t_sat is not None
    # the queue decays with a ~14 min time constant, so votes stall well
    # before the day is out
    assert 0.0 < t_sat < 1440.0
    growing = integrate_votes(
        StoryConfig(0.9, 400), VoteModelParams(), FixedThreshold(h=40), 720.0
    )
    assert saturation_time(growing) is None


_KERNEL_CASES = [
    (VoteModelParams(sm_alpha=0.0, sm_beta=0.0), 2880.0),
    (
        VoteModelParams(
            sm_alpha=0.0,
            sm_beta=0.0,
            dt=0.3,
            k_f=0.05,
            upcoming_window=100.0,
            friends_window=700.0,
        ),
        900.0,
    ),
]


@pytest.mark.parametrize("params, horizon", _KERNEL_CASES, ids=["defaults", "dt_0.3"])
def test_kernel_tables_equal_visibility_exactly(params, horizon):
    story = StoryConfig(0.5, 80)
    n_steps = step_count(horizon, params.dt)
    kernel = RateKernel(story, params, n_steps)
    for k in range(n_steps):
        t = (k + 0.5) * params.dt
        waiting = visibility(t, 7.0, story, None, params)
        assert kernel.unpromoted[k] == waiting.total
        assert kernel.submitter[k] == waiting.v_submitter_friends
        # promoted at t = 0, so the age since promotion is t itself
        assert kernel.front[k] == visibility(t, 7.0, story, 0.0, params).v_front
    assert kernel.voter_steps == 0


@pytest.mark.parametrize(
    "dt, horizon, upcoming_window, friends_window",
    [
        (1.0, 2880.0, 1440.0, 2880.0),  # defaults: every midpoint inside
        (1.0, 2880.0, 1000.0, 1000.5),  # exactly on the midpoint of step 1000
        (0.3, 900.0, 20.0, (100 + 0.5) * 0.3),  # on an inexact midpoint
        (0.3, 900.0, 100.0, 700.0),  # between two midpoints
        (1.0, 600.0, 1440.0, 2880.0),  # window past the horizon
    ],
)
def test_voter_steps_count_the_midpoints_inside_the_window(
    dt, horizon, upcoming_window, friends_window
):
    params = VoteModelParams(
        dt=dt, upcoming_window=upcoming_window, friends_window=friends_window
    )
    n_steps = step_count(horizon, dt)
    kernel = RateKernel(StoryConfig(0.5, 80), params, n_steps)
    midpoints = [(k + 0.5) * dt for k in range(n_steps)]
    assert kernel.voter_steps == sum(x <= friends_window for x in midpoints)
    no_voters = dataclasses.replace(params, sm_alpha=0.0, sm_beta=0.0)
    assert RateKernel(StoryConfig(0.5, 80), no_voters, n_steps).voter_steps == 0


def _reference_integrate(story, params, policy, horizon):
    """The per-step ``visibility()`` integrator the kernel path replaced."""
    dt = params.dt
    n_steps = step_count(horizon, dt)
    threshold = promotion_threshold_for(policy, story)
    times = np.empty(n_steps + 1, dtype=float)
    votes = np.empty(n_steps + 1, dtype=float)
    times[0] = 0.0
    votes[0] = 1.0
    promotion_time = None
    m = 1.0
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        vis = visibility(t_mid, m, story, promotion_time, params)
        m = m + story.interestingness_r * vis.total * dt
        times[k + 1] = (k + 1) * dt
        votes[k + 1] = m
        if promotion_time is None and m >= threshold:
            promotion_time = float(times[k + 1])
    return times, votes, promotion_time


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1, 0.3])
@pytest.mark.parametrize(
    "policy", [FixedThreshold(h=40), NetworkProportional(0.5)], ids=["fixed", "prop"]
)
@pytest.mark.parametrize("voters", [True, False], ids=["voters", "no_voters"])
def test_integrator_bit_equal_to_reference_loop(dt, policy, voters):
    network = {} if voters else {"sm_alpha": 0.0, "sm_beta": 0.0}
    params = VoteModelParams(dt=dt, **network)
    story = StoryConfig(0.5, 80)
    traj = integrate_votes(story, params, policy, 2880.0)
    times, votes, promotion_time = _reference_integrate(story, params, policy, 2880.0)
    assert traj.promotion_time_Th is not None
    assert traj.promotion_time_Th == promotion_time
    assert traj.times.tobytes() == times.tobytes()
    assert traj.votes_m.tobytes() == votes.tobytes()


def test_overflowing_vote_count_raises():
    params = VoteModelParams(visit_rate_N=1e307)
    with pytest.raises(OverflowError):
        integrate_votes(StoryConfig(0.5, 80), params, FixedThreshold(h=40), 60.0)
