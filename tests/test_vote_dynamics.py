import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from frontpage import (
    FixedThreshold,
    NetworkProportional,
    StoryConfig,
    VoteModelParams,
)
from frontpage.vote_dynamics import (
    _FRIENDS_RATE_UNIT,
    RateKernel,
    _front_rate,
    _pow,
    _queue_rate,
    _submitter_rate,
    _time_table,
    _voter_rate,
    analytic_upcoming_saturation,
    integrate_votes,
    saturation_time,
    step_count,
)

from channel_rates import channel_rates, total_rate


class TestPagePositions:
    def test_upcoming_initial_and_drift(self, default_params):
        p = default_params
        # queue page 1 at submission, 4.6 after an hour, 61 after 1000 min
        at_0, at_60, at_1000 = _queue_rate(np.array([0.0, 60.0, 1000.0]), p)
        assert at_0 == p.c * p.visit_rate_N
        assert at_60 == pytest.approx(p.c * p.c_u**3.6 * p.visit_rate_N)
        assert at_1000 == pytest.approx(p.c * p.c_u**60 * p.visit_rate_N)

    def test_front_zero_before_promotion(self, default_params):
        p = default_params
        at_0, at_1000 = _front_rate(np.array([0.0, 1000.0]), p)
        assert at_0 == p.visit_rate_N  # front page 1
        assert at_1000 == pytest.approx(p.c_f**3 * p.visit_rate_N)
        # promoted at the end of step 99 (t = 100): the front page reaches
        # the story from step 100 on, at its age since promotion
        kernel = RateKernel(StoryConfig(0.5, 0), p, 2880)
        rate = kernel(0, 2880, np.array([45]), np.array([99]))[:, 0]
        waiting = kernel(0, 2880, np.array([45]), np.array([2880]))[:, 0]
        assert np.array_equal(rate[:100], waiting[:100])
        assert rate[100:].tolist() == kernel.front[:2780].tolist()


def _v_voters(m, **params):
    return _voter_rate(m, VoteModelParams(**params))


class TestCombinedVoterNetwork:
    """The voter-friends channel is alpha * log(m) + beta viewers per day."""

    def test_intercept_at_single_vote(self):
        v = _v_voters(1.0, sm_alpha=112.0, sm_beta=47.0)
        assert v * 1440.0 == pytest.approx(47.0)

    def test_natural_log_growth(self):
        # 112 * ln(10) + 47
        v = _v_voters(10.0, sm_alpha=112.0, sm_beta=47.0)
        assert v * 1440.0 == pytest.approx(304.88953041533315)

    def test_disabled_channel(self):
        for m in (1.0, 5.0, 1e6):
            assert _v_voters(m, sm_alpha=0.0, sm_beta=0.0) == 0.0

    def test_alternate_base(self):
        v = _v_voters(100.0, sm_alpha=112.0, sm_beta=47.0, sm_log_base=10.0)
        assert v * 1440.0 == pytest.approx(112.0 * 2 + 47.0)


class TestVisibility:
    def test_fresh_story_channels(self, default_params):
        p = default_params
        assert _queue_rate(np.array([0.0]), p)[0] == pytest.approx(3.0)  # c * N
        assert _submitter_rate(np.array([0.0]), StoryConfig(0.5, 0), p)[0] == 0.0
        assert _voter_rate(1.0, p) == pytest.approx(47.0 / 1440.0)

    def test_friends_windows_close(self, default_params):
        story = StoryConfig(0.5, 300)
        assert _submitter_rate(np.array([2881.0]), story, default_params)[0] == 0.0
        # the last midpoint inside the 2880-minute window is 2879.5
        kernel = RateKernel(story, default_params, 2882)
        assert kernel.voter_steps == 2880
        rate = kernel(2880, 2882, np.array([5]), np.array([2882]))
        assert rate.tolist() == [[0.0], [0.0]]

    def test_submitter_pool_drains_after_a_day(self, default_params):
        story = StoryConfig(0.5, 300)
        t = np.array([1000.0, 1500.0])
        before, after = _submitter_rate(t, story, default_params)
        assert before == pytest.approx(300.0 / 1440.0)
        assert after == 0.0

    def test_promotion_switches_page_channels(self, default_params):
        p = default_params
        kernel = RateKernel(StoryConfig(0.5, 0), p, 2880)
        # step 100 of a story promoted at t = 100 and of one still waiting
        rate = kernel(100, 101, np.array([45, 45]), np.array([99, 2880]))
        promoted, waiting = rate[0].tolist()
        # front page 1, half a step old: no queue and no voters' friends
        assert promoted == _front_rate(np.array([0.5]), p)[0]
        assert promoted == pytest.approx(10.0, rel=1e-2)
        queue = _queue_rate(np.array([100.5]), p)[0]
        assert queue > 0.0
        assert waiting == pytest.approx(queue + _voter_rate(45.0, p), rel=1e-12)

    def test_queue_expires_after_a_day(self, default_params):
        edge, gone = _queue_rate(np.array([1440.0, 1441.0]), default_params)
        assert edge > 0.0  # window edge counts as inside
        assert gone == 0.0

    def test_total_sums_channels(self, default_params):
        p = default_params
        story = StoryConfig(0.5, 50)
        kernel = RateKernel(story, p, 2880)
        total = kernel(10, 11, np.array([3]), np.array([2880]))[0, 0]
        _, queue, submitter, voters = channel_rates(10.5, 3.0, story, None, p)
        assert submitter > 0.0 and voters > 0.0
        assert total == pytest.approx(queue + submitter + voters, rel=1e-12)


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
            front, queue, _, _ = channel_rates(
                float(t),
                float(traj.votes_m[k]),
                story,
                traj.promotion_time_Th,
                default_params,
            )
            assert not (front > 0.0 and queue > 0.0)

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
        assert kernel.unpromoted[k] == total_rate(t, 7.0, story, None, params)
        assert kernel.submitter[k] == channel_rates(t, 7.0, story, None, params)[2]
        # promoted at t = 0, so the age since promotion is t itself
        assert kernel.front[k] == channel_rates(t, 7.0, story, 0.0, params)[0]
    assert kernel.voter_steps == 0


@pytest.mark.parametrize(
    "network, dt, horizon",
    [
        (0, 1.0, 2880.0),  # no pool: 0.0 everywhere
        (10**300, 1.0, 2880.0),  # a pool that never drains inside the window
        (80, 1.0, 2880.0),  # drains at t = 1440, between two midpoints
        # the midpoint of step 22 is t = 1440, where s - pool_rate * t is
        # exactly 0.0: the last step of the prefix
        (80, 64.0, 2560.0),
        (80, 0.3, 900.0),
    ],
    ids=["S=0", "huge_S", "drains", "drains_on_a_midpoint", "dt_0.3"],
)
def test_submitter_table_equals_the_scalar_rate(network, dt, horizon):
    story = StoryConfig(0.5, network)
    params = VoteModelParams(dt=dt)
    n_steps = step_count(horizon, dt)
    # the rate on Python floats, written apart from _submitter_rate
    pool, window = network * _FRIENDS_RATE_UNIT, params.friends_window
    midpoints = [(k + 0.5) * dt for k in range(n_steps)]
    want = [
        pool if t <= window and network - pool * t >= 0.0 else 0.0
        for t in midpoints
    ]
    assert RateKernel(story, params, n_steps).submitter.tolist() == want
    if dt == 64.0:
        assert network - pool * midpoints[22] == 0.0
        assert want[22] == pool and want[23] == 0.0


def test_kernel_memory_at_the_step_cap():
    """A kernel of 10**6 steps holds its midpoints as one array: no Python
    float per step."""
    story, params = StoryConfig(0.5, 80), VoteModelParams()
    RateKernel(story, params, 10**6)  # fills the cached queue table
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        RateKernel(story, params, 10**6)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000


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
    """The per-step integrator the kernel path replaced: the channels
    summed at each step midpoint, the front page at the kernel's age
    ``(k - promo_end + 0.5) * dt``."""
    dt = params.dt
    n_steps = step_count(horizon, dt)
    threshold = policy.threshold(story)
    times = np.empty(n_steps + 1, dtype=float)
    votes = np.empty(n_steps + 1, dtype=float)
    times[0] = 0.0
    votes[0] = 1.0
    promotion_time = None
    promo_end = None  # the steps done at promotion
    m = 1.0
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        front, queue, submitter, voters = channel_rates(
            t_mid, m, story, promotion_time, params
        )
        if promo_end is not None:
            age = np.array([(k - promo_end + 0.5) * dt])
            with np.errstate(over="ignore", invalid="ignore"):
                front = float(_front_rate(age, params)[0])
        rate = front + queue + submitter + voters
        m = m + story.interestingness_r * rate * dt
        times[k + 1] = (k + 1) * dt
        votes[k + 1] = m
        if promotion_time is None and m >= threshold:
            promotion_time = float(times[k + 1])
            promo_end = k + 1
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


@pytest.mark.parametrize("dt", [0.1, 0.3, 1.0])
def test_integrator_adds_the_kernels_rates(dt):
    """The mean field adds, step by step, the rate the Monte Carlo kernel
    gives one run at its mean count: both paths read the same tables."""
    params = VoteModelParams(dt=dt, sm_alpha=0.0, sm_beta=0.0)
    story, policy = StoryConfig(0.5, 80), FixedThreshold(h=40)
    n_steps = step_count(2880.0, dt)
    kernel = RateKernel(story, params, n_steps)
    threshold = policy.threshold(story)
    r = story.interestingness_r
    m, promo = 1.0, n_steps  # promo >= n_steps: not promoted
    votes = [m]
    for k in range(n_steps):
        m = m + r * kernel(k, k + 1, np.array([1]), np.array([promo]))[0, 0] * dt
        votes.append(m)
        if promo == n_steps and m >= threshold:
            promo = k
    assert promo < n_steps
    traj = integrate_votes(story, params, policy, 2880.0)
    assert np.array_equal(traj.votes_m, votes)
    assert traj.promotion_time_Th == (promo + 1) * dt


def test_overflowing_vote_count_raises():
    params = VoteModelParams(visit_rate_N=1e307)
    with pytest.raises(OverflowError):
        integrate_votes(StoryConfig(0.5, 80), params, FixedThreshold(h=40), 60.0)


def _block_case(dt, n_steps, r, network, voters, policy, friends_steps=None):
    """The integrator and the reference loop on one story, which must agree
    bit for bit; returns the promotion step (None: never promoted)."""
    windows = {}
    if friends_steps is not None:
        # the voter window closes after friends_steps midpoints
        windows = dict(
            friends_window=friends_steps * dt,
            upcoming_window=friends_steps * dt / 2,
        )
    network_off = {} if voters else {"sm_alpha": 0.0, "sm_beta": 0.0}
    params = VoteModelParams(dt=dt, **windows, **network_off)
    story = StoryConfig(r, network)
    horizon = n_steps * dt
    traj = integrate_votes(story, params, policy, horizon)
    times, votes, promotion_time = _reference_integrate(story, params, policy, horizon)
    assert traj.votes_m.dtype == votes.dtype
    assert np.array_equal(traj.votes_m, votes)
    assert traj.promotion_time_Th == promotion_time
    assert traj.times.tobytes() == times.tobytes()
    if promotion_time is None:
        return None
    return int(np.searchsorted(times, promotion_time)) - 1


_DYADIC_DTS = [1.0, 0.5, 0.25, 2.0]
_NON_DYADIC_DTS = [0.3, 0.1, 0.7]
_POLICIES = st.one_of(
    st.builds(FixedThreshold, h=st.integers(2, 25) | st.just(10**9)),
    st.builds(NetworkProportional, factor=st.floats(0.001, 0.1)),
)


@settings(max_examples=120, deadline=None)
@given(
    dt=st.sampled_from(_DYADIC_DTS + _NON_DYADIC_DTS),
    n_steps=st.integers(1, 150),
    r=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    network=st.sampled_from([0, 10**300]) | st.integers(0, 3000),
    voters=st.booleans(),
    policy=_POLICIES,
    friends_steps=st.none() | st.integers(1, 300),
)
def test_block_integrator_bit_equal_to_reference_loop(
    dt, n_steps, r, network, voters, policy, friends_steps
):
    step = _block_case(dt, n_steps, r, network, voters, policy, friends_steps)
    if step is None:
        event("never promoted")
    else:
        event("promoted on the first step" if step == 0 else "promoted later")
        event("promoted on the last step" if step == n_steps - 1 else "not last")


# (dt, n_steps, r, S, voters, policy, friends_steps) -> promotion step
_PROMOTION_CASES = {
    "first_step": ((1.0, 100, 1.0, 10**300, True, FixedThreshold(h=40), None), 0),
    "first_step_no_voters": (
        (0.3, 100, 1.0, 10**300, False, NetworkProportional(1e-303), None),
        0,
    ),
    # long promoted stretches at a dt where the exact age since promotion
    # and the front-page table's (a + 0.5) * dt differ in the last bit
    "early_dt_0.7": ((0.7, 1000, 1.0, 80, False, FixedThreshold(h=2), None), 0),
    "early_dt_0.1": ((0.1, 1000, 1.0, 0, False, FixedThreshold(h=2), None), 3),
    "last_step": ((1.0, 15, 0.5, 80, False, FixedThreshold(h=15), None), 14),
    "last_step_dt_0.3": ((0.3, 30, 0.5, 80, False, FixedThreshold(h=11), None), 29),
    # the voter window closes after 120 steps
    "inside_voter_window": ((1.0, 200, 0.9, 80, True, FixedThreshold(h=40), 120), 25),
    "never": ((0.1, 150, 0.5, 80, True, FixedThreshold(h=40), None), None),
    "never_r_0": ((2.0, 100, 0.0, 10**300, True, NetworkProportional(0.5), 30), None),
}


@pytest.mark.parametrize(
    "case, step", _PROMOTION_CASES.values(), ids=list(_PROMOTION_CASES)
)
def test_block_integrator_promotes_where_the_reference_does(case, step):
    assert _block_case(*case) == step


def test_time_tables_are_shared_and_read_only():
    params = VoteModelParams(dt=0.3)
    a = RateKernel(StoryConfig(0.5, 80), params, 3000)
    b = RateKernel(StoryConfig(0.9, 0), VoteModelParams(dt=0.3), 3000)
    assert a.front is b.front
    queue = _time_table(_queue_rate, params, 3000)
    assert queue is _time_table(_queue_rate, VoteModelParams(dt=0.3), 3000)
    assert not queue.flags.writeable and not a.front.flags.writeable
    assert RateKernel(StoryConfig(0.5, 80), params, 2999).front is not a.front


def test_kernels_of_one_vote_record_hold_one_front_table():
    # every kernel of a command holds the one cached table, never a copy
    params = VoteModelParams()
    kernels = [RateKernel(StoryConfig(r, s), params, 2880) for r, s in
               [(0.05, 80), (0.05, 0), (0.03, 320)]]
    front = _time_table(_front_rate, params, 2880)
    assert all(kernel.front is front for kernel in kernels)
    assert not front.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kernels[0].front[0] = 0.0


def test_page_channels_on_arrays_equal_the_scalar_rates():
    params = VoteModelParams(k_u=0.037, k_f=0.0041, upcoming_window=500.3)
    t = np.random.default_rng(5).uniform(0.0, 1000.0, 500)
    t[:3] = [0.0, 500.3, np.nextafter(500.3, 1e9)]  # on and just past the edge
    queue = _queue_rate(t, params)
    front = _front_rate(t, params)
    # each entry is the rate in Python float arithmetic and float pow
    p = params
    assert queue.tolist() == [
        p.c * p.c_u ** (p.k_u * x + 1.0 - 1.0) * p.visit_rate_N
        if x <= p.upcoming_window
        else 0.0
        for x in t.tolist()
    ]
    assert front.tolist() == [
        p.c_f ** (p.k_f * x + 1.0 - 1.0) * p.visit_rate_N for x in t.tolist()
    ]
    assert queue[1] > 0.0 and queue[2] == 0.0
    exponents = t / 7.0
    assert _pow(0.3, exponents).tolist() == [0.3**x for x in exponents.tolist()]
    assert _pow(0.3, exponents[:0]).shape == (0,)


def test_tables_overflow_as_python_floats_do():
    # k_u * t and k_f * age overflow to inf, whose page factor is 0.0; the
    # scalar rates never raise, and the tables must not either
    params = VoteModelParams(k_u=1e308, k_f=1e308, visit_rate_N=1e300)
    story = StoryConfig(1.0, 80)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        traj = integrate_votes(story, params, FixedThreshold(h=2), 60.0)
        assert RateKernel(story, params, 60).front[-1] == 0.0
    _, votes, promotion_time = _reference_integrate(
        story, params, FixedThreshold(h=2), 60.0
    )
    assert np.array_equal(traj.votes_m, votes)
    assert traj.promotion_time_Th == promotion_time == 9.0


def test_overflow_message_under_raising_errstate():
    params = VoteModelParams(visit_rate_N=1e307)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(OverflowError, match="vote count is inf after 60.0 minutes"):
            integrate_votes(StoryConfig(0.5, 80), params, FixedThreshold(h=40), 60.0)
