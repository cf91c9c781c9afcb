import math

import numpy as np
import pytest

from frontpage import (
    FixedThreshold,
    ParameterError,
    StochasticRunConfig,
    StoryConfig,
    VoteModelParams,
)
from frontpage.stochastic_sim import RateKernel, ensemble, simulate_once
from frontpage.vote_dynamics import (
    analytic_upcoming_saturation,
    integrate_votes,
    promotion_threshold_for,
    step_count,
    visibility,
)


def _config(**overrides):
    defaults = dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=0),
        params=VoteModelParams(sm_alpha=0.0, sm_beta=0.0),
        policy=FixedThreshold(h=1000),
        horizon=360.0,
        seed=42,
        runs=1,
    )
    defaults.update(overrides)
    return StochasticRunConfig(**defaults)


def test_config_validation():
    with pytest.raises(ParameterError, match="runs"):
        _config(runs=0)
    with pytest.raises(ParameterError, match="seed"):
        _config(seed=-1)
    with pytest.raises(ParameterError, match="arrival_mode"):
        _config(arrival_mode="gaussian")
    with pytest.raises(ParameterError, match="horizon"):
        _config(horizon=-5.0)


def test_zero_interest_never_votes():
    config = _config(story=StoryConfig(interestingness_r=0.0, submitter_network_S=400))
    for run_index in (0, 1, 17):
        traj = simulate_once(config, run_index=run_index)
        assert np.all(traj.votes_m == 1)
        assert traj.promotion_time_Th is None


def test_trajectories_are_integer_and_monotone():
    traj = simulate_once(_config(), run_index=3)
    assert traj.votes_m.dtype == np.int64
    assert traj.votes_m[0] == 1
    assert np.all(np.diff(traj.votes_m) >= 0)


def test_mean_mode_reproduces_integrator_exactly():
    config = _config(arrival_mode="mean")
    deterministic = integrate_votes(
        config.story, config.params, config.policy, config.horizon
    )
    stochastic = simulate_once(config)
    assert np.array_equal(stochastic.votes_m, deterministic.votes_m)
    assert stochastic.promotion_time_Th == deterministic.promotion_time_Th

    promoting = _config(
        arrival_mode="mean",
        runs=3,
        story=StoryConfig(interestingness_r=0.9, submitter_network_S=80),
        policy=FixedThreshold(h=40),
    )
    deterministic = integrate_votes(
        promoting.story, promoting.params, promoting.policy, promoting.horizon
    )
    assert deterministic.promotion_time_Th is not None
    summary = ensemble(promoting)
    assert np.array_equal(summary.mean_votes, deterministic.votes_m)
    assert np.all(summary.std_votes == 0.0)
    assert np.all(summary.final_votes == deterministic.votes_m[-1])
    assert np.all(summary.promotion_times == deterministic.promotion_time_Th)
    assert summary.promotion_probability == 1.0


def test_same_seed_same_trajectory():
    a = simulate_once(_config(), run_index=5)
    b = simulate_once(_config(), run_index=5)
    assert np.array_equal(a.votes_m, b.votes_m)


def test_runs_are_distinct():
    a = simulate_once(_config(), run_index=0)
    b = simulate_once(_config(), run_index=1)
    assert not np.array_equal(a.votes_m, b.votes_m)


def test_single_run_ensemble_degenerates():
    config = _config(runs=1)
    summary = ensemble(config)
    only = simulate_once(config, run_index=0)
    np.testing.assert_array_equal(summary.mean_votes, only.votes_m)
    assert np.all(summary.std_votes == 0.0)
    assert summary.promotion_probability == 0.0
    assert summary.promotion_time_quantiles == {}


def test_ensemble_is_deterministic():
    a = ensemble(_config(runs=30))
    b = ensemble(_config(runs=30))
    np.testing.assert_array_equal(a.mean_votes, b.mean_votes)
    np.testing.assert_array_equal(a.promotion_times, b.promotion_times)


def test_ensemble_mean_tracks_closed_form():
    config = _config(runs=400, horizon=720.0, seed=99)
    summary = ensemble(config)
    closed = analytic_upcoming_saturation(0.5, config.params)
    se = summary.final_votes.std(ddof=1) / np.sqrt(summary.n_runs)
    assert abs(summary.final_votes.mean() - closed) <= 3 * se


def test_strong_story_promotes_in_large_majority_of_runs():
    config = _config(
        story=StoryConfig(interestingness_r=0.9, submitter_network_S=80),
        policy=FixedThreshold(h=40),
        horizon=720.0,
        runs=1000,
        seed=7,
    )
    summary = ensemble(config)
    assert summary.promotion_probability > 0.9
    # quantiles exist and are ordered
    qs = summary.promotion_time_quantiles
    assert list(qs) == [0.1, 0.25, 0.5, 0.75, 0.9]
    values = list(qs.values())
    assert values == sorted(values)


def test_promotion_time_matches_threshold_crossing():
    config = _config(
        story=StoryConfig(interestingness_r=0.9, submitter_network_S=80),
        policy=FixedThreshold(h=40),
        horizon=720.0,
        runs=1,
        seed=11,
    )
    traj = simulate_once(config)
    th = traj.promotion_time_Th
    assert th is not None
    i = int(np.searchsorted(traj.times, th))
    assert traj.votes_m[i] >= 40
    assert traj.votes_m[i - 1] < 40


# All four channels on, near the promotion threshold: the [vote] values of
# configs/votes_baseline.ini (the package defaults) with a dull story.
NEAR_THRESHOLD = dict(
    story=StoryConfig(interestingness_r=0.09, submitter_network_S=80),
    params=VoteModelParams(),
    policy=FixedThreshold(h=40),
    horizon=1440.0,
)

# A visit rate whose per-step means are far past the inversion range.
HUGE_RATE = dict(
    story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
    params=VoteModelParams(visit_rate_N=1e4),
    policy=FixedThreshold(h=40),
    horizon=120.0,
)


def _reference_run(config, run_index):
    """Final votes and promotion time of one run of the per-channel sampler.

    Every step draws a Poisson number of viewers through each channel and
    a binomial number of votes among them: the scheme the collapsed draw
    replaced, kept here as the distributional reference.
    """
    story, params = config.story, config.params
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(run_index,))
    )
    dt = params.dt
    threshold = promotion_threshold_for(config.policy, story)
    r = story.interestingness_r
    promotion_time = None
    m = 1
    for k in range(step_count(config.horizon, dt)):
        vis = visibility((k + 0.5) * dt, float(m), story, promotion_time, params)
        for rate in (
            vis.v_front,
            vis.v_upcoming,
            vis.v_submitter_friends,
            vis.v_voter_friends,
        ):
            lam = rate * dt
            if lam <= 0.0:
                continue
            viewers = int(rng.poisson(lam))
            if viewers and r > 0.0:
                m += int(rng.binomial(viewers, r))
        if promotion_time is None and m >= threshold:
            promotion_time = (k + 1) * dt
    return m, promotion_time


def _ks_statistic(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_collapsed_draw_matches_per_channel_sampler():
    reference = _config(**NEAR_THRESHOLD, seed=2026, runs=200)
    ref = [_reference_run(reference, i) for i in range(reference.runs)]
    ref_final = np.array([final for final, _ in ref], dtype=float)
    ref_promo = np.array([t for _, t in ref if t is not None])
    new = ensemble(_config(**NEAR_THRESHOLD, seed=2027, runs=2000))
    new_promo = new.promotion_times[~np.isnan(new.promotion_times)]

    se = math.hypot(
        ref_final.std(ddof=1) / math.sqrt(ref_final.size),
        new.final_votes.std(ddof=1) / math.sqrt(new.n_runs),
    )
    assert abs(new.final_votes.mean() - ref_final.mean()) <= 4 * se

    p_ref = ref_promo.size / reference.runs
    p_new = new.promotion_probability
    se = math.hypot(
        math.sqrt(p_ref * (1 - p_ref) / reference.runs),
        math.sqrt(p_new * (1 - p_new) / new.n_runs),
    )
    assert 0.0 < p_new < 1.0
    assert abs(p_new - p_ref) <= 4 * se

    # two-sample Kolmogorov-Smirnov critical value at alpha = 0.001
    n, k = ref_promo.size, new_promo.size
    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt((n + k) / (n * k))
    assert _ks_statistic(ref_promo, new_promo) < critical


@pytest.mark.parametrize(
    "setting",
    [NEAR_THRESHOLD, HUGE_RATE, dict(horizon=360.0)],
    ids=["near_threshold", "huge_rate", "queue_only"],
)
def test_run_draws_depend_only_on_seed_and_index(setting):
    wide = ensemble(_config(**setting, seed=31, runs=40))
    narrow = ensemble(_config(**setting, seed=31, runs=10))
    np.testing.assert_array_equal(narrow.final_votes, wide.final_votes[:10])
    np.testing.assert_array_equal(
        narrow.promotion_times, wide.promotion_times[:10]
    )
    for i in (0, 9, 39):
        run = simulate_once(_config(**setting, seed=31), run_index=i)
        assert run.final_votes == wide.final_votes[i]
        th = run.promotion_time_Th
        assert (th is None and np.isnan(wide.promotion_times[i])) or (
            th == wide.promotion_times[i]
        )


def test_huge_visit_rate_tracks_integrator():
    config = _config(**HUGE_RATE, seed=5, runs=200)
    summary = ensemble(config)
    for i in (0, 1, 2):
        traj = simulate_once(config, run_index=i)
        assert traj.votes_m.dtype == np.int64
        assert np.all(np.diff(traj.votes_m) >= 0)
    # Every run promotes at the end of its first step, whose rate does not
    # depend on the draws; after it the rate is a function of time alone,
    # so the mean-field trajectory is the exact mean.
    assert np.all(summary.promotion_times == 1.0)
    deterministic = integrate_votes(
        config.story, config.params, config.policy, config.horizon
    )
    se = summary.final_votes.std(ddof=1) / math.sqrt(summary.n_runs)
    assert abs(summary.final_votes.mean() - deterministic.final_votes) <= 4 * se


def test_vote_count_past_int64_raises():
    params = VoteModelParams(visit_rate_N=1e17)
    with pytest.raises(OverflowError):
        ensemble(_config(**{**HUGE_RATE, "params": params, "horizon": 1440.0}))


def test_full_interest_tracks_integrator():
    config = _config(
        story=StoryConfig(interestingness_r=1.0, submitter_network_S=0),
        horizon=720.0,
        seed=8,
        runs=400,
    )
    summary = ensemble(config)
    traj = simulate_once(config, run_index=4)
    assert np.all(np.diff(traj.votes_m) >= 0)
    assert summary.promotion_probability == 0.0
    deterministic = integrate_votes(
        config.story, config.params, config.policy, config.horizon
    )
    se = summary.final_votes.std(ddof=1) / math.sqrt(summary.n_runs)
    assert abs(summary.final_votes.mean() - deterministic.final_votes) <= 4 * se


@pytest.mark.parametrize(
    "params, horizon",
    [
        (VoteModelParams(), 2880.0),
        (
            VoteModelParams(
                dt=0.5,
                k_f=0.05,
                sm_log_base=10.0,
                upcoming_window=100.0,
                friends_window=700.0,
            ),
            800.0,
        ),
    ],
    ids=["defaults", "short_windows"],
)
def test_rate_kernel_matches_visibility(params, horizon):
    story = StoryConfig(interestingness_r=0.5, submitter_network_S=80)
    n_steps = step_count(horizon, params.dt)
    kernel = RateKernel(story, params, n_steps)
    rng = np.random.default_rng(77)
    steps = rng.integers(0, n_steps, 400)
    m = rng.integers(1, 5000, steps.size)
    promo = np.where(
        rng.random(steps.size) < 0.5, n_steps, rng.integers(0, n_steps, steps.size)
    )
    for k, votes, p in zip(steps, m, promo):
        got = kernel(int(k), np.array([votes]), np.array([p]))[0]
        promotion_time = None if p == n_steps else (p + 1) * params.dt
        want = visibility(
            (k + 0.5) * params.dt, float(votes), story, promotion_time, params
        ).total
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
