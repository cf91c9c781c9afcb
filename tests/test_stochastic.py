import dataclasses
import functools
import math
import zlib
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontpage import (
    EnsembleOptions,
    FixedThreshold,
    ParameterError,
    PromotionPolicy,
    StoryConfig,
    VoteModelParams,
)
from frontpage.stochastic_sim import (
    _INVERSION_MAX_MEAN,
    _SEGMENT_RUN_STEPS,
    _UNIFORM_BLOCK,
    PROMOTION_QUANTILES,
    EnsembleSummary,
    _lockstep,
    _poisson_by_inversion,
    _quantile,
    ensemble,
)
from frontpage.vote_dynamics import (
    _VOTER_TABLE_CAP,
    RateKernel,
    _voter_rate,
    analytic_upcoming_saturation,
    integrate_votes,
    step_count,
)

from channel_rates import channel_rates, total_rate


class Config(NamedTuple):
    """The arguments of ``ensemble``, in order: ``ensemble(*config)``."""

    story: StoryConfig
    params: VoteModelParams
    policy: PromotionPolicy
    horizon: float
    options: EnsembleOptions


def _config(
    story=StoryConfig(interestingness_r=0.5, submitter_network_S=0),
    params=VoteModelParams(sm_alpha=0.0, sm_beta=0.0),
    policy=FixedThreshold(h=1000),
    horizon=360.0,
    **options,
):
    """The arguments of an ensemble; ``options`` are ``[ensemble]`` fields."""
    options = {"seed": 42, "runs": 1, **options}
    return Config(story, params, policy, horizon, EnsembleOptions(**options))


def _run(config, i):
    """Vote counts after each step, from the submitter's vote on, and the
    promotion time (None if it never promoted) of run ``i`` of the
    Poisson-mode ensemble of ``config``."""
    n_steps = step_count(config.horizon, config.params.dt)
    votes = [np.ones(1, dtype=np.int64)]
    for block, promo_step in _lockstep(*config[:4], config.options.seed, [i]):
        votes.append(block[:, 0])
    step = int(promo_step[0])
    th = (step + 1) * config.params.dt if step < n_steps else None
    return np.concatenate(votes), th


def test_config_validation():
    with pytest.raises(ParameterError, match="runs"):
        _config(runs=0)
    with pytest.raises(ParameterError, match="seed"):
        _config(seed=-1)
    with pytest.raises(ParameterError, match="arrival_mode"):
        _config(arrival_mode="gaussian")


def test_options_default_to_the_ensemble_record():
    model = _config(horizon=60.0)[:4]
    default, explicit = ensemble(*model), ensemble(*model, EnsembleOptions())
    assert default.n_runs == explicit.n_runs == 100
    np.testing.assert_array_equal(default.final_votes, explicit.final_votes)


def test_zero_interest_never_votes():
    config = _config(story=StoryConfig(interestingness_r=0.0, submitter_network_S=400))
    for i in (0, 1, 17):
        votes, th = _run(config, i)
        assert np.all(votes == 1)
        assert th is None


def test_trajectories_are_integer_and_monotone():
    votes, _ = _run(_config(), 3)
    assert votes.dtype == np.int64
    assert votes[0] == 1
    assert np.all(np.diff(votes) >= 0)


def test_mean_mode_reproduces_integrator_exactly():
    config = _config(arrival_mode="mean")
    deterministic = integrate_votes(
        config.story, config.params, config.policy, config.horizon
    )
    only = ensemble(*config)
    assert np.array_equal(only.mean_votes, deterministic.votes_m)
    assert np.all(np.isnan(only.promotion_times))
    assert deterministic.promotion_time_Th is None

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
    summary = ensemble(*promoting)
    assert np.array_equal(summary.mean_votes, deterministic.votes_m)
    assert np.all(summary.std_votes == 0.0)
    assert np.all(summary.final_votes == deterministic.votes_m[-1])
    assert np.all(summary.promotion_times == deterministic.promotion_time_Th)
    assert summary.promotion_probability == 1.0


def test_same_seed_same_trajectory():
    assert np.array_equal(_run(_config(), 5)[0], _run(_config(), 5)[0])


def test_runs_are_distinct():
    assert not np.array_equal(_run(_config(), 0)[0], _run(_config(), 1)[0])


def test_single_run_ensemble_degenerates():
    config = _config(runs=1)
    summary = ensemble(*config)
    votes, _ = _run(config, 0)
    np.testing.assert_array_equal(summary.mean_votes, votes)
    assert np.all(summary.std_votes == 0.0)
    assert summary.promotion_probability == 0.0
    assert summary.promotion_time_quantiles == {}


def test_ensemble_is_deterministic():
    a = ensemble(*_config(runs=30))
    b = ensemble(*_config(runs=30))
    np.testing.assert_array_equal(a.mean_votes, b.mean_votes)
    np.testing.assert_array_equal(a.promotion_times, b.promotion_times)


def test_ensemble_mean_tracks_closed_form():
    config = _config(runs=400, horizon=720.0, seed=99)
    summary = ensemble(*config)
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
    summary = ensemble(*config)
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
    only = ensemble(*config)
    [th] = only.promotion_times
    assert not np.isnan(th)
    i = int(np.searchsorted(only.times, th))
    assert only.mean_votes[i] >= 40
    assert only.mean_votes[i - 1] < 40


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
        np.random.SeedSequence(entropy=config.options.seed, spawn_key=(run_index,))
    )
    dt = params.dt
    threshold = config.policy.threshold(story)
    r = story.interestingness_r
    promotion_time = None
    m = 1
    for k in range(step_count(config.horizon, dt)):
        t = (k + 0.5) * dt
        for rate in channel_rates(t, float(m), story, promotion_time, params):
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
    ref = [_reference_run(reference, i) for i in range(reference.options.runs)]
    ref_final = np.array([final for final, _ in ref], dtype=float)
    ref_promo = np.array([t for _, t in ref if t is not None])
    new = ensemble(*_config(**NEAR_THRESHOLD, seed=2027, runs=2000))
    new_promo = new.promotion_times[~np.isnan(new.promotion_times)]

    se = math.hypot(
        ref_final.std(ddof=1) / math.sqrt(ref_final.size),
        new.final_votes.std(ddof=1) / math.sqrt(new.n_runs),
    )
    assert abs(new.final_votes.mean() - ref_final.mean()) <= 4 * se

    p_ref = ref_promo.size / reference.options.runs
    p_new = new.promotion_probability
    se = math.hypot(
        math.sqrt(p_ref * (1 - p_ref) / reference.options.runs),
        math.sqrt(p_new * (1 - p_new) / new.n_runs),
    )
    assert 0.0 < p_new < 1.0
    assert abs(p_new - p_ref) <= 4 * se

    # two-sample Kolmogorov-Smirnov critical value at alpha = 0.001
    n, k = ref_promo.size, new_promo.size
    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt((n + k) / (n * k))
    assert _ks_statistic(ref_promo, new_promo) < critical


def _poisson_tail(mean, k):
    """P(X >= k) for X ~ Poisson(mean)."""
    below = (math.exp(i * math.log(mean) - mean - math.lgamma(i + 1)) for i in range(k))
    return 1.0 - math.fsum(below)


def test_promotion_law_is_a_poisson_tail_with_the_voter_network_off():
    # With no voter network no rate reads the count, so before promotion
    # the count after step k is 1 + Poisson(Lambda_k), Lambda_k being
    # r * dt times the unpromoted rates summed over steps 0 .. k, and
    # P(T_h <= t_k) = P(Poisson(Lambda_k) >= ceil(bar) - 1) exactly.
    config = _config(
        story=StoryConfig(interestingness_r=0.1, submitter_network_S=300),
        policy=FixedThreshold(h=40),
        horizon=2880.0,
        seed=5,
        runs=4000,
    )
    story, params, policy, horizon, options = config
    dt = params.dt
    rates = [
        total_rate((k + 0.5) * dt, 1.0, story, None, params)
        for k in range(step_count(horizon, dt))
    ]
    cumulative = np.cumsum(rates) * story.interestingness_r * dt
    votes_needed = math.ceil(policy.threshold(story)) - 1
    summary = ensemble(*config)

    def within_4_se(empirical, exact):
        se = math.sqrt(exact * (1 - exact) / options.runs)
        return abs(empirical - exact) <= 4 * se

    exact = _poisson_tail(cumulative[-1], votes_needed)
    assert math.isclose(exact, 0.22451, abs_tol=5e-6)
    assert within_4_se(summary.promotion_probability, exact)
    for t in (360, 720, 1440, 2880):
        exact = _poisson_tail(cumulative[round(t / dt) - 1], votes_needed)
        empirical = np.count_nonzero(summary.promotion_times <= t) / options.runs
        assert within_4_se(empirical, exact), t


# The near-threshold story with one input raised at a time, as (r, S, sm_beta).
RISING = {
    "r": [(r, 80, 47.0) for r in (0.07, 0.08, 0.09, 0.10)],
    "S": [(0.09, S, 47.0) for S in (0, 40, 80, 160)],
    "sm_beta": [(0.09, 80, beta) for beta in (0.0, 47.0, 100.0)],
}


def _promotion_times(r, network, beta):
    """Each run's promotion time (inf if it never promoted) in a 500-run
    near-threshold ensemble, and the largest mean any of its steps can draw."""
    config = _config(**{
        **NEAR_THRESHOLD,
        "story": StoryConfig(interestingness_r=r, submitter_network_S=network),
        "params": VoteModelParams(sm_beta=beta),
    }, seed=3, runs=500)
    summary = ensemble(*config)
    kernel = RateKernel(config.story, config.params, summary.times.size - 1)
    voters = _voter_rate(float(summary.final_votes.max()), config.params)
    top = max(kernel.unpromoted.max(), kernel.front.max() + kernel.submitter.max())
    largest_mean = r * config.params.dt * (top + voters)
    return np.nan_to_num(summary.promotion_times, nan=np.inf), largest_mean


def _later_promotions(rising, promotion_times):
    """Runs that promote later after one step up of an input."""
    times = [promotion_times(*inputs)[0] for inputs in rising]
    return sum(int(np.count_nonzero(b > a)) for a, b in zip(times, times[1:]))


def test_no_run_promotes_later_when_an_input_rises():
    # Inversion maps each run's shared uniforms monotonically to its draws,
    # so a run's counts, and hence its promotion, only gain as r, S (under a
    # fixed bar) or sm_beta rises; Generator.poisson past the inversion
    # range would break that coupling.
    promotion_times = functools.cache(_promotion_times)  # the sequences share inputs
    for name, rising in RISING.items():
        assert _later_promotions(rising, promotion_times) == 0, name
        for inputs in rising:
            assert promotion_times(*inputs)[1] <= _INVERSION_MAX_MEAN, inputs


def test_the_coupling_check_catches_draws_not_by_inversion(monkeypatch):
    def by_generator(mean, u):
        # seeded by the step's uniforms: both sides still share their
        # randomness, but not its monotone map to counts
        return np.random.default_rng(zlib.crc32(u.tobytes())).poisson(mean)

    monkeypatch.setattr("frontpage.stochastic_sim._poisson_by_inversion", by_generator)
    assert any(
        _later_promotions(rising, _promotion_times) for rising in RISING.values()
    )


@pytest.mark.parametrize(
    "setting",
    [NEAR_THRESHOLD, HUGE_RATE, dict(horizon=360.0)],
    ids=["near_threshold", "huge_rate", "queue_only"],
)
def test_run_draws_depend_only_on_seed_and_index(setting):
    wide = ensemble(*_config(**setting, seed=31, runs=40))
    narrow = ensemble(*_config(**setting, seed=31, runs=10))
    np.testing.assert_array_equal(narrow.final_votes, wide.final_votes[:10])
    np.testing.assert_array_equal(
        narrow.promotion_times, wide.promotion_times[:10]
    )
    for i in (0, 9, 39):
        votes, th = _run(_config(**setting, seed=31), i)
        assert votes[-1] == wide.final_votes[i]
        assert (th is None and np.isnan(wide.promotion_times[i])) or (
            th == wide.promotion_times[i]
        )


def test_huge_visit_rate_tracks_integrator():
    config = _config(**HUGE_RATE, seed=5, runs=200)
    summary = ensemble(*config)
    for i in (0, 1, 2):
        votes, _ = _run(config, i)
        assert votes.dtype == np.int64
        assert np.all(np.diff(votes) >= 0)
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
        ensemble(*_config(**{**HUGE_RATE, "params": params, "horizon": 1440.0}))


def test_full_interest_tracks_integrator():
    config = _config(
        story=StoryConfig(interestingness_r=1.0, submitter_network_S=0),
        horizon=720.0,
        seed=8,
        runs=400,
    )
    summary = ensemble(*config)
    assert np.all(np.diff(_run(config, 4)[0]) >= 0)
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
        got = kernel(int(k), int(k) + 1, np.array([votes]), np.array([p]))[0, 0]
        promotion_time = None if p == n_steps else (p + 1) * params.dt
        want = total_rate(
            (k + 0.5) * params.dt, float(votes), story, promotion_time, params
        )
        assert got == want


@pytest.mark.parametrize(
    "params", [VoteModelParams(), VoteModelParams(sm_log_base=10.0)],
    ids=["defaults", "log_base_10"],
)
def test_kernel_voter_term_is_voter_rate_for_every_count(params):
    kernel = RateKernel(StoryConfig(0.5, 80), params, 2880)
    m = np.arange(1, 100_001)
    want = [kernel.unpromoted[0] + _voter_rate(float(j), params) for j in m.tolist()]
    got = kernel(0, 1, m, np.full(m.size, 2880))[0]
    assert got.tolist() == want
    assert kernel._voter.size == _VOTER_TABLE_CAP
    # counts reached a slice at a time grow the table by doubling
    growing = RateKernel(StoryConfig(0.5, 80), params, 2880)
    for part in np.array_split(m, 997):
        got = growing(0, 1, part, np.full(part.size, 2880))[0]
        assert got.tolist() == want[part[0] - 1 : part[-1]]
        assert growing._voter.size <= _VOTER_TABLE_CAP


def test_counts_past_the_cap_never_grow_the_voter_table():
    params = VoteModelParams()
    kernel = RateKernel(StoryConfig(0.5, 80), params, 2880)
    m = np.array([_VOTER_TABLE_CAP, 2_140_000_000, _VOTER_TABLE_CAP + 1])
    got = kernel(0, 1, m, np.full(m.size, 2880))[0]
    assert got.tolist() == [
        kernel.unpromoted[0] + _voter_rate(float(j), params) for j in m.tolist()
    ]
    assert kernel._voter.size == 1
    # a promoted run is looked up as one vote: its rows are the front page's
    got = kernel(5, 6, np.array([3, 40_000]), np.array([2880, 2]))[0]
    assert got.tolist() == [
        kernel.unpromoted[5] + _voter_rate(3.0, params),
        kernel.front[2] + kernel.submitter[5],
    ]
    assert kernel._voter.size == 4


def test_counts_past_the_cap_equal_the_reference():
    # unpromoted runs whose counts pass 2e9 inside the friends window
    config = _config(
        story=StoryConfig(interestingness_r=1.0, submitter_network_S=80),
        params=VoteModelParams(visit_rate_N=1e9), policy=FixedThreshold(h=10**12),
        horizon=10.0, runs=2, seed=0,
    )
    _assert_matches_reference(config)
    summary = ensemble(*config)
    assert summary.promotion_probability == 0.0
    assert summary.final_votes.min() > 2e9



def test_rate_kernel_block_rows_equal_single_steps():
    params = VoteModelParams(friends_window=2000.0)
    n_steps = 2880
    kernel = RateKernel(StoryConfig(0.5, 80), params, n_steps)
    rng = np.random.default_rng(78)
    m = rng.integers(1, 5000, 50)
    promo = np.where(rng.random(50) < 0.5, n_steps, rng.integers(0, n_steps, 50))
    for k0, k1 in [(0, 128), (1990, 2030), (2700, 2880), (5, 6)]:
        block = kernel(k0, k1, m, promo)
        assert block.shape == (k1 - k0, m.size)
        for i, k in enumerate(range(k0, k1)):
            assert np.array_equal(block[i], kernel(k, k + 1, m, promo)[0])

def _reference_lockstep(config, runs):
    """The per-step lockstep the segment-stepped one replaced.

    Yields the vote counts and promotion steps of the runs after every
    step, drawing each step on its own; kept as the bit-for-bit reference
    of the segments.
    """
    story, params = config.story, config.params
    n_steps = step_count(config.horizon, params.dt)
    kernel = RateKernel(story, params, n_steps)
    threshold = config.policy.threshold(story)
    scale = story.interestingness_r * params.dt

    def rng(*key):
        return np.random.default_rng(
            np.random.SeedSequence(entropy=config.options.seed, spawn_key=key)
        )

    streams = [rng(i) for i in runs]
    large_streams = {}
    uniforms = np.empty((len(runs), min(n_steps, _UNIFORM_BLOCK)))
    m = np.ones(len(runs), dtype=np.int64)
    promo_step = np.full(len(runs), n_steps, dtype=np.int64)
    for k in range(n_steps):
        col = k % uniforms.shape[1]
        if col == 0:
            width = min(uniforms.shape[1], n_steps - k)
            for stream, row in zip(streams, uniforms):
                stream.random(out=row[:width])
        rate = np.full(m.shape, kernel.unpromoted[k])
        if k < kernel.voter_steps:
            rate += [_voter_rate(float(x), params) for x in m.tolist()]
        age = k - 1 - promo_step
        promoted = age >= 0
        if promoted.any():
            rate[promoted] = kernel.front[age[promoted]] + kernel.submitter[k]
        mean = scale * rate
        large = mean > _INVERSION_MAX_MEAN
        small = ~large
        m[small] += _poisson_by_inversion(mean[small], uniforms[small, col])
        for j in np.flatnonzero(large):
            if j not in large_streams:
                large_streams[j] = rng(runs[j], 0)
            m[j] = int(m[j]) + int(large_streams[j].poisson(mean[j]))
        promo_step[(promo_step == n_steps) & (m >= threshold)] = k
        yield m, promo_step


def _reference_summary(config):
    """Every ``EnsembleSummary`` field of a Poisson-mode ensemble, with the
    mean and spread taken across runs one step at a time."""
    runs, dt = config.options.runs, config.params.dt
    n_steps = step_count(config.horizon, dt)
    times = np.arange(n_steps + 1, dtype=float) * dt
    mean = np.empty(n_steps + 1)
    std = np.zeros(n_steps + 1)
    mean[0] = 1.0
    for k, (m, promo_step) in enumerate(_reference_lockstep(config, range(runs)), 1):
        mean[k] = m.mean()
        if runs > 1:
            std[k] = m.std(ddof=1)
    promo = np.full(runs, np.nan)
    hit = promo_step < n_steps
    promo[hit] = times[promo_step[hit] + 1]
    promoted = promo[hit]
    return dict(
        times=times,
        mean_votes=mean,
        std_votes=std,
        final_votes=m.astype(float),
        promotion_times=promo,
        promotion_probability=promoted.size / runs,
        promotion_time_quantiles=(
            {q: float(np.quantile(promoted, q)) for q in PROMOTION_QUANTILES}
            if promoted.size
            else {}
        ),
        n_runs=runs,
        promo_step=promo_step,
    )


def _assert_matches_reference(config):
    want = _reference_summary(config)
    got = ensemble(*config)
    for field in dataclasses.fields(EnsembleSummary):
        a, b = getattr(got, field.name), want[field.name]
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, field.name
    last = config.options.runs - 1
    votes, th = _run(config, last)
    ref = [1] + [int(m[0]) for m, _ in _reference_lockstep(config, [last])]
    assert votes.tolist() == ref
    want_th = want["promotion_times"][last]
    assert (th is None and np.isnan(want_th)) or th == want_th
    return want["promo_step"]


def _segment_edges(config):
    """First and last steps of the segments a run of ``config`` can have."""
    n_steps = step_count(config.horizon, config.params.dt)
    chunk = min(n_steps, _UNIFORM_BLOCK)
    widest = max(1, min(chunk, _SEGMENT_RUN_STEPS // config.options.runs))
    steps = np.arange(n_steps)
    row = (steps % chunk) % widest
    first = row == 0
    last = (row == widest - 1) | (steps % chunk == chunk - 1) | (steps == n_steps - 1)
    return first, last


NO_VOTERS = VoteModelParams(sm_alpha=0.0, sm_beta=0.0)

# The three ensembles of the benchmark: configs/ensemble_discrete_voters.ini,
# the near-threshold four-channel story and the queue-only story.
SEGMENT_CASES = {
    "committed": dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
        params=NO_VOTERS, policy=FixedThreshold(h=40), horizon=1440.0, runs=500,
    ),
    "near_threshold": dict(**{**NEAR_THRESHOLD, "story": StoryConfig(
        interestingness_r=0.0917, submitter_network_S=80)}, runs=100),
    "queue_only": dict(
        story=StoryConfig(interestingness_r=0.6, submitter_network_S=0),
        params=NO_VOTERS, policy=FixedThreshold(h=1000000), horizon=1440.0,
        runs=100,
    ),
    # voter channel on; every run promotes early, so the later segments are wide
    "voters_early_promotion": dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
        params=VoteModelParams(), policy=FixedThreshold(h=10), horizon=1440.0,
        runs=60,
    ),
    # 1554 steps: the last chunk of uniforms is 18 steps wide
    "dt_0.5": dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
        params=VoteModelParams(dt=0.5), policy=FixedThreshold(h=40),
        horizon=777.0, runs=2,
    ),
    "one_run": dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
        params=NO_VOTERS, policy=FixedThreshold(h=40), horizon=1440.0, runs=1,
    ),
    # 300 runs: segments of 54 steps, capped inside each chunk of 128
    "capped": dict(
        story=StoryConfig(interestingness_r=0.3, submitter_network_S=300),
        params=NO_VOTERS, policy=FixedThreshold(h=40), horizon=600.0, runs=300,
    ),
    # the large-mean fallback: means past the inversion range everywhere
    "huge_rate": dict(**HUGE_RATE, runs=20),
    # past the inversion range only once promoted, so a redraw falls back
    "large_after_promotion": dict(
        story=StoryConfig(interestingness_r=0.5, submitter_network_S=80),
        params=VoteModelParams(sm_alpha=0.0, sm_beta=0.0, visit_rate_N=100.0),
        policy=FixedThreshold(h=40), horizon=300.0, runs=40,
    ),
}


@pytest.mark.parametrize("name", list(SEGMENT_CASES))
def test_segments_equal_the_per_step_reference(name):
    _assert_matches_reference(_config(**SEGMENT_CASES[name], seed=1))


def _edge_config(r, network, h, runs, seed):
    return _config(
        story=StoryConfig(interestingness_r=r, submitter_network_S=network),
        params=NO_VOTERS, policy=FixedThreshold(h=h), horizon=400.0,
        runs=runs, seed=seed,
    )


@pytest.mark.parametrize(
    "config, edge",
    [
        # one run: segments are the 128-step chunks of uniforms
        (_edge_config(1.0, 0, 2, runs=1, seed=1), "first"),  # promotes at step 0
        (_edge_config(0.5, 300, 30, runs=1, seed=12), "first"),  # at step 128
        (_edge_config(0.5, 300, 40, runs=1, seed=44), "last"),  # at step 127
        # 200 runs: segments of 81 and 47 steps in each chunk
        (_edge_config(0.2, 300, 20, runs=200, seed=3), "first"),
        (_edge_config(0.2, 300, 20, runs=200, seed=3), "last"),
    ],
)
def test_promotion_on_the_edges_of_a_segment(config, edge):
    # A crossing on a segment's first step redraws all of its later steps;
    # one on its last step redraws none.
    promo_step = _assert_matches_reference(config)
    first, last = _segment_edges(config)
    hit = promo_step[promo_step < first.size]
    assert (first if edge == "first" else last)[hit].any()


@settings(max_examples=40, deadline=None)
@given(
    runs=st.integers(1, 40),
    n_steps=st.integers(1, 300),
    dt=st.sampled_from([1.0, 0.5]),
    r=st.floats(0.0, 1.0),
    network=st.integers(0, 400),
    h=st.integers(2, 60),
    voters=st.booleans(),
    visit_rate=st.sampled_from([10.0, 100.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_segments_equal_the_reference_on_random_configs(
    runs, n_steps, dt, r, network, h, voters, visit_rate, seed
):
    params = VoteModelParams(dt=dt, visit_rate_N=visit_rate,
                             **({} if voters else {"sm_alpha": 0.0, "sm_beta": 0.0}))
    _assert_matches_reference(_config(
        story=StoryConfig(interestingness_r=r, submitter_network_S=network),
        params=params, policy=FixedThreshold(h=h), horizon=n_steps * dt,
        runs=runs, seed=seed,
    ))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(0.0, 1e6) | st.sampled_from([1.0, 2.0, 0.1, 0.3, 1e-300]),
        min_size=1,
        max_size=40,
    ),
    st.floats(0.0, 1.0),
)
def test_quantile_equals_np_quantile(values, q):
    values = np.array(values)
    ordered = np.sort(values).tolist()
    for p in (*PROMOTION_QUANTILES, q, 0.0, 1.0):
        got, want = _quantile(ordered, p), float(np.quantile(values, p))
        assert got == want and math.copysign(1, got) == math.copysign(1, want)


@pytest.mark.parametrize(
    "values",
    [[42.0], [3.0, 3.0, 3.0], [1.0, 2.0, 2.0, 2.0, 9.0], [0.3, 0.1, 0.7, 0.1]],
    ids=["one", "all_tied", "ties", "unsorted"],
)
def test_quantile_equals_np_quantile_on_small_samples(values):
    ordered = sorted(values)
    for q in PROMOTION_QUANTILES:
        assert _quantile(ordered, q) == float(np.quantile(values, q))
