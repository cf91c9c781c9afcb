"""End-to-end acceptance checks for the toolkit.

Each test prints one ``criterion N: PASS/FAIL`` line (visible under
``pytest tests/test_acceptance.py -v -s``) and then asserts it, so the
suite both reports and enforces the contract.
"""

import filecmp
import json
import math
from fractions import Fraction

import numpy as np

from frontpage import (
    EnsembleOptions,
    FixedThreshold,
    NetworkProportional,
    RankModelParams,
    RunOptions,
    StoryConfig,
    UserState,
    VoteModelParams,
)
from frontpage.cli import main
from frontpage.fitting import binomial_pmf, fit_linear, fit_log, success_rate_series
from frontpage.rank_dynamics import integrate_rank
from frontpage.stochastic_sim import ensemble
from frontpage.vote_dynamics import analytic_upcoming_saturation, integrate_votes

DEFAULTS = VoteModelParams()
# The queue-saturation scenarios switch the friends channels off: votes
# then come only from the upcoming queue (S = 0) or the submitter's own
# network, which is the modality the promotion-pattern scenarios assume.
FRIENDS_OFF = VoteModelParams(sm_alpha=0.0, sm_beta=0.0)
NEVER = FixedThreshold(h=100_000)


def _report(number: int, description: str, ok: bool) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def test_criterion_1_analytic_saturation():
    at_one = analytic_upcoming_saturation(1.0, DEFAULTS)
    ok = 42.0 <= at_one <= 43.0
    for r in (0.0, 0.2, 0.5, 0.8, 1.0):
        value = analytic_upcoming_saturation(r, DEFAULTS)
        ok = ok and abs(value - (42.0 * r + 1.0)) <= 0.5
    assert _report(1, "closed-form queue saturation is ~42r + 1", ok)


def test_criterion_2_integrator_matches_closed_form():
    ok = True
    for r in (0.1, 0.5, 0.9):
        story = StoryConfig(interestingness_r=r, submitter_network_S=0)
        traj = integrate_votes(story, FRIENDS_OFF, NEVER, 2880.0)
        closed = analytic_upcoming_saturation(r, FRIENDS_OFF)
        ok = ok and abs(traj.final_votes - closed) / closed <= 0.02
    assert _report(2, "queue-only integration within 2% of the closed form", ok)


def test_criterion_3_promotion_pattern():
    # The submitter's-network scenarios: stories spread through the queue
    # and the submitter's reverse friends only (voter-network channel off,
    # as the S=0 saturation bound of criterion 1 requires).
    policy = FixedThreshold(h=40)

    def run(r, network):
        story = StoryConfig(interestingness_r=r, submitter_network_S=network)
        return integrate_votes(story, FRIENDS_OFF, policy, 2880.0)

    unknown = [run(r, 0).promotion_time_Th for r in (0.1, 0.5, 0.9)]
    modest_low = run(0.1, 80).promotion_time_Th
    modest_mid = run(0.5, 80).promotion_time_Th
    modest_high = run(0.9, 80).promotion_time_Th
    big_low = run(0.1, 400).promotion_time_Th

    ok = all(t is None for t in unknown)
    ok = ok and modest_low is None
    ok = ok and modest_mid is not None and modest_high is not None
    ok = ok and modest_high < modest_mid
    ok = ok and big_low is not None
    assert _report(
        3, "promotion pattern across (r, S) grid incl. T_h ordering", ok
    )


def test_criterion_4_proportional_threshold_blocks_low_interest():
    story = StoryConfig(interestingness_r=0.15, submitter_network_S=160)
    traj = integrate_votes(story, DEFAULTS, NetworkProportional(1.5), 7 * 1440.0)
    ok = traj.promotion_time_Th is None
    assert _report(4, "1.5S threshold keeps r=0.15, S=160 off the front page", ok)


def test_criterion_5_rank_regimes():
    params = RankModelParams()
    idle = UserState(front_page_F=50.0, network_S=100.0, submission_rate_M=0.0)
    idle_traj = integrate_rank(idle, params, RunOptions(weeks=30))
    ok = bool(np.all(idle_traj.front_page_F == 50.0))
    step = params.a * 50.0 * params.dt_weeks
    ok = ok and bool(
        np.allclose(np.diff(idle_traj.network_S), step, rtol=1e-12, atol=0.0)
    )

    active = UserState(front_page_F=5.0, network_S=100.0, submission_rate_M=10.0)
    active_traj = integrate_rank(active, params, RunOptions(weeks=30))
    ok = ok and bool(np.all(np.diff(active_traj.front_page_F) > 0))
    ok = ok and bool(np.all(np.diff(active_traj.network_S) > 0))
    weekly_gain = np.diff(active_traj.network_S)
    ok = ok and bool(np.all(np.diff(weekly_gain) >= 0))
    assert _report(5, "rank model: stagnant vs. compounding active regimes", ok)


def test_criterion_6_binomial_oracles():
    ok = True
    # brute-force enumeration of all 2^n outcomes, n <= 12
    for n in range(13):
        counts = [0] * (n + 1)
        for mask in range(1 << n):
            counts[bin(mask).count("1")] += 1
        for p in (0.013659, 0.5, 0.85):
            for k in range(n + 1):
                expected = counts[k] * p**k * (1.0 - p) ** (n - k)
                got = binomial_pmf(k, n, p)
                if expected > 0:
                    ok = ok and abs(got - expected) / expected <= 1e-10

    # exact rational arithmetic at the friend-vote scale: n=215, p=K/15742
    n, pool = 215, 15742
    for group in (50, 215, 1000, 5000, 12000, 15742):
        p_frac = Fraction(group, pool)
        for k in (0, 1, 3, 10, 40, 120):
            exact = float(
                math.comb(n, k) * p_frac**k * (1 - p_frac) ** (n - k)
            )
            got = binomial_pmf(k, n, group / pool)
            if exact > 0:
                ok = ok and abs(got - exact) / exact <= 1e-10
            else:
                ok = ok and got == 0.0

    # normalization for every n up to 50
    for n in range(1, 51):
        for p in (0.005, 0.3, 0.77):
            total = math.fsum(binomial_pmf(k, n, p) for k in range(n + 1))
            ok = ok and abs(total - 1.0) <= 1e-12
    assert _report(6, "binomial pmf vs. enumeration, exact rationals, and sum=1", ok)


def test_criterion_7_monte_carlo_consistency():
    summary = ensemble(
        StoryConfig(interestingness_r=0.5, submitter_network_S=0),
        FRIENDS_OFF,
        NEVER,
        1440.0,
        EnsembleOptions(seed=20260823, runs=2000),
    )
    closed = analytic_upcoming_saturation(0.5, FRIENDS_OFF)
    se = summary.final_votes.std(ddof=1) / math.sqrt(summary.n_runs)
    ok = abs(float(summary.final_votes.mean()) - closed) <= 3 * se
    assert _report(
        7, "2000-run ensemble mean within 3 SE of the closed form", ok
    )


def test_criterion_8_fit_recovery():
    # noise-free: coefficients and RSS exactly recovered (binary-exact data)
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    exact = fit_linear(np.column_stack([x, 0.5 * x + 2.0]))
    ok = exact.slope == 0.5 and exact.intercept == 2.0 and exact.rss == 0.0
    m = np.array([1.0, 4.0, 20.0, 150.0, 900.0])
    log_fit = fit_log(np.column_stack([m, 112.0 * np.log(m) + 47.0]))
    ok = ok and abs(log_fit.alpha - 112.0) < 1e-9 and log_fit.rss < 1e-18

    # unbiasedness: mean of 1000 noisy slope estimates within 2 SE of truth
    rng = np.random.default_rng(424242)
    grid = np.linspace(0.0, 100.0, 50)
    slopes = np.empty(1000)
    for i in range(1000):
        noisy = 0.06 * grid + 1.0 + rng.normal(0.0, 0.5, grid.size)
        slopes[i] = fit_linear(np.column_stack([grid, noisy])).slope
    se = slopes.std(ddof=1) / math.sqrt(slopes.size)
    ok = ok and abs(slopes.mean() - 0.06) <= 2 * se

    # binned success-rate pipeline recovers a planted 0.002 slope
    rng = np.random.default_rng(31337)
    users = []
    for _ in range(500):
        network = int(rng.integers(0, 401))
        submissions = int(rng.integers(50, 200))
        rate = min(1.0, max(0.0, 0.002 * network + rng.normal(0.0, 0.01)))
        users.append((submissions, int(rng.binomial(submissions, rate)), network))
    series = success_rate_series(*zip(*users))
    planted = fit_linear(series.points)
    ok = ok and abs(planted.slope - 0.002) / 0.002 <= 0.20
    assert _report(8, "linear/log/success-rate fits recover planted truth", ok)


def test_criterion_9_determinism(tmp_path):
    story = StoryConfig(interestingness_r=0.7, submitter_network_S=80)
    a = integrate_votes(story, DEFAULTS, FixedThreshold(h=40), 1440.0)
    b = integrate_votes(story, DEFAULTS, FixedThreshold(h=40), 1440.0)
    ok = np.array_equal(a.votes_m, b.votes_m)

    config = story, DEFAULTS, FixedThreshold(h=40), 360.0
    options = EnsembleOptions(seed=5, runs=40)
    ok = ok and np.array_equal(
        ensemble(*config, options).mean_votes, ensemble(*config, options).mean_votes
    )

    ini = tmp_path / "scenario.ini"
    ini.write_text(
        "[vote]\nsm_alpha = 0.0\nsm_beta = 0.0\n"
        "[story]\ninterestingness_r = 0.5\nsubmitter_network_S = 80\n"
        "[policy]\nh = 40\n"
        "[ensemble]\nruns = 30\nseed = 12\n"
        "[run]\nhorizon_minutes = 360\n",
        encoding="utf-8",
    )
    for command in (
        ["simulate", "votes", "--config", str(ini),
         "--sweep", "story.interestingness_r=0.2,0.8"],
        ["ensemble", "--config", str(ini)],
    ):
        out_a = tmp_path / f"{command[0]}_a"
        out_b = tmp_path / f"{command[0]}_b"
        ok = ok and main(command + ["--out", str(out_a)]) == 0
        ok = ok and main(command + ["--out", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        ok = ok and names_a == names_b
        match, mismatch, errors = filecmp.cmpfiles(
            out_a, out_b, names_a, shallow=False
        )
        ok = ok and not mismatch and not errors
        # the summary embeds the resolved parameters for provenance
        summary = json.loads((out_a / "summary.json").read_text())
        ok = ok and summary["results"][0]["params"]["vote"]["c"] == 0.3
    assert _report(9, "simulations, ensembles, and CLI runs byte-reproducible", ok)
