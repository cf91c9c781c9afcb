import numpy as np
import pytest

from frontpage import RankModelParams, RunOptions, UserState
from frontpage.rank_dynamics import (
    integrate_rank,
    rank_proxy,
    step_week,
    success_rate,
)


def test_step_week_direct_evaluation():
    # dF = 0.002 * 100 * 10 = 2; dS = 0.03 * 50 + 1.0 * 2 = 3.5
    state = UserState(front_page_F=50.0, network_S=100.0, submission_rate_M=10.0)
    after = step_week(state, RankModelParams())
    assert after.front_page_F == pytest.approx(52.0)
    assert after.network_S == pytest.approx(103.5)
    assert after.submission_rate_M == 10.0


def test_step_week_stagnant_user():
    state = UserState(front_page_F=50.0, network_S=100.0, submission_rate_M=0.0)
    after = step_week(state, RankModelParams())
    assert after.front_page_F == 50.0  # no submissions, no promotions
    assert after.network_S == pytest.approx(101.5)  # standing growth only


def test_step_week_frozen_dynamics():
    state = UserState(front_page_F=3.0, network_S=7.0, submission_rate_M=4.0)
    params = RankModelParams(a=0.0, b=0.0, c_success=0.0)
    assert step_week(state, params) == state


def test_success_rate_linear_unclipped():
    params = RankModelParams()
    assert success_rate(0.0, params) == 0.0
    assert success_rate(100.0, params) == pytest.approx(0.2)
    assert success_rate(1000.0, params) == pytest.approx(2.0)


def test_rank_proxy():
    assert rank_proxy(50.0, kappa=1000.0) == pytest.approx(20.0)
    assert rank_proxy(100.0) == pytest.approx(rank_proxy(50.0) / 2)
    assert rank_proxy(0.0) is None
    with pytest.raises(ValueError):
        rank_proxy(-1.0)
    with pytest.raises(ValueError):
        rank_proxy(10.0, kappa=0.0)


def test_stagnation_is_exact_arithmetic_progression():
    state = UserState(front_page_F=50.0, network_S=100.0, submission_rate_M=0.0)
    traj = integrate_rank(state, RankModelParams(), RunOptions(weeks=25))
    assert np.all(traj.front_page_F == 50.0)
    steps = np.diff(traj.network_S)
    np.testing.assert_allclose(steps, 0.03 * 50.0, rtol=1e-12)


def test_zero_schedule_decouples_growth():
    state = UserState(front_page_F=10.0, network_S=20.0, submission_rate_M=8.0)
    run = RunOptions(weeks=10, M_schedule=[0.0] * 10)
    traj = integrate_rank(state, RankModelParams(), run)
    np.testing.assert_allclose(
        traj.network_S, 20.0 + 0.03 * 10.0 * traj.weeks, rtol=1e-12
    )


def test_single_week_trajectory_length():
    state = UserState(front_page_F=1.0, network_S=1.0, submission_rate_M=1.0)
    traj = integrate_rank(state, RankModelParams(), RunOptions(weeks=1))
    assert traj.weeks.shape == (2,)


def test_schedule_length_mismatch():
    with pytest.raises(ValueError, match="entries"):
        RunOptions(weeks=5, M_schedule=[1.0, 2.0])


def test_varying_schedule_applies_per_week():
    state = UserState(front_page_F=0.0, network_S=500.0, submission_rate_M=0.0)
    params = RankModelParams(a=0.0, b=0.0)  # isolate the submission term
    run = RunOptions(weeks=3, M_schedule=[0.0, 10.0, 0.0])
    traj = integrate_rank(state, params, run)
    diffs = np.diff(traj.front_page_F)
    np.testing.assert_allclose(diffs, [0.0, 0.002 * 500.0 * 10.0, 0.0], atol=1e-12)
    # an array schedule runs as the same list
    run = RunOptions(weeks=3, M_schedule=np.array([0.0, 10.0, 0.0]))
    assert np.array_equal(integrate_rank(state, params, run).front_page_F,
                          traj.front_page_F)


def test_active_user_compounds():
    """With submissions flowing, growth accelerates week over week."""
    state = UserState(front_page_F=5.0, network_S=100.0, submission_rate_M=10.0)
    traj = integrate_rank(state, RankModelParams(), RunOptions(weeks=25))
    assert np.all(np.diff(traj.front_page_F) > 0)
    assert np.all(np.diff(traj.network_S) > 0)
    weekly_gain = np.diff(traj.network_S)
    assert np.all(np.diff(weekly_gain) >= 0)  # feedback loop compounds


@pytest.mark.parametrize("bump", ["network_S", "submission_rate_M", "c_success"])
def test_monotone_coupling(bump):
    """Raising S0, M, or the success slope never lowers F at any week."""
    base_state = UserState(front_page_F=2.0, network_S=50.0, submission_rate_M=5.0)
    base_params = RankModelParams()
    run = RunOptions(weeks=20)
    if bump == "c_success":
        bumped = integrate_rank(base_state, RankModelParams(c_success=0.004), run)
    elif bump == "network_S":
        bumped = integrate_rank(UserState(2.0, 100.0, 5.0), base_params, run)
    else:
        bumped = integrate_rank(UserState(2.0, 50.0, 10.0), base_params, run)
    base = integrate_rank(base_state, base_params, run)
    assert np.all(bumped.front_page_F >= base.front_page_F)


def test_weeks_must_be_positive_int():
    bound = r"^weeks must be an integer in \[1, 1000000\], got "
    for weeks in (0, 2.5, 2_000_000):
        with pytest.raises(ValueError, match=bound + f"{weeks}$"):
            RunOptions(weeks=weeks)


def test_integral_float_weeks_run_as_an_int():
    state = UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=2.0)
    traj = integrate_rank(state, RankModelParams(), RunOptions(weeks=3.0))
    expected = integrate_rank(state, RankModelParams(), RunOptions(weeks=3))
    assert traj.weeks.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.array_equal(traj.network_S, expected.network_S)


def test_overflow_names_the_week():
    state = UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=2.0)
    params = RankModelParams(a=0.03, b=1.0, c_success=0.002)
    # week 1 reaches F = S = 1e307; week 2 overflows both
    with pytest.raises(OverflowError, match=r"^week 2: front_page_F is inf "):
        integrate_rank(state, params, RunOptions(weeks=2, M_schedule=[1e308, 1e308]))
