import warnings
from pathlib import Path

import numpy as np
import pytest

from frontpage import RankModelParams, RunOptions, UserState
from frontpage.cli import load_config
from frontpage.rank_dynamics import _step, integrate_rank, rank_proxies

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_step_direct_evaluation():
    # dF = 0.002 * 100 * 10 = 2; dS = 0.03 * 50 + 1.0 * 2 = 3.5
    F, S = _step(50.0, 100.0, 10.0, RankModelParams())
    assert F == pytest.approx(52.0)
    assert S == pytest.approx(103.5)


def test_step_stagnant_user():
    F, S = _step(50.0, 100.0, 0.0, RankModelParams())
    assert F == 50.0  # no submissions, no promotions
    assert S == pytest.approx(101.5)  # standing growth only


def test_step_frozen_dynamics():
    params = RankModelParams(a=0.0, b=0.0, c_success=0.0)
    assert _step(3.0, 7.0, 4.0, params) == (3.0, 7.0)


@pytest.mark.parametrize("S, rate", [(0.0, 0.0), (100.0, 0.2), (1000.0, 2.0)])
def test_success_law_linear_unclipped(S, rate):
    """With one submission a week and no network growth, F gains the
    success rate ``c_success * S``, past 1 when S is large."""
    F, _ = _step(0.0, S, 1.0, RankModelParams(a=0.0, b=0.0))
    assert F == pytest.approx(rate)


@pytest.mark.parametrize("kappa", [1.0, 1000.0, 3, 0.7])
def test_rank_proxies_is_the_proxy_of_each_F_as_Python_divides(kappa):
    F = np.array([0.0, 1e-300, 0.1, 1.0, 3.0, 7.25, 1e300, 0.0, 2.0 ** 60])
    proxies = rank_proxies(F, kappa)
    assert proxies.dtype == np.float64
    for f, proxy in zip(F.tolist(), proxies.tolist()):
        if f == 0.0:
            assert np.isnan(proxy)
        else:
            assert proxy == kappa / f
    with pytest.raises(ValueError, match="kappa must be > 0, got -1"):
        rank_proxies(F, -1)


@pytest.mark.parametrize("over", ["ignore", "warn", "raise"])
def test_an_overflowing_proxy_names_kappa_and_the_smallest_F(over):
    F = np.array([0.0, 3e-320, 1e-320, 5.0])
    with np.errstate(over=over):
        with pytest.raises(OverflowError) as info:
            rank_proxies(F, kappa=1e300)
    assert str(info.value) == (
        "rank_proxy column: kappa (1e+300) / front_page_F (1e-320) "
        "overflows floating point"
    )


@pytest.mark.parametrize("over", ["ignore", "warn", "raise"])
def test_an_overflowing_week_column_names_weeks_and_dt_weeks(over):
    state = UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=0.0)
    with np.errstate(over=over):
        with pytest.raises(OverflowError) as info:
            integrate_rank(state, RankModelParams(dt_weeks=1e308), RunOptions(weeks=2))
    assert str(info.value) == (
        "week column: weeks (2) * dt_weeks (1e+308) overflows floating point"
    )


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


# (initial state, params, run, message): each overflows first in the named week
_OVERFLOWS = {
    # week 2 overflows both; then M = 0 makes week 3's dF = 0 * inf = nan
    "nan_after_inf": (
        UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=2.0),
        RankModelParams(a=0.03, b=1.0, c_success=0.002),
        RunOptions(weeks=3, M_schedule=[1e308, 1e308, 0.0]),
        "week 2: front_page_F is inf and network_S is inf",
    ),
    # no promotions: S alone reaches 1e308, then 2e308
    "S_alone": (
        UserState(front_page_F=1.0, network_S=0.0, submission_rate_M=2.0),
        RankModelParams(a=1e308, c_success=0.0),
        RunOptions(weeks=3),
        "week 2: front_page_F is 1.0 and network_S is inf",
    ),
    "last_week": (
        UserState(front_page_F=5.0, network_S=1e6, submission_rate_M=1.0),
        RankModelParams(),
        RunOptions(weeks=3, M_schedule=[1.0, 1.0, 1e308]),
        "week 3: front_page_F is inf and network_S is inf",
    ),
}


@pytest.mark.parametrize(
    "state, params, run, message", _OVERFLOWS.values(), ids=list(_OVERFLOWS)
)
def test_overflow_names_the_first_week_that_is_not_finite(state, params, run, message):
    with pytest.raises(OverflowError) as info:
        integrate_rank(state, params, run)
    assert str(info.value) == message + ": the rank model overflows floating point"


@pytest.mark.parametrize("over", ["warn", "raise"])
def test_array_schedule_overflows_as_the_documented_error(over):
    """An ndarray schedule steps on Python floats, so its overflow is the
    OverflowError naming the week, whether numpy would warn (here made an
    error) or raise FloatingPointError."""
    state = UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=2.0)
    run = RunOptions(weeks=2, M_schedule=np.array([1e308, 1e308]))
    with warnings.catch_warnings(), np.errstate(over=over):
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^week 2: front_page_F is inf "):
            integrate_rank(state, RankModelParams(), run)


def test_array_and_tuple_schedules_give_equal_arrays():
    state = UserState(front_page_F=3.0, network_S=40.0, submission_rate_M=1.0)
    params = RankModelParams(dt_weeks=0.5)
    rates = np.random.default_rng(7).uniform(0.0, 20.0, 60)
    as_array = integrate_rank(state, params, RunOptions(weeks=60, M_schedule=rates))
    as_tuple = integrate_rank(
        state, params, RunOptions(weeks=60, M_schedule=tuple(rates.tolist()))
    )
    assert np.array_equal(as_array.front_page_F, as_tuple.front_page_F)
    assert np.array_equal(as_array.network_S, as_tuple.network_S)


def _weekly_matrix(params: RankModelParams, M: float) -> np.ndarray:
    """The rank model's update at constant M: x_{k+1} = A x_k, x = (F, S)."""
    a, b, c, dt = params.a, params.b, params.c_success, params.dt_weeks
    return np.array([[1.0, c * M * dt], [a * dt, 1.0 + b * c * M * dt]])


def _assert_matches_matrix_powers(traj, x0, stretches):
    """Week k of ``traj`` is the product of ``A**n`` over the constant-M
    ``stretches`` ``(A, n)`` it has covered, applied to ``x0``."""
    k, start = 0, np.asarray(x0, dtype=float)
    assert np.array_equal([traj.front_page_F[0], traj.network_S[0]], start)
    for A, n in stretches:
        for j in range(1, n + 1):
            expected = np.linalg.matrix_power(A, j) @ start
            actual = [traj.front_page_F[k + j], traj.network_S[k + j]]
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)
        k, start = k + n, np.linalg.matrix_power(A, n) @ start
    assert k == traj.weeks.size - 1


def test_committed_config_matches_matrix_power():
    records = load_config(CONFIGS / "rank_active_user.ini")[1]
    user, params, run = records["user"], records["rank"], records["run"]
    traj = integrate_rank(user, params, run)
    A = _weekly_matrix(params, user.submission_rate_M)
    _assert_matches_matrix_powers(
        traj, (user.front_page_F, user.network_S), [(A, run.weeks)]
    )


def test_fractional_step_matches_matrix_power():
    user = UserState(front_page_F=3.0, network_S=120.0, submission_rate_M=4.0)
    params = RankModelParams(a=0.05, b=2.0, c_success=0.001, dt_weeks=0.5)
    traj = integrate_rank(user, params, RunOptions(weeks=200))
    A = _weekly_matrix(params, user.submission_rate_M)
    _assert_matches_matrix_powers(traj, (3.0, 120.0), [(A, 200)])


def test_two_stretch_schedule_matches_piecewise_product():
    user = UserState(front_page_F=5.0, network_S=50.0, submission_rate_M=0.0)
    params = RankModelParams(dt_weeks=2.0)
    run = RunOptions(weeks=70, M_schedule=[6.0] * 30 + [0.5] * 40)
    traj = integrate_rank(user, params, run)
    stretches = [(_weekly_matrix(params, 6.0), 30), (_weekly_matrix(params, 0.5), 40)]
    _assert_matches_matrix_powers(traj, (5.0, 50.0), stretches)


def test_integrate_rank_is_step_repeated():
    """Week k of ``integrate_rank`` is ``_step`` applied k times, to the
    last bit."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        params = RankModelParams(
            a=float(rng.uniform(0.0, 0.1)),
            b=float(rng.uniform(0.0, 3.0)),
            c_success=float(rng.uniform(0.0, 0.01)),
            dt_weeks=float(rng.choice([0.1, 0.5, 1.0, 2.0])),
        )
        state = UserState(
            front_page_F=float(rng.uniform(0.0, 100.0)),
            network_S=float(rng.uniform(0.0, 1000.0)),
            submission_rate_M=float(rng.uniform(0.0, 20.0)),
        )
        weeks = int(rng.integers(1, 120))
        schedule = None
        if rng.integers(2):  # an ndarray or a tuple of per-week rates
            schedule = rng.uniform(0.0, 20.0, weeks)
            if rng.integers(2):
                schedule = tuple(schedule.tolist())
        traj = integrate_rank(state, params, RunOptions(weeks=weeks, M_schedule=schedule))
        rates = [state.submission_rate_M] * weeks if schedule is None else schedule
        F, S = state.front_page_F, state.network_S
        for k, rate in enumerate(rates, 1):
            F, S = _step(F, S, float(rate), params)
            assert traj.front_page_F[k] == F
            assert traj.network_S[k] == S
