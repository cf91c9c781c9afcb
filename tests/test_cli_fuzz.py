"""Property tests: random configs and CSVs only ever end in a documented exit code.

Every ``[vote]``, ``[story]``, ``[policy]``, ``[run]``, ``[ensemble]``,
``[rank]`` and ``[user]`` key is either left out, given a plausible value,
or given an arbitrary float (NaN, infinities, subnormals and values near
the double limits included) or integer; ``compare`` runs each such story against a small
trace.  The analysis commands read
random trace, users and observations CSVs with blank lines, wrong field
counts, non-numeric text, ``nan``/``inf``, negative or backwards times,
huge integers and stray bytes that are not UTF-8.  Random ``--sweep``
grids repeat keys, collide output names, leave values out and multiply
to huge point counts.  Every command must exit 0, 2, 3 or 4 with no
exception escaping ``main`` and no RuntimeWarning (which the test
configuration turns into an error).
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from frontpage import cli
from frontpage.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


_ANY = st.one_of(st.floats(), st.integers(min_value=-(2**70), max_value=2**70))


def _value(low, high):
    """A plausible value about nine times in ten, else any float or integer."""
    return st.tuples(
        st.integers(0, 9), st.floats(min_value=low, max_value=high), _ANY
    ).map(lambda pick: repr(pick[2] if pick[0] == 0 else pick[1]))


def _section(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_VOTE = _section(
    c=_value(0.01, 1.0),
    c_u=_value(0.01, 0.99),
    c_f=_value(0.01, 0.99),
    visit_rate_N=_value(0.1, 1e4),
    k_u=_value(0.001, 1.0),
    k_f=_value(0.0, 1.0),
    sm_alpha=_value(0.0, 500.0),
    sm_beta=_value(0.0, 500.0),
    sm_log_base=_value(1.5, 20.0),
    upcoming_window=_value(1.0, 100.0),
    friends_window=_value(1.0, 200.0),
    dt=_value(0.1, 5.0),
)
_STORY = st.fixed_dictionaries(
    {"interestingness_r": _value(0.0, 1.0)},
    optional={"submitter_network_S": _value(0.0, 500.0)},
)
_POLICY = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed")}, optional={"h": _value(2, 100)}),
    st.fixed_dictionaries(
        {"kind": st.just("network_proportional")},
        optional={"factor": _value(0.1, 3.0)},
    ),
)
_RUN = st.fixed_dictionaries(
    {
        "horizon_minutes": st.tuples(
            st.integers(0, 9),
            st.integers(min_value=1, max_value=60),
            st.one_of(st.integers(max_value=60), st.floats(max_value=60.0)),
        ).map(lambda pick: repr(pick[2] if pick[0] == 0 else pick[1]))
    }
)
_ENSEMBLE = _section(
    runs=st.integers(max_value=3).map(repr),
    seed=st.integers(min_value=-5, max_value=2**70).map(repr),
    arrival_mode=st.sampled_from(["poisson", "mean"]),
)


def _ini(sections) -> str:
    lines = []
    for name, mapping in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in mapping.items())
    return "\n".join(lines) + "\n"


def _assert_documented_exit(argv, out, capsys):
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == out.exists(), (argv, code, err)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    vote=_VOTE, story=_STORY, policy=_POLICY, run=_RUN, ensemble=_ENSEMBLE
)
def test_model_commands_exit_with_documented_codes(
    vote, story, policy, run, ensemble, capsys
):
    sections = {
        "vote": vote, "story": story, "policy": policy, "run": run,
        "ensemble": ensemble,
    }
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "fuzz.ini"
        config.write_text(_ini(sections))
        trace = Path(work) / "trace.csv"
        trace.write_text("id,t,value\na,0,1\na,30,4\n")
        for command in (["simulate", "votes"], ["ensemble"], ["compare", str(trace)]):
            _assert_documented_exit(
                [*command, "--config", str(config)], Path(work) / command[0], capsys
            )


_RANK = _section(
    a=_value(0.0, 0.1),
    b=_value(0.0, 5.0),
    c_success=_value(0.0, 0.01),
    dt_weeks=_value(0.1, 2.0),
)
_USER = st.fixed_dictionaries(
    {
        "front_page_F": _value(0.0, 100.0),
        "network_S": _value(0.0, 1000.0),
        "submission_rate_M": _value(0.0, 50.0),
    }
)
_RANK_RUN = _section(
    weeks=st.one_of(
        st.integers(1, 60), st.integers(min_value=-5, max_value=10**18)
    ).map(repr),
    rank_kappa=_value(0.1, 1e3),
    M_schedule=st.lists(_value(0.0, 50.0), min_size=1, max_size=8).map(",".join),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(rank=_RANK, user=_USER, run=_RANK_RUN)
def test_simulate_rank_exits_with_documented_codes(rank, user, run, capsys):
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "fuzz.ini"
        config.write_text(_ini({"rank": rank, "user": user, "run": run}))
        _assert_documented_exit(
            ["simulate", "rank", "--config", str(config)], Path(work) / "out", capsys
        )


# CSV rows are valid most of the time; the rest are blank, of the wrong
# length, or carry one hostile field.
_HOSTILE = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", " 7 ", "1e400", "-1"]),
    st.just("9" * 140_000),  # past the csv module's field size limit
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.integers(min_value=10**300, max_value=10**400).map(str),
    st.floats().map(repr),
)
_ID = st.sampled_from(["a", "a", "b", " b "])
_TIME = st.floats(0.9, 1500.0)


@st.composite
def _trace_rows(draw):
    points = draw(
        st.lists(st.tuples(_ID, _TIME, st.floats(-1e3, 1e3)), min_size=1, max_size=12)
    )
    if draw(st.integers(0, 4)):  # else times may go backwards
        points.sort(key=lambda point: point[1])
    return [[sid, repr(t), repr(v)] for sid, t, v in points]


@st.composite
def _user_rows(draw):
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        submissions = draw(st.integers(1, 400))
        front_page = draw(st.integers(0, submissions))
        network = draw(st.integers(0, 1000))
        rows.append(["u", *map(str, (submissions, front_page, network))])
    return rows


def _magnitude(draw) -> int:
    """An integer between 10^(e-1) and 10^e; e <= 6 half the time, else e <= 30."""
    top = 10 ** draw(st.one_of(st.integers(0, 6), st.integers(0, 30)))
    return draw(st.integers(top // 10, top))


@st.composite
def _observation_rows(draw):
    """Consistent friend-vote samples; pools and samples up to 10^30."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        pool = max(1, _magnitude(draw))
        sample = min(pool, _magnitude(draw))
        group = draw(st.integers(0, pool))
        overlap = draw(st.integers(0, min(sample, group)))
        rows.append(["o", *map(str, (pool, sample, group, overlap))])
    return rows


@st.composite
def _csv(draw, header: str, rows):
    lines = [header]
    for row in draw(rows):
        kind = draw(st.integers(0, 30))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(",".join(draw(st.lists(_HOSTILE, max_size=len(row) + 2))))
        elif kind == 2:
            row[draw(st.integers(0, len(row) - 1))] = draw(_HOSTILE)
        if kind > 1:
            lines.append(",".join(row))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    trace=_csv("id,t,value", _trace_rows()),
    users=_csv("id,submissions,front_page_F,network_S", _user_rows()),
    observations=_csv("id,pool_N,sample_n,group_K,overlap_k", _observation_rows()),
)
def test_analysis_commands_exit_with_documented_codes(
    trace, users, observations, capsys
):
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, data in (
            ("trace", trace), ("users", users), ("observations", observations)
        ):
            paths[name] = Path(work) / f"{name}.csv"
            paths[name].write_bytes(data)
        baseline = str(CONFIGS / "votes_baseline.ini")
        for i, argv in enumerate(
            [
                ["fit", "linear", str(paths["trace"])],
                ["fit", "log", str(paths["trace"])],
                ["compare", str(paths["trace"]), "--config", baseline],
                ["fit", "success", str(paths["users"]), "--min-submissions", "1"],
                ["significance", str(paths["observations"])],
            ]
        ):
            _assert_documented_exit(argv, Path(work) / f"out{i}", capsys)


# Swept keys with values they accept, then keys no config has.
_SWEEP_KEYS = {
    "story.interestingness_r": ["0", "0.1", "0.5", "1"],
    "story.submitter_network_S": ["0", "80", "400"],
    "policy.h": ["2", "10", "40"],
    "vote.dt": ["0.5", "1", "2"],
    "run.horizon_minutes": ["10", "30", "60"],
    "ensemble.arrival_mode": ["mean", "poisson"],
    "vote.no_such_key": ["1"],
    "no_such.section": ["1"],
    "story": ["0.5"],
    " story.interestingness_r ": ["0.5"],
}
# "a/b" and "a-b" name the same output file
_HOSTILE_VALUES = st.sampled_from(["", " ", "a/b", "a-b", "nan", "1e400", "-1"])


@st.composite
def _small_grid(draw):
    """Up to three flags of up to four values: at most 64 points, some of
    them malformed, repeated or colliding."""
    specs = []
    keys = st.sampled_from(list(_SWEEP_KEYS)[:6]) | st.sampled_from(list(_SWEEP_KEYS))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(keys)
        value = st.sampled_from(_SWEEP_KEYS[key])
        if draw(st.integers(0, 3)) == 3:
            value = value | _HOSTILE_VALUES
        unique = draw(st.integers(0, 3)) < 3
        values = draw(st.lists(value, min_size=1, max_size=4, unique=unique))
        sep = "" if draw(st.integers(0, 9)) == 9 else "="
        specs.append(f"{key}{sep}{','.join(values)}")
    return specs


@st.composite
def _huge_grid(draw):
    """Two to four flags of 101-400 distinct values each, usually on
    distinct keys: more points than a sweep may have."""
    keys = st.sampled_from(list(_SWEEP_KEYS))
    return [
        f"{key}=" + ",".join(map(str, range(draw(st.integers(101, 400)))))
        for key in draw(st.lists(keys, min_size=2, max_size=4, unique=draw(st.booleans())))
    ]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    grid=st.one_of(_small_grid(), _small_grid(), _huge_grid()),
    command=st.sampled_from([["simulate", "votes"], ["ensemble"]]),
)
def test_sweep_grids_exit_with_documented_codes(grid, command, capsys):
    # every point made gets an output name, once while expanding the grid
    # and once more for its CSV file
    named = []

    def suffix_for(overrides):
        named.append(overrides)
        return suffix(overrides)

    sweeps = [arg for spec in grid for arg in ("--sweep", spec)]
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        suffix = cli._suffix_for
        mp.setattr(cli, "_suffix_for", suffix_for)
        config = Path(work) / "fuzz.ini"
        config.write_text(
            _ini(
                {
                    "story": {"interestingness_r": "0.5", "submitter_network_S": "80"},
                    "run": {"horizon_minutes": "30"},
                    "ensemble": {"runs": "2"},
                }
            )
        )
        argv = [*command, "--config", str(config), *sweeps]
        _assert_documented_exit(argv, Path(work) / "out", capsys)
        event("ran" if (Path(work) / "out").exists() else "rejected")
    counts = [len(spec.partition("=")[2].split(",")) for spec in grid]
    if math.prod(counts) > cli._MAX_SWEEP_POINTS:
        assert not named  # rejected before a single point was made
    assert len(named) <= 2 * 64
