"""Property test: random model configs only ever end in a documented exit code.

Every ``[vote]``, ``[story]``, ``[policy]``, ``[run]`` and ``[ensemble]``
key is either left out, given a plausible value, or given an arbitrary
float (NaN, infinities, subnormals and values near the double limits
included) or integer.  ``simulate votes`` and ``ensemble`` must exit 0,
2, 3 or 4 with no exception escaping ``main`` and no RuntimeWarning
(which the test configuration turns into an error).
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontpage.cli import main


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
        for command in (["simulate", "votes"], ["ensemble"]):
            out = Path(work) / "_".join(command)
            code = main([*command, "--config", str(config), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (command, code, err)
            assert "Traceback" not in err
            assert (code == 0) == out.exists(), (command, code, err)
