"""What a model command leaves in ``--out``.

A sweep writes each point's output as soon as the point is computed, so
its memory does not grow with its trajectories; a point that fails still
leaves the output location as it was; and every result can be rerun from
the ``params`` its ``summary.json`` records, to the same bytes.
"""

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from frontpage.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_INI = CONFIGS / "votes_network_sweep.ini"
ENSEMBLE_INI = CONFIGS / "ensemble_discrete_voters.ini"

# An overflowing sweep: its first point runs, its last overflows.
OVERFLOW = ["--sweep", "vote.visit_rate_N=10,1e307"]


def _values(n: int) -> str:
    return ",".join(f"{(i + 1) / (n + 1):.6f}" for i in range(n))


def _peak_bytes(argv) -> int:
    """Peak traced allocation of one ``main(argv)`` above what it started with."""
    gc.collect()  # no earlier call's garbage is freed inside the measure
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# Most a sweep's peak may grow from 8 to 64 points.  Every point keeps its
# records, ``params`` and (in csv) summary entry, a few KB; a point's
# trajectory (48 KB at 2,881 steps, ~95 KB of text) must not be kept.
_GROWTH_BOUND = 500_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "votes", "--config", str(SWEEP_INI)],
        ["ensemble", "--config", str(ENSEMBLE_INI), "--sweep", "ensemble.runs=2"],
    ],
    ids=["simulate-votes", "ensemble"],
)
def test_sweep_memory_does_not_grow_with_its_points(command, fmt, tmp_path):
    def argv(n):
        return [
            *command, "--sweep", f"story.interestingness_r={_values(n)}",
            "--format", fmt, "--out", str(tmp_path / f"out{n}"),
        ]

    assert main(argv(2)) == 0  # imports and caches, outside the measure
    growth = _peak_bytes(argv(64)) - _peak_bytes(argv(8))
    assert growth < _GROWTH_BOUND, growth


def _snapshot(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*")
            if p.is_file()}


def _overflowing(out: Path, fmt: str) -> list:
    return ["simulate", "votes", "--config", str(SWEEP_INI), *OVERFLOW,
            "--format", fmt, "--out", str(out)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestFailedSweepLeavesOutputsAsTheyWere:
    def test_existing_outputs_stay_byte_unchanged(self, fmt, tmp_path, capsys):
        out = tmp_path / "out"
        # the same output names as the overflowing sweep's first point
        first = ["simulate", "votes", "--config", str(SWEEP_INI),
                 "--sweep", "vote.visit_rate_N=10", "--format", fmt, "--out", str(out)]
        assert main(first) == 0
        before = _snapshot(out)
        capsys.readouterr()
        assert main(_overflowing(out, fmt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vote.visit_rate_N=1e307: ")
        assert "vote count is inf" in err
        assert _snapshot(out) == before  # no .tmp, nothing replaced

    def test_no_directory_is_left_behind(self, fmt, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        assert main(_overflowing(out, fmt)) == 2
        assert "vote.visit_rate_N=1e307" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_an_unwritable_out_is_reported_before_any_point_runs(
        self, fmt, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        assert main(_overflowing(out, fmt)) == 4
        assert capsys.readouterr().err.startswith(
            f"error: cannot create output directory {out}: "
        )
        assert out.read_text() == "a file, not a directory\n"
        assert sorted(tmp_path.iterdir()) == [out]


# --- reproducible from its outputs -------------------------------------------

def _ini(params: dict) -> str:
    """An INI config of a result's ``params``, each float as its repr."""
    lines = []
    for section, mapping in params.items():
        lines.append(f"[{section}]")
        for key, value in mapping.items():
            if isinstance(value, list):
                value = ", ".join(map(repr, value))
            elif isinstance(value, float):
                value = repr(value)
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _fields(result: dict) -> dict:
    """A result without what names its sweep point."""
    return {k: v for k, v in result.items() if k not in ("overrides", "file")}


_TABLES = {"simulate votes": "votes.csv", "simulate rank": "rank.csv",
           "ensemble": "ensemble_mean.csv", "compare": "compare.csv"}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "votes", "--config", str(CONFIGS / "votes_baseline.ini")],
        ["simulate", "rank", "--config", str(CONFIGS / "rank_active_user.ini")],
        ["ensemble", "--config", str(ENSEMBLE_INI)],
        ["simulate", "votes", "--config", str(SWEEP_INI),
         "--sweep", "story.interestingness_r=0.1,0.5,0.9",
         "--sweep", "story.submitter_network_S=0,80,400"],
        ["ensemble", "--config", str(ENSEMBLE_INI), "--seed", "7",
         "--sweep", "story.interestingness_r=0.2,0.6"],
        ["compare", "TRACE", "--config", str(CONFIGS / "votes_baseline.ini")],
    ],
    ids=["votes", "rank", "ensemble", "votes-sweep", "ensemble-sweep-seed", "compare"],
)
def test_each_result_reruns_from_its_params(argv, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("id,t,value\na,0,1\na,60,9\na,600,40\nb,0,1\nb,30,2\n")
    argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    command = summary["command"]
    if command == "compare":  # one model run, compared with each id
        points = [(summary["params"], "compare.csv", summary["results"])]
    else:
        points = [(r["params"], r["file"], [_fields(r)]) for r in summary["results"]]
    for i, (params, table, results) in enumerate(points):
        ini = tmp_path / f"point{i}.ini"
        ini.write_text(_ini(params))
        again = tmp_path / f"again{i}"
        inputs = [str(trace)] if command == "compare" else []
        rerun = [*command.split(), *inputs, "--config", str(ini), "--out", str(again)]
        assert main(rerun) == 0
        assert (again / _TABLES[command]).read_bytes() == (out / table).read_bytes()
        rerun_summary = json.loads((again / "summary.json").read_text())
        assert [_fields(r) for r in rerun_summary["results"]] == results
        assert rerun_summary.get("params", params) == params
