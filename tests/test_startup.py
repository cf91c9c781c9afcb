"""Start-up: what a command line imports, each case in a fresh interpreter.

``import frontpage`` and ``import frontpage.cli`` load only the standard
library, a command line that asks for help or fails to parse loads neither
numpy nor ``array``, and a command imports only the modules it runs.  The
model names patched on ``frontpage.cli`` before a command runs, as
``perfbench/tracer.py`` patches them, stay patched while it runs, and the
commands call a model function patched on its own module before the first
command as they call one patched on ``frontpage.cli``.  A dunder lookup on
``frontpage.cli``, as the import system makes, imports nothing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frontpage
import frontpage.cli

ROOT = Path(__file__).resolve().parents[1]

# Runs ``python -m frontpage ARGV...`` in this interpreter, then prints its
# exit code and the modules it imported as the last line of standard output.
_RUN = """
import json, runpy, sys
sys.argv = ["frontpage", *sys.argv[1:]]
try:
    runpy.run_module("frontpage", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# Wraps each name, on the module given with it, before any command runs;
# runs the commands and prints their exit codes and, per command, the
# wrapped names it called.
_PATCH = """
import importlib, json, sys
import frontpage.cli as cli

targets, commands = json.loads(sys.argv[1])
called = set()

def recording(name, fn):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper

for module, name in targets:
    owner = importlib.import_module(module)
    setattr(owner, name, recording(name, getattr(owner, name)))
codes, calls = [], []
for argv in commands:
    called.clear()
    codes.append(cli.main(argv))
    calls.append(sorted(called))
print(json.dumps({"codes": codes, "calls": calls}))
"""

# The names tests and perfbench patch on ``frontpage.cli``.
PATCHED = [
    "load_config", "ingest_traces", "run_scenario", "record_from_mapping",
    "integrate_votes", "ensemble", "integrate_rank", "fit_linear", "fit_log",
    "success_rate_series", "chance_probability",
]


def _python(cwd, source, *args):
    """Run ``python -c source args...`` with this checkout's package first on
    the path; the JSON value of its last line of standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", source, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _frontpage(modules) -> set:
    return {m for m in modules if m == "frontpage" or m.startswith("frontpage.")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small input for every command, in a directory to run them from."""
    root = tmp_path_factory.mktemp("startup")
    (root / "votes.ini").write_text(
        "[story]\ninterestingness_r = 0.5\n[ensemble]\nruns = 3\nseed = 1\n"
        "[run]\nhorizon_minutes = 60\n"
    )
    (root / "rank.ini").write_text(
        "[user]\nfront_page_F = 5\nnetwork_S = 50\nsubmission_rate_M = 2\n"
        "[run]\nweeks = 3\n"
    )
    (root / "trace.csv").write_text("id,t,value\na,1,2\na,2,3\na,4,6\n")
    (root / "users.csv").write_text(
        "id,submissions,front_page_F,network_S\n"
        + "".join(f"u{i},60,{i % 5},{i}\n" for i in range(20))
    )
    (root / "obs.csv").write_text(
        "id,pool_N,sample_n,group_K,overlap_k\no,100,10,20,3\n"
    )
    return root


def _imports(cwd, module: str) -> set:
    """The modules ``import module`` loads in a fresh interpreter."""
    source = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    return set(_python(cwd, source))


@pytest.fixture(scope="module")
def numpy_alone(inputs) -> set:
    return _imports(inputs, "numpy")


def test_import_frontpage_loads_no_submodule(inputs):
    modules = _imports(inputs, "frontpage")
    assert _frontpage(modules) == {"frontpage"}
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["ensemble", "--help"], 0),
        (["ensemble"], 2),  # --config is required
        (["fit", "success", "users.csv", "--bins", "0"], 2),  # checked by its bound
    ],
)
def test_parsing_alone_loads_no_numpy(inputs, argv, code):
    run = _python(inputs, _RUN, *argv)
    assert run["code"] == code
    assert _frontpage(run["modules"]) == {"frontpage", "frontpage.cli"}
    assert "numpy" not in run["modules"]
    assert "array" not in run["modules"]


@pytest.mark.parametrize(
    "argv,runs",
    [
        (["simulate", "votes", "--config", "votes.ini"], {"core", "vote_dynamics"}),
        (["simulate", "rank", "--config", "rank.ini"], {"core", "rank_dynamics"}),
        (
            ["ensemble", "--config", "votes.ini"],
            {"core", "vote_dynamics", "stochastic_sim"},
        ),
        (["fit", "linear", "trace.csv"], {"core", "fitting"}),
        (["fit", "log", "trace.csv"], {"core", "fitting"}),
        (["fit", "success", "users.csv"], {"core", "fitting"}),
        (["significance", "obs.csv"], {"core", "fitting"}),
        (
            ["compare", "trace.csv", "--config", "votes.ini"],
            {"core", "vote_dynamics", "fitting"},
        ),
    ],
)
def test_a_command_imports_only_the_modules_it_runs(inputs, numpy_alone, argv, runs):
    out = "out_" + "_".join(argv[:2])
    run = _python(inputs, _RUN, *argv, "--out", out)
    assert run["code"] == 0
    assert _frontpage(run["modules"]) == {
        "frontpage", "frontpage.cli", *(f"frontpage.{m}" for m in runs)
    }
    if "stochastic_sim" not in runs:
        assert "numpy.random" not in set(run["modules"]) - numpy_alone


_PATCH_COMMANDS = [
    ["ensemble", "--config", "votes.ini", "--out", "p_ensemble"],
    ["simulate", "votes", "--config", "votes.ini", "--out", "p_votes"],
    ["simulate", "rank", "--config", "rank.ini", "--out", "p_rank"],
    ["fit", "linear", "trace.csv", "--out", "p_linear"],
    ["fit", "log", "trace.csv", "--out", "p_log"],
    ["fit", "success", "users.csv", "--out", "p_success"],
    ["significance", "obs.csv", "--out", "p_significance"],
]


def _patched_calls(cwd, targets) -> list:
    """Per command of ``_PATCH_COMMANDS``, the patched names it called."""
    run = _python(cwd, _PATCH, json.dumps([targets, _PATCH_COMMANDS]))
    assert run["codes"] == [0] * len(_PATCH_COMMANDS)
    return [set(names) for names in run["calls"]]


def test_names_patched_before_the_first_command_stay_patched(inputs):
    calls = _patched_calls(inputs, [["frontpage.cli", name] for name in PATCHED])
    assert [name for name in PATCHED if not any(name in c for c in calls)] == []


def test_names_patched_on_their_own_module_are_the_ones_called(inputs):
    owners = {
        name: f"frontpage.{module}"
        for module in frontpage._EXPORTS
        for name in importlib.import_module(f"frontpage.{module}").__all__
    }
    model = [name for name in PATCHED if name in owners]
    on_cli = _patched_calls(inputs, [["frontpage.cli", name] for name in model])
    on_owner = _patched_calls(inputs, [[owners[name], name] for name in model])
    assert set().union(*on_cli) == set(model)
    # a patch on the owner also sees the model's own calls (fit_log's
    # fit_linear), so each command's names may only grow
    assert [c - o for c, o in zip(on_cli, on_owner)] == [set()] * len(on_cli)


def test_a_dunder_lookup_on_cli_imports_nothing(inputs):
    source = (
        "import json, sys, frontpage.cli as cli\n"
        "found = [hasattr(cli, name) for name in ('__path__', '__wrapped__')]\n"
        "print(json.dumps([found, sorted(sys.modules)]))"
    )
    found, modules = _python(inputs, source)
    assert found == [False, False]
    assert _frontpage(modules) == {"frontpage", "frontpage.cli"}
    assert "numpy" not in modules


def test_an_unknown_name_on_cli_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(frontpage.cli, "no_such_name")
