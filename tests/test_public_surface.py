"""The package's public surface: README's examples run as written, and
every exported name resolves."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import importlib.util
import math
import pkgutil
import re
import symtable
import typing
from pathlib import Path

import pytest

import frontpage

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ["frontpage"] + [
    f"frontpage.{info.name}" for info in pkgutil.iter_modules(frontpage.__path__)
]


def test_readme_python_blocks_run_in_order(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["traj"].promotion_time_Th is not None
    assert namespace["summary"].n_runs == 500
    assert capsys.readouterr().out.count("\n") == len(blocks)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define"


def test_dir_lists_every_export_before_it_is_loaded():
    spec = importlib.util.find_spec("frontpage")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)  # a copy of the package that loaded nothing
    assert not set(fresh.__all__) & set(vars(fresh))
    assert set(fresh.__all__) <= set(dir(fresh))


@pytest.mark.parametrize("name", frontpage.__all__)
def test_a_lazy_export_is_its_module_object(name):
    [module] = [m for m, names in frontpage._EXPORTS.items() if name in names]
    defining = importlib.import_module(f"frontpage.{module}")
    assert getattr(frontpage, name) is getattr(defining, name)
    assert name in defining.__all__


def test_star_import_binds_every_export():
    namespace = {}
    exec("from frontpage import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(frontpage.__all__)
    assert all(namespace[name] is getattr(frontpage, name) for name in frontpage.__all__)


def test_submodules_import_from_the_package():
    from frontpage import cli

    assert cli is importlib.import_module("frontpage.cli")
    assert callable(cli.main)


def test_readme_states_what_each_command_reads():
    from frontpage.cli import _COMMANDS

    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(
        r"A `--sweep` must name a key the command reads: (.*?)\.(?: |$)", text
    ).group(1)
    stated = {
        command: (tables.split(), run_keys.split())
        for command, tables, run_keys in re.findall(
            r"`([a-z ]+)` reads `([^`]*)` and `\[run\] ([^`]*)`", sentence
        )
    }
    assert stated == {
        kind.replace("-", " "): (
            [f"[{section}]" for section in row.reads[0] if section != "run"],
            list(row.reads[1]),
        )
        for kind, row in _COMMANDS.items()
        if row.reads is not None
    }


def _stated_default(default) -> str:
    if default is dataclasses.MISSING:
        return "required"
    if default is None:
        return "none"
    if default == math.e:
        return "e"
    if isinstance(default, str):
        return f"`{default}`"
    return str(default)


def test_readme_config_table_states_each_default_and_bound():
    from frontpage import core
    from frontpage.cli import _RECORDS

    stated = {
        (section, key): (default, bound)
        for section, key, default, bound in re.findall(
            r"^\| `\[(\w+)\] (\w+)` \| ([^|]*) \| ([^|]*) \|",
            README.read_text(encoding="utf-8"), re.MULTILINE,
        )
    }
    policies = typing.get_args(core.PromotionPolicy)
    assert stated.pop(("policy", "kind")) == (
        f"`{policies[0].kind}`", " or ".join(f"`{p.kind}`" for p in policies)
    )
    declared = {
        (section, field.name): field
        for section, name in _RECORDS.items()
        for record in typing.get_args(getattr(core, name)) or [getattr(core, name)]
        for field in dataclasses.fields(record)
    }
    assert stated.keys() == declared.keys()
    for key, (default, bound) in stated.items():
        field = declared[key]
        assert default == _stated_default(field.default), key
        # A declared bound opens the cell; only the non-numeric keys have none.
        first = bound.split("; ")[0]
        if key in {("ensemble", "arrival_mode"), ("run", "M_schedule")}:
            assert "bound" not in field.metadata and first not in frontpage._BOUNDS, key
        else:
            assert first == field.metadata["bound"], key


def _bounded_flags(parser, command=()):
    """``(command, flag) -> action`` of each flag the parser checks against
    a bound of the package's table."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _bounded_flags(sub, (*command, name))
        elif getattr(action.type, "__qualname__", "") == "_checked.<locals>.parse":
            yield (" ".join(command), action.option_strings[0]), action


def test_readme_flag_table_states_each_default_and_bound():
    from frontpage.cli import build_parser

    stated = {
        (command, flag): (default, bound)
        for command, flag, default, bound in re.findall(
            r"^\| `([a-z ]+) (--[a-z-]+)` \| ([^|]*) \| ([^|]*) \|",
            README.read_text(encoding="utf-8"), re.MULTILINE,
        )
    }
    declared = dict(_bounded_flags(build_parser()))
    assert stated.keys() == declared.keys()
    for key, (default, bound) in stated.items():
        action = declared[key]
        assert default == _stated_default(action.default), key
        assert bound in frontpage._BOUNDS, key
        with pytest.raises(argparse.ArgumentTypeError) as info:
            action.type("0")  # outside each of these bounds
        assert str(info.value).startswith(f"must be {bound}, got "), key


def _number(text: str) -> int:
    return 10 ** int(text[3:]) if text.startswith("10^") else int(text.replace(",", ""))


# Each cap, and every phrase in which README states it.
_CAPS = {
    "frontpage._MAX_RUNS": [
        r"`\[ensemble\] runs` \| \d+ \| an integer in \[1, (\d+)\]",
        r"An ensemble has at most ([\d,]+) runs",
        r"an ensemble of more than ([\d,]+) runs",
    ],
    "frontpage._MAX_WEEKS": [
        r"`\[run\] weeks` \| \d+ \| an integer in \[1, (\d+)\]",
        r"more than (10\^\d+) weeks",
    ],
    "frontpage._MAX_SAMPLE_N": [
        r"samples are capped at `n = (10\^\d+)`",
        r"`sample_n` at most (10\^\d+)",
        r"a sample over (10\^\d+)",
    ],
    "frontpage._MAX_BINS": [
        r"`fit success --bins` \| \d+ \| an integer in \[1, (\d+)\]",
        r"bins <= ([\d,]+)",
        r"a success-rate series at ([\d,]+) bins",
        r"`fit success --bins` over ([\d,]+)",
    ],
    "frontpage.cli._MAX_SWEEP_POINTS": [
        r"may have at most ([\d,]+) points",
        r"a sweep grid of more than ([\d,]+) points",
    ],
    "frontpage.vote_dynamics._MAX_STEPS": [
        r"`\[vote\] dt` steps, at most ([\d,]+) of them",
    ],
}


@pytest.mark.parametrize("name", _CAPS)
def test_readme_states_each_cap(name):
    module, _, attr = name.rpartition(".")
    cap = getattr(importlib.import_module(module), attr)
    text = " ".join(README.read_text(encoding="utf-8").split())
    for pattern in _CAPS[name]:
        stated = re.findall(pattern, text)
        assert stated, pattern
        assert [_number(value) for value in stated] == [cap] * len(stated), pattern


def test_vote_rates_use_no_numpy_transcendentals():
    # Every rate goes through Python's float functions (_pow, math.log in
    # _voter_rate), which the mean-field and Monte Carlo paths share; a
    # numpy copy could differ from them in the last bit.
    source = ROOT / "src" / "frontpage" / "vote_dynamics.py"
    used = {
        node.attr
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    }
    banned = {
        name for name in used
        if name.startswith(("log", "exp")) or name in ("power", "float_power")
    }
    assert not banned


def _text(node) -> str:
    """A string literal's text; an f-string's with each field that names a
    cap of the package (``{_MAX_BINS}``) filled in, and others as {}."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else ""
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(value) for value in node.values)
    name = getattr(node.value, "id", "")  # a FormattedValue
    return str(vars(frontpage).get(name, "{}")) if name.startswith("_MAX_") else "{}"


def test_no_bound_message_is_written_outside_the_table():
    # Every "NAME must be BOUND, got VALUE" comes from frontpage._check; a
    # hand-written copy of one of its bounds could drift from the table.
    copies = [
        f"{source.name}:{node.lineno}: {text!r}"
        for source in sorted((ROOT / "src" / "frontpage").glob("*.py"))
        if source.name != "__init__.py"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Constant, ast.JoinedStr))
        for text in [_text(node)]
        if any(f"must be {bound}, got" in text for bound in frontpage._BOUNDS)
    ]
    assert not copies


def _model_exports() -> set:
    return {
        name
        for module in frontpage._EXPORTS
        for name in importlib.import_module(f"frontpage.{module}").__all__
    }


def _cli_globals() -> tuple:
    """The globals ``cli.py`` reads, in any scope, and those it defines."""
    path = ROOT / "src" / "frontpage" / "cli.py"
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    defined = {
        s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()
    }
    reads, tables = set(), [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        reads |= {
            s.get_name() for s in table.get_symbols()
            if s.is_referenced() and (table is top or s.is_global())
        }
    return reads, defined


def test_cli_reads_only_what_it_defines_or_a_model_module_exports():
    # A command binds the names in its modules' __all__ on frontpage.cli
    # (cli._bind); a name in none of them would be a NameError only when read.
    reads, defined = _cli_globals()
    assert reads - defined - set(dir(builtins)) - _model_exports() == set()


def test_cli_defines_no_name_a_model_module_exports():
    # binding never replaces a name already bound, so cli's own would win
    _, defined = _cli_globals()
    assert defined & _model_exports() == set()


def test_each_config_record_class_is_a_core_export():
    from frontpage import cli, core

    assert set(cli._RECORDS.values()) <= set(core.__all__)
