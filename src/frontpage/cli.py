"""Config-driven scenario runner.

Each command is one row of ``_COMMANDS``; ``frontpage --help`` lists them.

Scenario configs are INI-style: sections ``[vote] [story] [policy] [rank]
[user] [ensemble] [run]`` whose keys mirror the parameter-record field
names exactly; every section in the file is checked, read or not.
``--sweep SECTION.KEY=V1,V2,...`` (repeatable, once per key; cross
product) fans a ``simulate`` or ``ensemble`` run out over a parameter
grid of keys the command reads (its row's ``reads``); outputs are keyed
by the swept values.  ``compare`` takes no ``--sweep``.

Every command writes a ``summary.json`` embedding the fully resolved
parameters and tool version, so a run is reproducible from its outputs.
Outputs are deterministic byte for byte: no timestamps, no absolute
paths, sorted JSON keys, write-then-rename per file.

Exit codes: 0 success; 2 invalid config or command line; 3 unreadable or
malformed input data; 4 unwritable output.
"""

from __future__ import annotations

import argparse
import collections.abc
import configparser
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
import typing
from pathlib import Path

from . import _EXPORTS, _MAX_BINS, __version__, _check, _echo, _load


class _LazyModule:
    """Stands in for a module among this module's globals until the first
    read of one of its attributes, which imports the module and binds it in
    this stand-in's place.  The parser reads none of numpy, dataclasses and
    array, so a command line that asks for help or fails to parse loads none
    of them."""

    def __init__(self, alias: str, module: str) -> None:
        self._alias, self._module = alias, module

    def __getattr__(self, attr: str):
        module = _load(self._module)
        globals()[self._alias] = module
        return getattr(module, attr)


np = _LazyModule("np", "numpy")
dataclasses = _LazyModule("dataclasses", "dataclasses")
array = _LazyModule("array", "array")


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind here each name of their ``_EXPORTS``
    entries not yet bound: tests and ``perfbench`` patch some of them on
    this module."""
    scope = globals()
    for module in modules:
        imported = _load(f"{__package__}.{module}")
        for name in _EXPORTS[module]:
            scope.setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    """A model name read from outside before a command bound it (PEP 562).
    A dunder imports nothing: the import system asks this module for
    ``__path__`` on every ``python -m frontpage``."""
    if not name.startswith("__"):
        _bind(*_EXPORTS)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CliError",
    "ConfigError",
    "InputError",
    "OutputError",
    "ingest_traces",
    "run_scenario",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_OUTPUT = 4

_TRACE_HEADER = ["id", "t", "value"]
_USERS_HEADER = ["id", "submissions", "front_page_F", "network_S"]
_OBS_HEADER = ["id", "pool_N", "sample_n", "group_K", "overlap_k"]


class CliError(Exception):
    exit_code = EXIT_CONFIG


class ConfigError(CliError):
    """Invalid or inconsistent scenario configuration."""


class InputError(CliError):
    """Missing, unreadable, or schema-violating input data."""

    exit_code = EXIT_INPUT


class OutputError(CliError):
    """Output directory or file cannot be written."""

    exit_code = EXIT_OUTPUT


# --- config loading --------------------------------------------------------

# Config section -> the name of its record in ``core``.  [policy]'s is a
# union: its ``kind`` key names a member by its ``kind``, the first by default.
_RECORDS = {
    "vote": "VoteModelParams",
    "story": "StoryConfig",
    "policy": "PromotionPolicy",
    "rank": "RankModelParams",
    "user": "UserState",
    "ensemble": "EnsembleOptions",
    "run": "RunOptions",
}


def _record(cfg: dict[str, dict[str, str]], section: str):
    """The record of one config section, its defaults where it is absent."""
    mapping = dict(cfg.get(section, {}))
    record = globals()[_RECORDS[section]]
    members = {member.kind: member for member in typing.get_args(record)}
    if members:
        kind = mapping.pop("kind", next(iter(members)))
        if kind not in members:
            kinds = " or ".join(map(repr, members))
            raise ConfigError(f"[{section}] kind must be {kinds}, got {kind!r}")
        record = members[kind]
    try:
        return record_from_mapping(record, mapping)
    except ParameterError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path: Path):
    """Read an INI scenario file; return its ``{section: {key: raw value}}``
    and the record of each section in it.

    Every section in the file is checked by building its record, whether
    or not the command reads it, so no key is silently ignored.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # skips a leading BOM
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config {path}: not UTF-8 text ({exc.reason})"
        ) from None
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#",),
        delimiters=("=",),
        # no header line spells this name, so a [DEFAULT] section is unknown
        # like any other instead of filling every section with its keys
        default_section="\n",
    )
    parser.optionxform = str  # keys are case-sensitive field names
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    unknown = sorted(set(parser.sections()) - set(_RECORDS))
    if unknown:
        raise ConfigError(
            f"config {path}: unknown section(s) {', '.join(unknown)}; "
            f"expected {', '.join(_RECORDS)}"
        )
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    _bind("core")
    records = {s: _record(cfg, s) for s in _RECORDS if s in cfg}
    return cfg, records


# --- sweeps ----------------------------------------------------------------

def parse_sweeps(specs: list[str]) -> list[tuple[str, str, list[str]]]:
    """Parse ``SECTION.KEY=V1,V2,...`` flags into (section, key, values)."""
    sweeps = []
    for spec in specs:
        name, sep, raw_values = spec.partition("=")
        if not sep:
            raise ConfigError(f"sweep {spec!r}: expected SECTION.KEY=V1,V2,...")
        section, dot, key = name.strip().partition(".")
        if not dot or not section or not key:
            raise ConfigError(
                f"sweep {spec!r}: key must be qualified as SECTION.KEY"
            )
        if section not in _RECORDS:
            raise ConfigError(
                f"sweep {spec!r}: unknown section {section!r}; "
                f"expected one of {', '.join(_RECORDS)}"
            )
        if any((section, key) == swept[:2] for swept in sweeps):
            raise ConfigError(f"sweep {spec!r}: {section}.{key} is already swept")
        values = [v.strip() for v in raw_values.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"sweep {spec!r}: empty value list")
        sweeps.append((section, key, values))
    return sweeps


# Most points in one sweep grid: it bounds a command's time and memory.  Each
# point's overrides and records are built before any point runs and kept; its
# ``params`` doc is built as it runs, and in csv format kept with its output
# name in its ``summary.json`` entry: a few KB a point.  Its trajectory is
# written to a ``.tmp`` file as soon as it is computed and not kept.
_MAX_SWEEP_POINTS = 10_000


def expand_sweeps(
    cfg: dict[str, dict[str, str]],
    sweeps: list[tuple[str, str, list[str]]],
) -> list[tuple[dict[str, str], dict[str, dict[str, str]]]]:
    """Cross product of sweep values; yields (overrides, patched config).

    A grid of more than ``_MAX_SWEEP_POINTS`` points is rejected before any
    point is made.  Each point must get its own output name, so two points
    whose values read the same once ``/`` becomes ``-`` are rejected.
    """
    if not sweeps:
        return [({}, cfg)]
    points = math.prod(len(values) for _, _, values in sweeps)
    if points > _MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep: the grid has {points} points, more than {_MAX_SWEEP_POINTS}"
        )
    combos = []
    suffixes = set()
    for values in itertools.product(*(vals for _, _, vals in sweeps)):
        patched = dict(cfg)
        overrides = {}
        for (section, key, _), value in zip(sweeps, values):
            patched[section] = {**patched.get(section, {}), key: value}
            overrides[f"{section}.{key}"] = value
        suffix = _suffix_for(overrides)
        if suffix in suffixes:
            raise ConfigError(
                f"sweep: two points share the output name suffix {suffix!r}"
            )
        suffixes.add(suffix)
        combos.append((overrides, patched))
    return combos


def _suffix_for(overrides: dict[str, str]) -> str:
    return "".join(
        f"_{qualified.split('.', 1)[1]}={value.replace('/', '-')}"
        for qualified, value in overrides.items()
    )


def _points(args: argparse.Namespace):
    """Load ``--config``; ``(overrides, records)`` of each point.

    A point's records are those :func:`load_config` built, except that a
    section the command reads is built from the point's config where the
    file has none, a sweep sets one of its keys, or ``--seed`` sets its
    seed.  Every point is built before any is run, so an invalid point, or
    a sweep over a key the command does not read, fails the command before
    any work is done.
    """
    cfg, records = load_config(args.config)
    sweeps = parse_sweeps(args.sweep if "sweep" in args else [])
    sections, run_keys = _COMMANDS[args.kind].reads
    swept = rebuild = {section for section, _, _ in sweeps}
    if getattr(args, "seed", None) is not None:
        cfg = {**cfg, "ensemble": {**cfg.get("ensemble", {}), "seed": args.seed}}
        rebuild = swept | {"ensemble"}
    points = []
    for overrides, point in expand_sweeps(cfg, sweeps):
        records = dict(records)
        for section in sections:
            if section in rebuild or section not in records:
                records[section] = _record(point, section)
            if section == "run" and "vote" in sections:
                try:  # the vote model's horizon is a whole number of dt steps
                    step_count(records["run"].horizon_minutes, records["vote"].dt)
                except ValueError as exc:
                    raise ConfigError(f"[run] {exc}") from None
        rebuild = swept
        points.append((overrides, records))
    for section, key, _ in sweeps:
        if section not in sections or (section == "run" and key not in run_keys):
            raise ConfigError(
                f"sweep {section}.{key}: "
                f"{args.kind.replace('-', ' ')} does not read it"
            )
        # only ``ensemble`` reads [ensemble], and only it has --seed
        if (section, key) == ("ensemble", "seed") and args.seed is not None:
            raise ConfigError("sweep ensemble.seed: --seed sets every point's seed")
    return points


def _params(command: str, records) -> dict:
    """A point's ``params`` doc: the records ``command`` reads, as built
    only when the point runs."""
    sections, run_keys = _COMMANDS[command].reads
    doc = {section: dataclasses.asdict(records[section]) for section in sections}
    if "policy" in doc:
        doc["policy"] = {"kind": records["policy"].kind, **doc["policy"]}
    doc["run"] = {key: doc["run"][key] for key in run_keys}
    return doc


# --- trace ingestion -------------------------------------------------------

def _read_rows(path: Path, header: list[str], cast) -> None:
    """Call ``cast(lineno, row)`` on each non-blank data row of a CSV file;
    ``cast`` keeps what it needs of the row.

    The file must start with ``header``, and every row must have one
    field per header column.  Rows stream from the file and are cast in
    order until ``cast`` raises; a row of the wrong length anywhere in
    the file is still reported ahead of that error.
    """
    cast_error, has_header, has_data = None, False, False
    try:
        # Universal newlines, as Path.read_text, so "\r\n" rows read alike;
        # a leading BOM is skipped.
        with open(path, encoding="utf-8-sig") as stream:
            reader = csv.reader(stream)
            for lineno, row in enumerate(reader, start=1):
                if not row:
                    continue
                if not has_header:
                    if [c.strip() for c in row] != header:
                        raise InputError(
                            f"{path}: line {lineno}: expected header "
                            f"{','.join(header)!r}"
                        )
                    has_header = True
                    continue
                has_data = True
                if len(row) != len(header):
                    raise InputError(
                        f"{path}: line {lineno}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                if cast_error is None:
                    try:
                        cast(lineno, row)
                    except InputError as exc:
                        cast_error = exc
    except OSError as exc:
        raise InputError(f"cannot read input {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read input {path}: not UTF-8 text ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not has_header:
        raise InputError(f"{path}: empty file")
    if not has_data:
        raise InputError(f"{path}: no data rows")
    if cast_error is not None:
        raise cast_error


def ingest_traces(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Parse a ``id,t,value`` CSV trace into ``{id: (t, value)}`` arrays.

    Ids keep their first-appearance order, and time per id must never
    decrease.  Violations are reported with their line numbers.  Each id's
    times and values are held as C doubles, 8 bytes a number, from the
    moment their row is read; the arrays returned are views of them.
    """
    columns: dict[str, tuple[array.array, array.array]] = {}

    def add(lineno: int, row: list[str]) -> None:
        series_id = row[0].strip()
        if not series_id:
            raise InputError(f"{path}: line {lineno}: empty id")
        try:
            t = float(row[1])
            value = float(row[2])
        except ValueError:
            raise InputError(
                f"{path}: line {lineno}: t and value must be numbers, "
                f"got {_echo(row[1])}, {_echo(row[2])}"
            ) from None
        if not (math.isfinite(t) and t >= 0):
            raise InputError(f"{path}: line {lineno}: t must be finite and >= 0")
        if not math.isfinite(value):
            raise InputError(f"{path}: line {lineno}: value must be finite")
        series = columns.get(series_id)
        if series is None:
            series = columns[series_id] = (array.array("d"), array.array("d"))
        elif t < series[0][-1]:
            raise InputError(
                f"{path}: line {lineno}: time goes backwards for id "
                f"{_echo(series_id)} ({t} after {series[0][-1]})"
            )
        series[0].append(t)
        series[1].append(value)

    _read_rows(path, _TRACE_HEADER, add)
    return {
        sid: (np.frombuffer(times), np.frombuffer(values))
        for sid, (times, values) in columns.items()
    }


# --- output rendering ------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        # RFC 4180 minimal quoting: only a cell that needs it is quoted
        if "," in value or '"' in value or "\r" in value or "\n" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _is_float_vector(value) -> bool:
    """A 1-d float16, float32 or float64 ndarray: its ``tolist()`` gives
    Python floats."""
    return (
        isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.char in "efd"
    )


# Float vectors rendered lately, by content: (dtype, bytes) -> their reprs,
# least recently used first.  Every point of a sweep shares its time column.
_REPRS: dict[tuple[str, bytes], list[str]] = {}
_REPRS_KEPT = 2


def _float_reprs(vector: np.ndarray) -> list[str]:
    """``float.__repr__`` of each cell of a float vector, formatted once for
    a vector whose dtype and bytes equal one of the last few rendered, and
    once per run of equal cells.  The list is shared: callers must not
    change it."""
    key = (vector.dtype.str, vector.tobytes())
    reprs = _REPRS.pop(key, None)
    if reprs is None:
        if len(_REPRS) >= _REPRS_KEPT:
            del _REPRS[next(iter(_REPRS))]
        # a run of cells with equal bits, as a vote count that has stopped
        # growing, is formatted once
        bits = vector.view(f"u{vector.itemsize}")
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if 2 * starts.size >= vector.size:
            reprs = list(map(float.__repr__, vector.tolist()))
        else:
            starts = np.concatenate(([0], starts))
            runs = np.diff(starts, append=vector.size).tolist()
            firsts = map(float.__repr__, vector[starts].tolist())
            reprs = list(
                itertools.chain.from_iterable(map(itertools.repeat, firsts, runs))
            )
    _REPRS[key] = reprs
    return reprs


def _cells(column) -> list[str]:
    """``_fmt`` of every cell of a column, typed arrays without the per-cell
    dispatch: floats as ``repr`` (NaN as ""), integers as ``str``."""
    if _is_float_vector(column):
        cells = _float_reprs(column)
        nan = np.flatnonzero(np.isnan(column)).tolist()
        if nan:
            cells = cells.copy()
            for i in nan:
                cells[i] = ""
        return cells
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(int.__repr__, column.tolist()))
    return [_fmt(cell) for cell in column]


# Rows (or array items) formatted and written at a time: a table's text is
# held a block at a time.
_CSV_BLOCK_ROWS = 4096


def _write_csv(stream, header: str, columns) -> None:
    """Write a table given by columns; rows stop at the shortest column."""
    stream.write(header + "\n")
    for start in range(0, min(map(len, columns), default=0), _CSV_BLOCK_ROWS):
        block = [_cells(column[start : start + _CSV_BLOCK_ROWS]) for column in columns]
        stream.write("\n".join(map(",".join, zip(*block))) + "\n")


_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


def _write_json(stream, value, pad: str = "\n") -> None:
    """Write what ``json.dumps(value, sort_keys=True, indent=2)`` gives for
    the plain-JSON copy of ``value``: dict keys become ``str(k)`` (a later
    key wins a collision), tuples, ndarrays and iterators become lists,
    numpy scalars Python numbers, and non-finite floats ``null``.  ``pad``
    is the newline and indent of the current depth.  TypeError for any
    other type.
    """
    write = stream.write
    if value is None:
        write("null")
    elif isinstance(value, str):
        write(_json_string(value))
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        write(int.__repr__(int(value)))
    elif isinstance(value, (float, np.floating)):
        write(_json_float(float(value)))
    elif isinstance(value, np.ndarray):
        if not (_is_float_vector(value) and value.size):
            # list() raises TypeError on a 0-d array of a number
            _write_json(stream, list(value.tolist()), pad)
            return
        inner = pad + "  "
        sep = "[" + inner
        for start in range(0, value.size, _CSV_BLOCK_ROWS):
            block = value[start : start + _CSV_BLOCK_ROWS]
            if np.isfinite(block).all():
                text = _float_reprs(block)
            else:
                text = map(_json_float, block.tolist())
            write(sep + ("," + inner).join(text))
            sep = "," + inner
        write(pad + "]")
    elif isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        if not items:
            write("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(items):
            write(sep + _json_string(key) + ": ")
            _write_json(stream, items[key], inner)
            sep = "," + inner
        write(pad + "}")
    elif isinstance(value, (list, tuple, collections.abc.Iterator)):
        # each item is written as an iterator yields it, so whether there
        # was any is known only at the end
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(stream, item, inner)
            sep = "," + inner
        write("[]" if sep[0] == "[" else pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _write_summary(stream, doc: dict) -> None:
    _write_json(stream, doc)
    stream.write("\n")


def _write_outputs(out_dir: Path, outputs) -> None:
    """Write ``(name, render)`` outputs: each ``render(stream)`` writes its
    ``name.tmp`` in turn, and once all are written each is renamed into
    place, in order.

    The output directory is made, and a directory in place of any output
    fails, before the first render runs, so no output is replaced.  Any
    failure, in rendering too, removes every ``.tmp`` not yet renamed and
    every directory this call made that is still empty.
    """
    out_dir = Path(out_dir)
    made = []  # the directories mkdir makes, deepest first
    for directory in (out_dir, *out_dir.parents):
        if directory.exists():
            break
        made.append(directory)
    pending = []  # (tmp, target) written but not yet renamed
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(
                f"cannot create output directory {out_dir}: {exc}"
            ) from None
        for name, _ in outputs:
            target = out_dir / name
            # a rename replaces a symlink itself, but cannot replace a directory
            if target.is_dir() and not target.is_symlink():
                raise OutputError(f"cannot write {target}: it is a directory")
        for name, render in outputs:
            target = out_dir / name
            tmp = out_dir / (name + ".tmp")
            try:
                with open(tmp, "w", encoding="utf-8") as stream:
                    pending.append((tmp, target))
                    render(stream)
            except OSError as exc:
                raise OutputError(f"cannot write {target}: {exc}") from None
        while pending:
            tmp, target = pending[0]
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise OutputError(f"cannot write {target}: {exc}") from None
            pending.pop(0)
    except BaseException:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


# --- command runners -------------------------------------------------------
#
# Each runner takes the parsed command line and returns (tables, results,
# extra): the CSV tables as (file name, render), the ``results`` of
# ``summary.json`` and any further top-level keys of it.

def _table(name: str, header: str, columns):
    return name, functools.partial(_write_csv, header=header, columns=columns)


def _run_model(args: argparse.Namespace, stem: str, compute):
    """Run a model at every sweep point; one ``{stem}*.csv`` table each.

    ``compute(records)`` returns one point's (summary fields, CSV columns,
    JSON trajectory).  Every point's records are built before any runs,
    and each runs, and builds its ``params`` doc, only as its output is
    written: its table's render, in csv format, or the ``results``
    iterator that ``summary.json`` is written from, in json.  So a point's
    arrays are dropped once written.  A point that overflows the model is
    a config error naming the point.
    """

    def run(point):
        overrides, records = point
        # built before the model runs: built after its arrays, the docs that a
        # csv sweep keeps raised its peak RSS by about 0.2 MB
        params = _params(args.kind, records)
        try:
            fields, columns, trajectory = compute(records)
        except (ValueError, ArithmeticError) as exc:
            where = " ".join(f"{k}={v}" for k, v in overrides.items())
            raise ConfigError(f"{where or 'config'}: {exc}") from None
        return {"overrides": overrides, "params": params, **fields}, columns, trajectory

    points = _points(args)
    if args.output_format == "json":
        return [], (
            {**entry, "file": None, "trajectory": trajectory}
            for entry, _, trajectory in map(run, points)
        ), {}
    tables, results = [], []

    def render(stream, point, name):
        entry, columns, _ = run(point)
        results.append({**entry, "file": name})
        _write_csv(stream, ",".join(columns), columns.values())

    for point in points:
        name = f"{stem}{_suffix_for(point[0])}.csv"
        tables.append((name, functools.partial(render, point=point, name=name)))
    return tables, results, {}


def _story(records):
    """The vote model's story, ``[vote]``, ``[policy]`` and horizon."""
    return (records["story"], records["vote"], records["policy"],
            records["run"].horizon_minutes)


def _votes(records):
    trajectory = integrate_votes(*_story(records))
    fields = {
        "promotion_time_Th": trajectory.promotion_time_Th,
        "final_votes": trajectory.final_votes,
        "saturated_at": saturation_time(trajectory),
    }
    columns = {"t": trajectory.times, "m": trajectory.votes_m}
    return fields, columns, columns


def _rank(records):
    run = records["run"]
    trajectory = integrate_rank(records["user"], records["rank"], run)
    # NaN ("unranked") while F = 0: an empty cell in csv, null in json
    proxies = rank_proxies(trajectory.front_page_F, run.rank_kappa)
    fields = {
        "final_front_page_F": trajectory.front_page_F[-1],
        "final_network_S": trajectory.network_S[-1],
        "final_rank_proxy": proxies[-1],
    }
    columns = {
        "week": trajectory.weeks,
        "F": trajectory.front_page_F,
        "S": trajectory.network_S,
        "rank_proxy": proxies,
    }
    return fields, columns, columns


def _ensemble(records):
    summary = ensemble(*_story(records), records["ensemble"])
    fields = {
        "promotion_probability": summary.promotion_probability,
        "promotion_time_quantiles": summary.promotion_time_quantiles,
        "mean_final_votes": float(summary.final_votes.mean()),
        "std_final_votes": (
            float(summary.final_votes.std(ddof=1)) if summary.n_runs > 1 else 0.0
        ),
    }
    trajectory = {
        "t": summary.times,
        "mean_m": summary.mean_votes,
        "std_m": summary.std_votes,
    }
    return fields, {"t": summary.times, "m": summary.mean_votes}, trajectory


def _record_table(name: str, records: list[dict]):
    """A CSV table with one row per record; the header is the record keys."""
    return _table(name, ",".join(records[0]), list(zip(*(r.values() for r in records))))


def _per_id(args: argparse.Namespace, name: str, analyse, extra: dict):
    """Apply ``analyse(t, value)`` to each series of the input trace."""
    results = []
    for sid, (t, v) in ingest_traces(args.input).items():
        try:
            results.append({"id": sid, **dataclasses.asdict(analyse(t, v))})
        except (ValueError, ArithmeticError) as exc:
            raise InputError(f"id {_echo(sid)}: {exc}") from None
    return [_record_table(name, results)], results, extra


def _options(args: argparse.Namespace) -> dict:
    """The values of the command's own flags, by ``dest``."""
    flags = _COMMANDS[args.kind].flags
    return {dest: getattr(args, dest) for dest, _, _ in flags}


def _run_fit(args: argparse.Namespace, fit: str):
    """One ``fit`` per id, the command's flags as its keywords.  The name
    is looked up as the command runs: tests and ``perfbench`` patch it."""
    fit, options = globals()[fit], _options(args)
    return _per_id(
        args,
        "fits.csv",
        lambda x, y: fit(np.column_stack([x, y]), **options),
        {"options": options},
    )


def _run_compare(args: argparse.Namespace):
    [(_, records)] = _points(args)
    params = _params(args.kind, records)
    try:
        trajectory = integrate_votes(*_story(records))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"config: {exc}") from None
    threshold = records["policy"].threshold(records["story"])
    return _per_id(
        args,
        "compare.csv",
        lambda t, v: compare_model_to_trace(t, v, trajectory, threshold=threshold),
        {"params": params},
    )


def _run_fit_success(args: argparse.Namespace):
    subs, fronts, networks = (array.array("d") for _ in range(3))

    def cast(lineno: int, row: list[str]) -> None:
        try:
            sub, f, s = float(row[1]), float(row[2]), float(row[3])
        except ValueError:
            raise InputError(
                f"{args.input}: line {lineno}: numeric fields required"
            ) from None
        subs.append(sub)
        fronts.append(f)
        networks.append(s)

    _read_rows(args.input, _USERS_HEADER, cast)
    options = _options(args)
    try:
        users = map(np.frombuffer, (subs, fronts, networks))
        binned = success_rate_series(*users, **options)
        fit = fit_linear(binned.points)
    except (ValueError, ArithmeticError) as exc:
        raise InputError(f"{args.input}: {exc}") from None
    columns = [binned.bin_centers, binned.mean_rate, binned.stderr, binned.counts]
    results = [
        {
            "bins": [
                {"center_S": c, "mean_success": m, "stderr": e, "count": n}
                for c, m, e, n in zip(*columns)
            ],
            "fit": dataclasses.asdict(fit),
            "n_users_kept": binned.n_users_kept,
            "n_users_total": binned.n_users_total,
        }
    ]
    table = _table("success_bins.csv", "bin_center_S,mean_success,stderr,count", columns)
    return [table], results, {"options": options}


def _run_significance(args: argparse.Namespace):
    observations = []

    def cast(lineno: int, row: list[str]) -> None:
        try:
            obs = record_from_mapping(
                FriendVoteObservation, dict(zip(_OBS_HEADER[1:], row[1:]))
            )
        except ParameterError as exc:
            raise InputError(f"{args.input}: line {lineno}: {exc}") from None
        observations.append((row[0].strip(), obs))

    _read_rows(args.input, _OBS_HEADER, cast)
    results = [
        {
            "id": sid,
            "exact_k": chance_probability(obs, mode="exact"),
            "tail_at_least_k": chance_probability(obs, mode="tail"),
        }
        for sid, obs in observations
    ]
    extra = {
        f"mean_{key}": float(np.mean([r[key] for r in results]))
        for key in ("exact_k", "tail_at_least_k")
    }
    return [_record_table("significance.csv", results)], results, extra


def _checked(cast, bound: str):
    """An argparse ``type``: ``cast`` the text, then require it to be ``bound``,
    a key of the package's table of bounds."""

    def parse(text: str):
        value = cast(text)
        try:
            return _check(value, bound)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = cast.__name__  # argparse says "invalid int value: 'x'"
    return parse


# A command's row: its help; the modules it runs; its runner; its input
# CSV as (what it holds, header, note), or None; the config sections it
# reads, in the order their records are built, and the [run] keys it reads,
# or None when it takes no --config (its ``summary.json`` ``params`` hold
# these and nothing else, and a sweep may name only these); whether it
# takes --sweep; and its own flags as (dest, flag, argparse keywords).  The
# kind "GROUP-NAME" is the command ``GROUP NAME``.
_Command = collections.namedtuple(
    "_Command", "help modules runner input reads sweep flags",
    defaults=(None, None, False, ()),
)
_COMMANDS = {
    "simulate-votes": _Command(
        "story vote trajectory (CSV t,m)", ("core", "vote_dynamics"),
        functools.partial(_run_model, stem="votes", compute=_votes),
        reads=(("vote", "story", "policy", "run"), ("horizon_minutes",)), sweep=True,
    ),
    "simulate-rank": _Command(
        "weekly user rank model (CSV week,F,S,rank_proxy)", ("core", "rank_dynamics"),
        functools.partial(_run_model, stem="rank", compute=_rank),
        reads=(("rank", "user", "run"), ("weeks", "rank_kappa", "M_schedule")),
        sweep=True,
    ),
    "ensemble": _Command(
        "stochastic vote-model ensemble", ("core", "vote_dynamics", "stochastic_sim"),
        functools.partial(_run_model, stem="ensemble_mean", compute=_ensemble),
        reads=(("vote", "story", "policy", "run", "ensemble"), ("horizon_minutes",)),
        sweep=True,
        flags=[("seed", "--seed",
                dict(type=int, metavar="N", help="override the [ensemble] seed"))],
    ),
    "fit-linear": _Command(
        "y = slope*x + intercept per id", ("core", "fitting"),
        functools.partial(_run_fit, fit="fit_linear"),
        input=("trace", _TRACE_HEADER, None),
        flags=[("through_origin", "--through-origin",
                dict(action="store_true", help="pin the intercept at 0"))],
    ),
    "fit-log": _Command(
        "y = alpha*log(x) + beta per id", ("core", "fitting"),
        functools.partial(_run_fit, fit="fit_log"),
        input=("trace", _TRACE_HEADER, "t >= 1"),
        flags=[("log_base", "--log-base",
                dict(type=_checked(float, "positive and != 1"), default=math.e,
                     help="logarithm base (default e)"))],
    ),
    "fit-success": _Command(
        "binned success rate vs. network size", ("core", "fitting"), _run_fit_success,
        input=("users", _USERS_HEADER, None),
        flags=[("bins", "--bins",
                dict(type=_checked(int, f"an integer in [1, {_MAX_BINS}]"), default=10,
                     help="equal-width bin count (default 10)")),
               ("min_submissions", "--min-submissions",
                dict(type=_checked(int, "an integer >= 1"), default=50,
                     help="drop users below this many submissions (default 50)"))],
    ),
    "significance": _Command(
        "friend-voting chance probabilities", ("core", "fitting"), _run_significance,
        input=("observations", _OBS_HEADER, None),
    ),
    "compare": _Command(
        "model trajectory vs. observed trace", ("core", "vote_dynamics", "fitting"),
        _run_compare, input=("trace", _TRACE_HEADER, None),
        reads=(("vote", "story", "policy", "run"), ("horizon_minutes",)),
    ),
}


def run_scenario(args: argparse.Namespace) -> int:
    """Run a parsed command and write its outputs.

    An analysis command computes every result, then writes.  A model
    command builds every point first (config errors exit 2), then makes
    the output directory (exit 4 if it cannot, or if a directory sits where
    an output goes) and runs each point as its output is written: its
    table to its ``.tmp`` in csv format, its ``results`` entry into
    ``summary.json.tmp`` in json.  Only once every output is written are
    all renamed into place, so a failure while computing or rendering
    leaves the output location as it was.
    """
    row = _COMMANDS[args.kind]
    _bind(*row.modules)
    # A float overflow or NaN in a model or a fit raises FloatingPointError,
    # which the runners report as bad config or input instead of writing it.
    # A model point runs as its output is written, so writing is inside too.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        tables, results, extra = row.runner(args)
        doc = {
            "command": args.kind.replace("-", " "),
            "format": args.output_format,
            "results": results,
            "tool_version": __version__,
            **extra,
        }
        if "input" in args:
            doc["input"] = args.input.name
        outputs = tables if args.output_format == "csv" else []
        outputs.append(("summary.json", functools.partial(_write_summary, doc=doc)))
        _write_outputs(args.out, outputs)
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

class _BeforeName(argparse.Action):
    """An option given before the name of the command that takes it.
    Argparse would read the option's value as that name (``fit --out DIR``:
    "invalid choice: 'DIR'"), so each level above a command takes its
    options, unlisted, only to say that the name must come first."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"argument {self.const}: required before {option_string}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontpage",
        description="Collective-rating dynamics: simulations, ensembles, "
        "fits, and significance tests.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    groups, levels = {"": sub}, {"": parser}
    for group, help_text, metavar in (
        ("simulate", "deterministic model runs", "WHAT"),
        ("fit", "least-squares fits over CSV data", "KIND"),
    ):
        levels[group] = sub.add_parser(group, help=help_text)
        groups[group] = levels[group].add_subparsers(
            dest="target", required=True, metavar=metavar
        )
    known = {group: {} for group in groups}  # its commands' options: flag -> nargs

    def option(command, group, flag, **keywords):
        nargs = command.add_argument(flag, **keywords).nargs
        for level in {"", group}:
            known[level][flag] = nargs

    for kind, row in _COMMANDS.items():
        group, _, name = kind.rpartition("-")
        command = groups[group].add_parser(name, help=row.help)
        command.set_defaults(kind=kind)
        if row.input:
            what, header, note = row.input
            command.add_argument(
                "input",
                type=Path,
                help=f"{what} CSV ({','.join(header)})" + (f", {note}" if note else ""),
            )
        if row.reads:
            option(
                command, group, "--config",
                type=Path,
                required=True,
                metavar="PATH",
                help="INI scenario config (sections "
                + " ".join(f"[{section}]" for section in _RECORDS) + ")",
            )
        if row.sweep:
            option(
                command, group, "--sweep",
                action="append",
                default=[],
                metavar="SECTION.KEY=V1,V2,...",
                help="sweep a config key over values; repeatable (cross product)",
            )
        option(
            command, group, "--out",
            type=Path,
            default=Path("."),
            metavar="DIR",
            help="output directory (default: current directory)",
        )
        option(
            command, group, "--format",
            choices=("csv", "json"),
            default="csv",
            dest="output_format",
            help="csv: tables as CSV files plus summary.json; "
            "json: everything embedded in summary.json",
        )
        for dest, flag, keywords in row.flags:
            option(command, group, flag, dest=dest, **keywords)
    for group, commands in groups.items():
        for flag, nargs in known[group].items():
            levels[group].add_argument(
                flag, nargs=nargs, action=_BeforeName, const=commands.metavar,
                default=argparse.SUPPRESS, help=argparse.SUPPRESS,
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_scenario(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
