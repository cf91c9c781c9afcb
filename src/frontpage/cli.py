"""Config-driven scenario runner.

Subcommands
    simulate votes   deterministic vote trajectory (CSV ``t,m``)
    simulate rank    weekly rank model (CSV ``week,F,S,rank_proxy``)
    ensemble         stochastic ensemble; mean trajectory + summary stats
    fit linear|log|success   least-squares fits over ingested CSV data
    significance     friend-voting chance probabilities per observation
    compare          model trajectory vs. an observed trace

Scenario configs are INI-style: sections ``[vote] [story] [policy] [rank]
[user] [ensemble] [run]`` whose keys mirror the parameter-record field
names exactly; every section in the file is checked, read or not.
``--sweep SECTION.KEY=V1,V2,...`` (repeatable, once per key; cross
product) fans a ``simulate`` or ``ensemble`` run out over a parameter
grid of keys the command reads; outputs are keyed by the swept values.
``compare`` takes no ``--sweep``.

Every command writes a ``summary.json`` embedding the fully resolved
parameters and tool version, so a run is reproducible from its outputs.
Outputs are deterministic byte for byte: no timestamps, no absolute
paths, sorted JSON keys, write-then-rename per file.

Exit codes: 0 success; 2 invalid config or command line; 3 unreadable or
malformed input data; 4 unwritable output.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import copy
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    EnsembleOptions,
    FixedThreshold,
    FriendVoteObservation,
    NetworkProportional,
    ParameterError,
    RankModelParams,
    RunOptions,
    StoryConfig,
    UserState,
    VoteModelParams,
    VoteTrajectory,
    record_from_mapping,
)
from .fitting import (
    chance_probability,
    fit_linear,
    fit_log,
    success_rate_series,
)
from .rank_dynamics import integrate_rank, rank_proxy
from .stochastic_sim import StochasticRunConfig, ensemble
from .vote_dynamics import (
    integrate_votes,
    promotion_threshold_for,
    saturation_time,
    step_count,
)

__all__ = [
    "CliError",
    "ConfigError",
    "InputError",
    "OutputError",
    "ComparisonReport",
    "ingest_traces",
    "compare_model_to_trace",
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

# Config section -> its record; [policy]'s ``kind`` key picks one of two.
_RECORDS = {
    "vote": VoteModelParams,
    "story": StoryConfig,
    "policy": {"fixed": FixedThreshold, "network_proportional": NetworkProportional},
    "rank": RankModelParams,
    "user": UserState,
    "ensemble": EnsembleOptions,
    "run": RunOptions,
}


def _record(cfg: dict[str, dict[str, str]], section: str):
    """The record of one config section, its defaults where it is absent."""
    mapping = dict(cfg.get(section, {}))
    cls = _RECORDS[section]
    if section == "policy":
        kind = mapping.pop("kind", "fixed")
        if kind not in cls:
            kinds = " or ".join(map(repr, cls))
            raise ConfigError(f"[policy] kind must be {kinds}, got {kind!r}")
        cls = cls[kind]
    try:
        return record_from_mapping(cls, mapping)
    except ParameterError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path: Path) -> dict[str, dict[str, str]]:
    """Read an INI scenario file into {section: {key: raw value}}.

    Every section in the file is checked by building its record, whether
    or not the command reads it, so no key is silently ignored.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
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
    for section in _RECORDS:
        if section in cfg:
            _record(cfg, section)
    return cfg


def _story_records(cfg: dict[str, dict[str, str]]):
    """Build the ``[vote] [story] [policy] [run]`` records of one story.

    Returns them with their resolved-parameter doc for ``summary.json``.
    """
    params, story, policy, run = (
        _record(cfg, section) for section in ("vote", "story", "policy", "run")
    )
    try:
        step_count(run.horizon_minutes, params.dt)
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from None
    kind = cfg.get("policy", {}).get("kind", "fixed")
    doc = {
        "vote": dataclasses.asdict(params),
        "story": dataclasses.asdict(story),
        "policy": {"kind": kind, **dataclasses.asdict(policy)},
        "run": {"horizon_minutes": run.horizon_minutes},
    }
    return params, story, policy, run, doc


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


# Most points in one sweep grid: each gets its own copy of the config and
# its own output, so the grid's size bounds the command's time and memory.
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
        patched = copy.deepcopy(cfg)
        overrides = {}
        for (section, key, _), value in zip(sweeps, values):
            patched.setdefault(section, {})[key] = value
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


# --- trace ingestion -------------------------------------------------------

def _read_rows(path: Path, header: list[str], cast) -> list:
    """``cast(lineno, row)`` of each non-blank data row of a CSV file.

    The file must start with ``header``, and every row must have one
    field per header column.  Rows stream from the file and are cast in
    order until ``cast`` raises; a row of the wrong length anywhere in
    the file is still reported ahead of that error.
    """
    cast_rows, cast_error, has_header, has_data = [], None, False, False
    try:
        # Universal newlines, as Path.read_text, so "\r\n" rows read alike.
        with open(path, encoding="utf-8") as stream:
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
                        cast_rows.append(cast(lineno, row))
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
    return cast_rows


def ingest_traces(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Parse a ``id,t,value`` CSV trace into ``{id: (t, value)}`` arrays.

    Ids keep their first-appearance order, and time per id must never
    decrease.  Violations are reported with their line numbers.
    """
    columns: dict[str, tuple[list[float], list[float]]] = {}

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
                f"got {row[1]!r}, {row[2]!r}"
            ) from None
        if not (math.isfinite(t) and t >= 0):
            raise InputError(f"{path}: line {lineno}: t must be finite and >= 0")
        if not math.isfinite(value):
            raise InputError(f"{path}: line {lineno}: value must be finite")
        series = columns.get(series_id)
        if series is None:
            series = columns[series_id] = ([], [])
        elif t < series[0][-1]:
            raise InputError(
                f"{path}: line {lineno}: time goes backwards for id "
                f"{series_id!r} ({t} after {series[0][-1]})"
            )
        series[0].append(t)
        series[1].append(value)

    _read_rows(path, _TRACE_HEADER, add)
    return {
        sid: (np.array(times), np.array(values))
        for sid, (times, values) in columns.items()
    }


# --- model-vs-trace comparison ---------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Goodness of a model trajectory against one observed series."""

    n_overlap: int
    rms_error: float
    promotion_time_model: float | None
    promotion_time_trace: float | None
    promotion_time_difference: float | None  # model minus trace
    final_value_ratio: float | None  # model / trace at last overlapping time


def compare_model_to_trace(
    trace_times: np.ndarray,
    trace_values: np.ndarray,
    trajectory: VoteTrajectory,
    threshold: float | None = None,
) -> ComparisonReport:
    """RMS error on the overlapping time range, plus promotion timing.

    The model is linearly interpolated at the trace's time stamps.  The
    trace's promotion time, when a ``threshold`` is given, is the first
    stamp at which its value reaches the threshold.
    """
    tt = np.asarray(trace_times, dtype=float)
    tv = np.asarray(trace_values, dtype=float)
    mask = (tt >= trajectory.times[0]) & (tt <= trajectory.times[-1])
    if not np.any(mask):
        raise ValueError(
            f"no time overlap: trace spans [{tt.min()}, {tt.max()}], "
            f"model spans [{trajectory.times[0]}, {trajectory.times[-1]}]"
        )
    tt, tv = tt[mask], tv[mask]
    model_at = np.interp(tt, trajectory.times, np.asarray(trajectory.votes_m, float))
    rms = float(np.sqrt(np.mean((model_at - tv) ** 2)))

    promo_trace: float | None = None
    if threshold is not None:
        crossed = np.nonzero(np.asarray(trace_values, float) >= threshold)[0]
        if crossed.size:
            promo_trace = float(np.asarray(trace_times, float)[crossed[0]])
    promo_model = trajectory.promotion_time_Th
    difference = None
    if promo_model is not None and promo_trace is not None:
        difference = promo_model - promo_trace
    ratio = float(model_at[-1] / tv[-1]) if tv[-1] != 0 else None
    return ComparisonReport(
        n_overlap=int(tt.size),
        rms_error=rms,
        promotion_time_model=promo_model,
        promotion_time_trace=promo_trace,
        promotion_time_difference=difference,
        final_value_ratio=ratio,
    )


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
    """A 1-d float ndarray whose ``tolist()`` gives Python floats."""
    return (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and value.dtype.kind == "f"
        and value.dtype.itemsize <= 8
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


def _write_csv(stream, header: str, columns) -> None:
    """Write a table given by columns; rows stop at the shortest column."""
    rows = map(",".join, zip(*map(_cells, columns)))
    stream.write("\n".join(itertools.chain([header], rows)) + "\n")


_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


def _write_json(stream, value, pad: str = "\n") -> None:
    """Write what ``json.dumps(value, sort_keys=True, indent=2)`` gives for
    the plain-JSON copy of ``value``: dict keys become ``str(k)`` (a later
    key wins a collision), tuples and ndarrays become lists, numpy scalars
    Python numbers, and non-finite floats ``null``.  ``pad`` is the newline
    and indent of the current depth.  TypeError for any other type.
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
        if np.isfinite(value).all():
            text = _float_reprs(value)
        else:
            text = map(_json_float, value.tolist())
        write("[" + inner + ("," + inner).join(text) + pad + "]")
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
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(stream, item, inner)
            sep = "," + inner
        write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _write_summary(stream, doc: dict) -> None:
    _write_json(stream, doc)
    stream.write("\n")


def _write_outputs(out_dir: Path, outputs) -> None:
    """Write ``(name, render)`` outputs: each ``render(stream)`` writes its
    ``name.tmp``, and once all are written each is renamed into place.

    Any failure, in rendering too, removes every ``.tmp`` not yet renamed.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc}") from None
    pending = []  # (tmp, target) written but not yet renamed
    try:
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
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()


# --- command runners -------------------------------------------------------
#
# Each runner takes the parsed command line and returns (tables, results,
# extra): the CSV tables as (file name, header, columns), the ``results``
# list of ``summary.json`` and any further top-level keys of it.

def _run_model(args: argparse.Namespace, stem: str, plan):
    """Run a model at every sweep point; one ``{stem}*.csv`` table each.

    ``plan(cfg, args)`` validates one point and returns its resolved
    parameters and a closure computing (summary fields, CSV columns, JSON
    trajectory).  Every point is planned before any is computed, so an
    invalid point, or a sweep over a key the command does not read, fails
    the command before any work is done.  A point that overflows the model
    at run time is a config error naming the point.
    """
    cfg, sweeps = load_config(args.config), parse_sweeps(args.sweep)
    planned = [
        (overrides, *plan(point, args))
        for overrides, point in expand_sweeps(cfg, sweeps)
    ]
    read = planned[0][1]
    for section, key, _ in sweeps:
        if key not in read.get(section, {}):
            raise ConfigError(
                f"sweep {section}.{key}: "
                f"{args.kind.replace('-', ' ')} does not read it"
            )
        # only ``ensemble`` reads [ensemble], and only it has --seed
        if (section, key) == ("ensemble", "seed") and args.seed is not None:
            raise ConfigError("sweep ensemble.seed: --seed sets every point's seed")
    tables, results = [], []
    for overrides, params, compute in planned:
        try:
            fields, columns, trajectory = compute()
        except (ValueError, ArithmeticError) as exc:
            point = " ".join(f"{k}={v}" for k, v in overrides.items())
            raise ConfigError(f"{point or 'config'}: {exc}") from None
        entry = {"overrides": overrides, "params": params, **fields}
        if args.output_format == "csv":
            entry["file"] = f"{stem}{_suffix_for(overrides)}.csv"
            tables.append((entry["file"], ",".join(columns), list(columns.values())))
        else:
            entry["file"] = None
            entry["trajectory"] = trajectory
        results.append(entry)
    return tables, results, {}


def _plan_votes(cfg, args: argparse.Namespace):
    params, story, policy, run, doc = _story_records(cfg)

    def compute():
        trajectory = integrate_votes(story, params, policy, run.horizon_minutes)
        fields = {
            "promotion_time_Th": trajectory.promotion_time_Th,
            "final_votes": trajectory.final_votes,
            "saturated_at": saturation_time(trajectory),
        }
        columns = {"t": trajectory.times, "m": trajectory.votes_m}
        return fields, columns, columns

    return doc, compute


def _plan_rank(cfg, args: argparse.Namespace):
    params, user, run = (_record(cfg, section) for section in ("rank", "user", "run"))
    doc = {
        "rank": dataclasses.asdict(params),
        "user": dataclasses.asdict(user),
        "run": {
            "weeks": run.weeks,
            "rank_kappa": run.rank_kappa,
            "M_schedule": run.M_schedule,
        },
    }

    def compute():
        trajectory = integrate_rank(user, params, run.weeks, run.M_schedule)
        # None ("unranked") while F = 0
        proxies = [rank_proxy(f, run.rank_kappa) for f in trajectory.front_page_F]
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

    return doc, compute


def _plan_ensemble(cfg, args: argparse.Namespace):
    if args.seed is not None:
        cfg = {**cfg, "ensemble": {**cfg.get("ensemble", {}), "seed": args.seed}}
    params, story, policy, run, doc = _story_records(cfg)
    doc["ensemble"] = dataclasses.asdict(_record(cfg, "ensemble"))
    config = StochasticRunConfig(
        story, params, policy, run.horizon_minutes, **doc["ensemble"]
    )

    def compute():
        summary = ensemble(config)
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

    return doc, compute


def _record_table(name: str, records: list[dict]):
    """A CSV table with one row per record; the header is the record keys."""
    return name, ",".join(records[0]), list(zip(*(r.values() for r in records)))


def _per_id(args: argparse.Namespace, name: str, analyse, extra: dict):
    """Apply ``analyse(t, value)`` to each series of the input trace."""
    results = []
    for sid, (t, v) in ingest_traces(args.input).items():
        try:
            results.append({"id": sid, **dataclasses.asdict(analyse(t, v))})
        except (ValueError, ArithmeticError) as exc:
            raise InputError(f"id {sid!r}: {exc}") from None
    return [_record_table(name, results)], results, extra


def _run_fit(args: argparse.Namespace):
    """``fit linear`` and ``fit log``: one fit per id, its flags as keywords."""
    if args.kind == "fit-linear":
        fit, options = fit_linear, {"through_origin": args.through_origin}
    else:
        fit, options = fit_log, {"log_base": args.log_base}
    return _per_id(
        args,
        "fits.csv",
        lambda x, y: fit(np.column_stack([x, y]), **options),
        {"options": options},
    )


def _run_compare(args: argparse.Namespace):
    params, story, policy, run, doc = _story_records(load_config(args.config))
    try:
        trajectory = integrate_votes(story, params, policy, run.horizon_minutes)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"config: {exc}") from None
    threshold = promotion_threshold_for(policy, story)
    return _per_id(
        args,
        "compare.csv",
        lambda t, v: compare_model_to_trace(t, v, trajectory, threshold=threshold),
        {"params": doc},
    )


def _run_fit_success(args: argparse.Namespace):
    def cast(lineno: int, row: list[str]) -> tuple[float, float, float]:
        try:
            return float(row[1]), float(row[2]), float(row[3])
        except ValueError:
            raise InputError(
                f"{args.input}: line {lineno}: numeric fields required"
            ) from None

    triples = _read_rows(args.input, _USERS_HEADER, cast)
    try:
        binned = success_rate_series(
            triples, bins=args.bins, min_submissions=args.min_submissions
        )
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
    table = ("success_bins.csv", "bin_center_S,mean_success,stderr,count", columns)
    return [table], results, {
        "options": {"bins": args.bins, "min_submissions": args.min_submissions}
    }


def _run_significance(args: argparse.Namespace):
    def cast(lineno: int, row: list[str]) -> tuple[str, FriendVoteObservation]:
        try:
            return row[0].strip(), FriendVoteObservation(
                pool_N=int(row[1]),
                sample_n=int(row[2]),
                group_K=int(row[3]),
                overlap_k=int(row[4]),
            )
        except (ValueError, ParameterError) as exc:
            raise InputError(f"{args.input}: line {lineno}: {exc}") from None

    results = [
        {
            "id": sid,
            "exact_k": chance_probability(obs, mode="exact"),
            "tail_at_least_k": chance_probability(obs, mode="tail"),
        }
        for sid, obs in _read_rows(args.input, _OBS_HEADER, cast)
    ]
    extra = {
        f"mean_{key}": float(np.mean([r[key] for r in results]))
        for key in ("exact_k", "tail_at_least_k")
    }
    return [_record_table("significance.csv", results)], results, extra


# Command kind -> (help, help for the input CSV argument, the config flags it
# takes, runner).  A kind "GROUP-NAME" is the command ``GROUP NAME``.
_COMMANDS = {
    "simulate-votes": (
        "story vote trajectory (CSV t,m)", None, ("--config", "--sweep"),
        functools.partial(_run_model, stem="votes", plan=_plan_votes),
    ),
    "simulate-rank": (
        "weekly user rank model (CSV week,F,S,rank_proxy)", None,
        ("--config", "--sweep"),
        functools.partial(_run_model, stem="rank", plan=_plan_rank),
    ),
    "ensemble": (
        "stochastic vote-model ensemble", None, ("--config", "--sweep"),
        functools.partial(_run_model, stem="ensemble_mean", plan=_plan_ensemble),
    ),
    "fit-linear": (
        "y = slope*x + intercept per id", "trace CSV (id,t,value)", (), _run_fit
    ),
    "fit-log": (
        "y = alpha*log(x) + beta per id", "trace CSV (id,t,value), t >= 1", (),
        _run_fit,
    ),
    "fit-success": (
        "binned success rate vs. network size",
        f"users CSV ({','.join(_USERS_HEADER)})", (), _run_fit_success,
    ),
    "significance": (
        "friend-voting chance probabilities",
        f"observations CSV ({','.join(_OBS_HEADER)})", (), _run_significance,
    ),
    "compare": (
        "model trajectory vs. observed trace", "trace CSV (id,t,value)",
        ("--config",), _run_compare,
    ),
}


def run_scenario(args: argparse.Namespace) -> int:
    """Run a parsed command: compute every result, then write the outputs.

    Every output is streamed to its ``.tmp`` file and only then are all
    renamed into place, so a failure while computing or rendering leaves
    the output directory untouched.
    """
    # A float overflow or NaN in a model or a fit raises FloatingPointError,
    # which the runners report as bad config or input instead of writing it.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        tables, results, extra = _COMMANDS[args.kind][-1](args)
    doc = {
        "command": args.kind.replace("-", " "),
        "format": args.output_format,
        "results": results,
        "tool_version": __version__,
        **extra,
    }
    if "input" in args:
        doc["input"] = args.input.name
    outputs = []
    if args.output_format == "csv":
        outputs = [
            (name, functools.partial(_write_csv, header=header, columns=columns))
            for name, header, columns in tables
        ]
    outputs.append(("summary.json", functools.partial(_write_summary, doc=doc)))
    _write_outputs(args.out, outputs)
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

def _checked(cast, ok, bound: str):
    """An argparse ``type``: ``cast`` the text, then require ``ok(value)``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = cast.__name__  # argparse says "invalid int value: 'x'"
    return parse


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
    groups = {"": sub}
    for group, help_text, metavar in (
        ("simulate", "deterministic model runs", "WHAT"),
        ("fit", "least-squares fits over CSV data", "KIND"),
    ):
        groups[group] = sub.add_parser(group, help=help_text).add_subparsers(
            dest="target", required=True, metavar=metavar
        )
    cmd = {}
    for kind, (help_text, input_help, config_flags, _) in _COMMANDS.items():
        group, _, name = kind.rpartition("-")
        cmd[kind] = groups[group].add_parser(name, help=help_text)
        cmd[kind].set_defaults(kind=kind)
        if input_help:
            cmd[kind].add_argument("input", type=Path, help=input_help)
        if "--config" in config_flags:
            cmd[kind].add_argument(
                "--config",
                type=Path,
                required=True,
                metavar="PATH",
                help="INI scenario config (sections [vote] [story] [policy] "
                "[rank] [user] [ensemble] [run])",
            )
        if "--sweep" in config_flags:
            cmd[kind].add_argument(
                "--sweep",
                action="append",
                default=[],
                metavar="SECTION.KEY=V1,V2,...",
                help="sweep a config key over values; repeatable (cross product)",
            )
        cmd[kind].add_argument(
            "--out",
            type=Path,
            default=Path("."),
            metavar="DIR",
            help="output directory (default: current directory)",
        )
        cmd[kind].add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            dest="output_format",
            help="csv: tables as CSV files plus summary.json; "
            "json: everything embedded in summary.json",
        )

    cmd["ensemble"].add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the [ensemble] seed",
    )
    cmd["fit-linear"].add_argument(
        "--through-origin", action="store_true", help="pin the intercept at 0"
    )
    cmd["fit-log"].add_argument(
        "--log-base",
        type=_checked(float, lambda v: math.isfinite(v) and v > 0 and v != 1,
                      "positive and != 1"),
        default=math.e,
        help="logarithm base (default e)",
    )
    cmd["fit-success"].add_argument(
        "--bins",
        type=_checked(int, lambda v: v >= 1, ">= 1"),
        default=10,
        help="equal-width bin count (default 10)",
    )
    cmd["fit-success"].add_argument(
        "--min-submissions",
        type=_checked(int, lambda v: v >= 1, ">= 1"),
        default=50,
        help="drop users below this many submissions (default 50)",
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
