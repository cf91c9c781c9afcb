"""Workload definitions: seeded inputs, command lists and output checks.

Each workload is a list of :class:`Command`.  A command is one
``python -m frontpage ...`` invocation with a fresh ``--out`` directory,
the amount of work it stands for, and a check that reads its outputs by
header or key name and compares them with references computed here,
independently of the program.  No byte-golden files are used, so a change
to the ensemble random stream or an added output column does not fail a
check; only a wrong value does.

Why each workload exists (the same reasons are recorded in
``BENCHMARK.json``):

* ``ensemble`` -- stochastic ensembles.  ``stochastic_sim`` does over 90%
  of the work; a near-threshold story makes runs promote at different
  times, and a queue-only story never promotes.
* ``sweep`` -- deterministic commands only.  ``stochastic_sim`` does no
  work; time goes to the mean-field integrator, rendering and writing,
  and per-point config validation.
* ``analysis`` -- fits and significance tests on generated CSVs.  Time
  goes to CSV parsing and the binomial tail sums; the model layers do
  almost nothing, so a simulation speed-up must leave it unchanged.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble", "sweep", "analysis")

# What one unit of ``work_per_s`` counts, per workload.
WORK_UNITS = {
    "ensemble": "run-minutes (runs x steps)",
    "sweep": "scenario results (grid points)",
    "analysis": "input CSV data rows",
}

# Defaults of the vote model's site constants, used by the closed-form
# reference when a config leaves them out.
_VOTE_DEFAULTS = {"c": 0.3, "c_u": 0.3, "visit_rate_N": 10.0, "k_u": 0.06}

# Promotion threshold of configs/votes_baseline.ini, used by `compare`.
_BASELINE_H = 40.0

Check = Callable[[Path, dict], list]


@dataclass(frozen=True)
class Command:
    """One child invocation: ``argv`` gets ``--out <dir>`` appended."""

    label: str
    argv: tuple
    units: float
    check: Check


# --- small helpers ----------------------------------------------------------

def _read_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), delimiters=("=",)
    )
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list, name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def _closed_form(r: float, vote: dict) -> float:
    """Final votes of a queue-only story: 1 - r*c*N / (k_u * ln c_u)."""
    p = {k: float(vote.get(k, d)) for k, d in _VOTE_DEFAULTS.items()}
    return 1.0 - r * p["c"] * p["visit_rate_N"] / (p["k_u"] * math.log(p["c_u"]))


def _fmt(value: float) -> str:
    return repr(float(value))


def _trajectory_errors(label: str, t, m, n_steps: int) -> list:
    t, m = np.asarray(t, float), np.asarray(m, float)
    if t.size != n_steps + 1:
        return [f"{label}: {t.size} time points, expected {n_steps + 1}"]
    errors = []
    if not np.array_equal(t, np.arange(n_steps + 1, dtype=float)):
        errors.append(f"{label}: time column is not 0..{n_steps}")
    if m[0] != 1.0:
        errors.append(f"{label}: first vote count {m[0]}, expected 1")
    if np.any(np.diff(m) < 0):
        errors.append(f"{label}: vote counts decrease")
    return errors


def _chain(*checks: Check) -> Check:
    return lambda out, outs: [e for c in checks for e in c(out, outs)]


def _guarded(check: Check) -> Check:
    """Turn a crash while reading outputs (missing file, bad number) into a
    check failure instead of a benchmark crash."""

    def run(out: Path, outs: dict) -> list:
        try:
            return check(out, outs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{out.name}: unreadable output: {type(exc).__name__}: {exc}"]

    return run


# --- ensemble ---------------------------------------------------------------

def _ensemble_result_errors(label: str, res: dict, t, m, n_steps: int) -> list:
    errors = _trajectory_errors(label, t, m, n_steps)
    p = res["promotion_probability"]
    if not 0.0 <= p <= 1.0:
        errors.append(f"{label}: promotion_probability {p} outside [0, 1]")
    quantiles = [v for _, v in sorted(res["promotion_time_quantiles"].items(),
                                      key=lambda kv: float(kv[0]))]
    if np.any(np.diff(quantiles) < 0):
        errors.append(f"{label}: promotion-time quantiles decrease")
    if (p > 0) != bool(quantiles):
        errors.append(f"{label}: quantiles present iff some run promoted")
    if not _close(res["mean_final_votes"], float(m[-1]), 1e-12):
        errors.append(f"{label}: mean_final_votes != last mean trajectory value")
    return errors


def _ensemble_check(label: str, n_steps: int, closed: float | None) -> Check:
    """``closed`` is the closed-form final count of a queue-only story."""

    def check(out: Path, outs: dict) -> list:
        res = _summary(out)["results"][0]
        if res["file"] is None:
            t, m = res["trajectory"]["t"], res["trajectory"]["mean_m"]
        else:
            rows = _read_csv(out / res["file"])
            t, m = _column(rows, "t"), _column(rows, "m")
        errors = _ensemble_result_errors(label, res, t, m, n_steps)
        if closed is not None:
            runs = res["params"]["ensemble"]["runs"]
            se = res["std_final_votes"] / math.sqrt(runs)
            if res["promotion_probability"] != 0.0:
                errors.append(f"{label}: a queue-only story promoted")
            if abs(res["mean_final_votes"] - closed) > 5.0 * se:
                errors.append(
                    f"{label}: mean final votes {res['mean_final_votes']} not "
                    f"within 5 SE ({se:.4g}) of closed form {closed}"
                )
        return errors

    return _guarded(check)


def build_ensemble(root: Path, work: Path, rng: np.random.Generator) -> list:
    configs = root / "configs"
    committed = configs / "ensemble_discrete_voters.ini"
    base = _read_ini(committed)
    baseline_vote = _read_ini(configs / "votes_baseline.ini")["vote"]
    horizon = base["run"]["horizon_minutes"]
    n_steps = int(float(horizon))
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]

    # All four channels on at an appeal where the mean-field story just
    # clears the threshold late in the day, so runs promote at different
    # times (or not at all).
    near_r = round(float(rng.uniform(0.085, 0.095)), 4)
    near = _write_ini(work / "ensemble_near_threshold.ini", {
        "vote": baseline_vote,
        "story": {"interestingness_r": near_r, "submitter_network_S": 80},
        "policy": {"kind": "fixed", "h": 40},
        "ensemble": {"runs": 100, "seed": 0, "arrival_mode": "poisson"},
        "run": {"horizon_minutes": horizon},
    })
    # Queue channel only and an unreachable bar: never promotes, and the
    # mean final count has a closed form.
    queue_r = round(float(rng.uniform(0.2, 0.9)), 4)
    queue_vote = {"sm_alpha": 0.0, "sm_beta": 0.0}
    queue = _write_ini(work / "ensemble_queue_only.ini", {
        "vote": queue_vote,
        "story": {"interestingness_r": queue_r, "submitter_network_S": 0},
        "policy": {"kind": "fixed", "h": 1000000},
        "ensemble": {"runs": 100, "seed": 0, "arrival_mode": "poisson"},
        "run": {"horizon_minutes": horizon},
    })

    def runs(path: Path) -> int:
        return int(_read_ini(path)["ensemble"]["runs"])

    specs = [
        ("committed", committed, (), seeds[0], None),
        ("near_threshold_json", near, ("--format", "json"), seeds[1], None),
        ("queue_only", queue, (), seeds[2], _closed_form(queue_r, queue_vote)),
    ]
    return [
        Command(
            label=label,
            argv=("ensemble", "--config", str(path), "--seed", str(seed), *extra),
            units=float(runs(path) * n_steps),
            check=_ensemble_check(label, n_steps, closed),
        )
        for label, path, extra, seed, closed in specs
    ]


# --- sweep ------------------------------------------------------------------

def _votes_sweep_check(label: str, vote: dict, n_steps: int) -> Check:
    def check(out: Path, outs: dict) -> list:
        doc = _summary(out)
        errors = []
        for res in doc["results"]:
            ov = res["overrides"]
            name = f"{label}[{','.join(f'{k}={v}' for k, v in ov.items())}]"
            if res["file"] is None:
                t, m = res["trajectory"]["t"], res["trajectory"]["m"]
            else:
                rows = _read_csv(out / res["file"])
                t, m = _column(rows, "t"), _column(rows, "m")
            errors += _trajectory_errors(name, t, m, n_steps)
            if res["final_votes"] != float(m[-1]):
                errors.append(f"{name}: final_votes != last trajectory value")
            story = res["params"]["story"]
            if story["submitter_network_S"] == 0:
                r = story["interestingness_r"]
                closed = _closed_form(r, vote)
                if res["promotion_time_Th"] is not None:
                    errors.append(f"{name}: an S = 0 story promoted")
                if abs(float(m[-1]) - closed) > 0.005 * closed:
                    errors.append(
                        f"{name}: final m {m[-1]} not within 0.5% of "
                        f"closed form {closed}"
                    )
        return errors

    return _guarded(check)


def _formats_agree_check(csv_label: str) -> Check:
    """The JSON-format sweep embeds the same trajectories as the CSV one."""

    def check(out: Path, outs: dict) -> list:
        csv_out = outs[csv_label]
        by_key = {
            json.dumps(r["overrides"], sort_keys=True): r
            for r in _summary(csv_out)["results"]
        }
        results = _summary(out)["results"]
        errors = []
        for res in results:
            ref = by_key.get(json.dumps(res["overrides"], sort_keys=True))
            if ref is None:
                errors.append(f"json sweep point {res['overrides']} missing in csv")
                continue
            m = _column(_read_csv(csv_out / ref["file"]), "m")
            if not np.array_equal(np.asarray(res["trajectory"]["m"], float), m):
                errors.append(f"json sweep point {res['overrides']} != csv")
        if len(by_key) != len(results):
            errors.append("csv and json sweeps have different grids")
        return errors

    return check


def _bytes_equal_check(label: str, ref_label: str, name: str, ref_name: str) -> Check:
    def check(out: Path, outs: dict) -> list:
        mine = (out / name).read_bytes()
        ref = (outs[ref_label] / ref_name).read_bytes()
        return [] if mine == ref else [
            f"{label}: {name} differs from {ref_label}'s {ref_name}"
        ]

    return _guarded(check)


def _rank_check(label: str, kappa: float, weeks: int) -> Check:
    def check(out: Path, outs: dict) -> list:
        errors = []
        for res in _summary(out)["results"]:
            name = f"{label}[{res['overrides']}]"
            rows = _read_csv(out / res["file"])
            if len(rows) != weeks + 1:
                errors.append(f"{name}: {len(rows)} rows, expected {weeks + 1}")
                continue
            week, f, s = (_column(rows, c) for c in ("week", "F", "S"))
            if not np.array_equal(week, np.arange(weeks + 1, dtype=float)):
                errors.append(f"{name}: week column is not 0..{weeks}")
            if np.any(np.diff(f) < 0) or np.any(np.diff(s) < 0):
                errors.append(f"{name}: F or S decreases")
            for row, fv in zip(rows, f):
                proxy = row["rank_proxy"]
                if fv == 0.0:
                    if proxy != "":
                        errors.append(f"{name}: rank_proxy {proxy} with F = 0")
                elif not _close(float(proxy), kappa / fv, 1e-12):
                    errors.append(f"{name}: rank_proxy {proxy} != kappa/F")
                    break
        return errors

    return _guarded(check)


def _sweep_arg(key: str, values) -> tuple:
    return ("--sweep", f"{key}=" + ",".join(values))


def build_sweep(root: Path, work: Path, rng: np.random.Generator) -> list:
    configs = root / "configs"
    sweep_ini = configs / "votes_network_sweep.ini"
    baseline_ini = configs / "votes_baseline.ini"
    rank_ini = configs / "rank_active_user.ini"
    sweep_cfg = _read_ini(sweep_ini)
    n_steps = int(float(sweep_cfg["run"]["horizon_minutes"]))
    baseline_cfg = _read_ini(baseline_ini)
    rank_cfg = _read_ini(rank_ini)

    # 9 appeals x 6 network sizes = 54 points.  r stays <= 0.9 so that an
    # S = 0 story saturates below the threshold of 40 and never promotes.
    r_values = sorted(rng.choice(np.arange(50, 901), size=9, replace=False) / 1000)
    s_values = [0] + sorted(int(s) for s in rng.choice(np.arange(1, 501), 5, False))
    grid = (
        *_sweep_arg("story.interestingness_r", (f"{r:g}" for r in r_values)),
        *_sweep_arg("story.submitter_network_S", (str(s) for s in s_values)),
    )
    # 8 x 8 rank grid.  Some points push c_success * S above 1 (the
    # success rate is unclipped); the checks neither avoid nor assert that.
    rank_s = sorted(int(s) for s in rng.choice(np.arange(0, 801), 8, False))
    rank_c = sorted(rng.choice(np.arange(5, 51), 8, False) / 10000)
    rank_grid = (
        *_sweep_arg("user.network_S", (str(s) for s in rank_s)),
        *_sweep_arg("rank.c_success", (f"{c:g}" for c in rank_c)),
    )
    mean_ini = _write_ini(work / "ensemble_mean_mode.ini", {
        **baseline_cfg,
        "ensemble": {"runs": 1, "seed": int(rng.integers(0, 2**31 - 1)),
                     "arrival_mode": "mean"},
    })
    points = float(len(r_values) * len(s_values))
    vote = sweep_cfg.get("vote", {})
    return [
        Command("votes_grid_csv",
                ("simulate", "votes", "--config", str(sweep_ini), *grid),
                points, _votes_sweep_check("votes_grid_csv", vote, n_steps)),
        Command("votes_grid_json",
                ("simulate", "votes", "--config", str(sweep_ini), *grid,
                 "--format", "json"),
                points, _chain(_votes_sweep_check("votes_grid_json", vote, n_steps),
                               _guarded(_formats_agree_check("votes_grid_csv")))),
        Command("votes_baseline",
                ("simulate", "votes", "--config", str(baseline_ini)),
                1.0, _votes_sweep_check("votes_baseline", baseline_cfg["vote"],
                                        int(float(baseline_cfg["run"]["horizon_minutes"])))),
        Command("rank_grid",
                ("simulate", "rank", "--config", str(rank_ini), *rank_grid),
                float(len(rank_s) * len(rank_c)),
                _rank_check("rank_grid", float(rank_cfg["run"]["rank_kappa"]),
                            int(rank_cfg["run"]["weeks"]))),
        Command("ensemble_mean_mode",
                ("ensemble", "--config", str(mean_ini)),
                1.0, _bytes_equal_check("ensemble_mean_mode", "votes_baseline",
                                        "ensemble_mean.csv", "votes.csv")),
    ]



# --- analysis ---------------------------------------------------------------

def _make_traces(rng: np.random.Generator, n_ids: int = 300) -> dict:
    """Per id: sorted times in [1, 1440] and values following a planted law,
    ``alpha*ln(t) + beta`` for about half the ids and a line for the rest."""
    series = {}
    for i in range(n_ids):
        n = int(rng.integers(150, 251))
        t = np.sort(rng.uniform(1.0, 1440.0, n))
        noise = rng.normal(0.0, 1.0, n)
        if rng.random() < 0.5:
            y = rng.uniform(5, 30) * np.log(t) + rng.uniform(1, 20) + noise
        else:
            y = rng.uniform(0.01, 0.1) * t + rng.uniform(1, 20) + noise
        series[f"s{i:03d}"] = (t, y)
    return series


def _make_users(rng: np.random.Generator, n: int = 10_000) -> list:
    subs = rng.integers(1, 400, n)
    net = rng.integers(0, 1000, n)
    front = rng.binomial(subs, np.minimum(1.0, 0.01 + 0.0004 * net))
    return [(f"u{i:04d}", int(a), int(b), int(c))
            for i, (a, b, c) in enumerate(zip(subs, front, net))]


def _make_observations(rng: np.random.Generator, n_small: int = 90,
                       n_large: int = 210) -> list:
    """Friend-vote samples; overlaps sit near their expectation so every
    probability is well inside double range.  The first ``n_small`` have
    sample sizes <= 200 and are checked against exact rationals."""
    sizes = np.concatenate([
        rng.integers(20, 201, n_small),
        np.round(np.exp(rng.uniform(math.log(201), math.log(10_000), n_large))),
    ]).astype(int)
    obs = []
    for i, n in enumerate(sizes):
        pool = int(rng.integers(20_000, 50_001))
        group = int(pool * rng.uniform(0.01, 0.2))
        p = group / pool
        k = round(n * p + rng.normal(0.5, 1.0) * math.sqrt(n * p * (1 - p)))
        obs.append((f"o{i:03d}", pool, int(n), group, int(min(max(k, 0), n, group))))
    return obs


def _exact_pmf_tail(pool: int, n: int, group: int, k: int) -> tuple:
    """P(X = k) and P(X >= k) for X ~ Binomial(n, group/pool), exactly."""
    rest = pool - group
    terms = [math.comb(n, j) * group**j * rest ** (n - j) for j in range(k, n + 1)]
    denom = pool**n
    return float(Fraction(terms[0], denom)), float(Fraction(sum(terms), denom))


def _polyfit_check(label: str, series: dict, log: bool) -> Check:
    cols = ("alpha", "beta") if log else ("slope", "intercept")

    def check(out: Path, outs: dict) -> list:
        rows = _read_csv(out / "fits.csv")
        errors = []
        if [r["id"] for r in rows] != list(series):
            return [f"{label}: fits.csv ids differ from the input's"]
        for row in rows:
            t, y = series[row["id"]]
            x = np.log(t) if log else t
            ref = np.polyfit(x, y, 1)
            floor = 1e-6 * float(np.abs(y).max())
            for col, want in zip(cols, ref):
                if not _close(float(row[col]), float(want), 1e-9, floor):
                    errors.append(f"{label} {row['id']}: {col} {row[col]} != "
                                  f"polyfit {want!r}")
            if int(row["n_points"]) != t.size:
                errors.append(f"{label} {row['id']}: n_points {row['n_points']}")
        return errors

    return _guarded(check)


def _compare_check(series: dict) -> Check:
    def check(out: Path, outs: dict) -> list:
        rows = _read_csv(out / "compare.csv")
        if [r["id"] for r in rows] != list(series):
            return ["compare: compare.csv ids differ from the input's"]
        errors = []
        for row in rows:
            t, y = series[row["id"]]
            crossed = np.nonzero(y >= _BASELINE_H)[0]
            want = _fmt(t[crossed[0]]) if crossed.size else ""
            if row["promotion_time_trace"] != want:
                errors.append(f"compare {row['id']}: trace promotion time "
                              f"{row['promotion_time_trace']!r}, expected {want!r}")
            if int(row["n_overlap"]) != t.size:
                errors.append(f"compare {row['id']}: n_overlap {row['n_overlap']}")
            rms = float(row["rms_error"])
            if not (math.isfinite(rms) and rms >= 0):
                errors.append(f"compare {row['id']}: rms_error {rms}")
        return errors

    return _guarded(check)


def _success_check(users: list, min_submissions: int = 50) -> Check:
    def check(out: Path, outs: dict) -> list:
        res = _summary(out)["results"][0]
        rows = _read_csv(out / "success_bins.csv")
        kept = sum(1 for _, s, _, _ in users if s >= min_submissions)
        errors = []
        if res["n_users_total"] != len(users) or res["n_users_kept"] != kept:
            errors.append(f"fit_success: user counts {res['n_users_total']}/"
                          f"{res['n_users_kept']}, expected {len(users)}/{kept}")
        if sum(int(r["count"]) for r in rows) != kept:
            errors.append("fit_success: bin counts do not add up to kept users")
        means = _column(rows, "mean_success")
        if np.any(means < 0) or np.any(means > 1):
            errors.append("fit_success: a mean success rate outside [0, 1]")
        ref = np.polyfit(_column(rows, "bin_center_S"), means, 1)
        for col, want in zip(("slope", "intercept"), ref):
            if not _close(res["fit"][col], float(want), 1e-9, 1e-9):
                errors.append(f"fit_success: {col} {res['fit'][col]} != polyfit {want!r}")
        return errors

    return _guarded(check)


def _significance_check(obs: list) -> Check:
    def check(out: Path, outs: dict) -> list:
        rows = _read_csv(out / "significance.csv")
        if [r["id"] for r in rows] != [o[0] for o in obs]:
            return ["significance: row ids differ from the input's"]
        errors = []
        for row, (oid, pool, n, group, k) in zip(rows, obs):
            exact, tail = float(row["exact_k"]), float(row["tail_at_least_k"])
            if not 0.0 <= exact <= tail + 1e-12 <= 1.0 + 1e-12:
                errors.append(f"significance {oid}: need 0 <= exact <= tail <= 1, "
                              f"got {exact}, {tail}")
            if n <= 200:
                want_exact, want_tail = _exact_pmf_tail(pool, n, group, k)
                if not (_close(exact, want_exact, 1e-9)
                        and _close(tail, want_tail, 1e-9)):
                    errors.append(f"significance {oid}: ({exact}, {tail}) != exact "
                                  f"({want_exact!r}, {want_tail!r})")
        return errors

    return _guarded(check)


def build_analysis(root: Path, work: Path, rng: np.random.Generator) -> list:
    series = _make_traces(rng)
    trace = work / "trace.csv"
    trace.write_text("id,t,value\n" + "".join(
        f"{sid},{_fmt(a)},{_fmt(b)}\n"
        for sid, (t, y) in series.items() for a, b in zip(t, y)
    ), encoding="utf-8")
    users = _make_users(rng)
    users_csv = work / "users.csv"
    users_csv.write_text("id,submissions,front_page_F,network_S\n" + "".join(
        f"{u},{s},{f},{net}\n" for u, s, f, net in users), encoding="utf-8")
    obs = _make_observations(rng)
    obs_csv = work / "observations.csv"
    obs_csv.write_text("id,pool_N,sample_n,group_K,overlap_k\n" + "".join(
        ",".join(map(str, o)) + "\n" for o in obs), encoding="utf-8")

    n_trace = float(sum(t.size for t, _ in series.values()))
    baseline = root / "configs" / "votes_baseline.ini"
    return [
        Command("fit_linear", ("fit", "linear", str(trace)), n_trace,
                _polyfit_check("fit_linear", series, log=False)),
        Command("fit_log", ("fit", "log", str(trace)), n_trace,
                _polyfit_check("fit_log", series, log=True)),
        Command("compare", ("compare", str(trace), "--config", str(baseline)),
                n_trace, _compare_check(series)),
        Command("fit_success", ("fit", "success", str(users_csv)),
                float(len(users)), _success_check(users)),
        Command("significance", ("significance", str(obs_csv)),
                float(len(obs)), _significance_check(obs)),
    ]


_MAKERS = {
    "ensemble": build_ensemble,
    "sweep": build_sweep,
    "analysis": build_analysis,
}


def build(name: str, root: Path, work: Path, seed: int) -> list:
    """The workload's commands, with every input generated from ``seed``."""
    return _MAKERS[name](root, work, np.random.default_rng(seed))
