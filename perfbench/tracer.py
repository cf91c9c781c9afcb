"""Traced in-process run of a workload's commands, and its per-layer metrics.

Run as a child process::

    python perfbench/tracer.py SPEC.json RESULT.json

``SPEC.json`` holds ``{"commands": [argv, ...]}``.  The child times
``import frontpage.cli``, wraps the program's public functions at every
module that looks them up, runs each argv through ``frontpage.cli.main``
in turn and writes the recorded spans to ``RESULT.json``.  The parent
turns them into metrics with :func:`layer_metrics`.

A span is ``[name, command, parent, start, end, work, failed, leaves]``.
Hot leaves (``visibility``, ``binomial_pmf``, ``step_week``) get no span
of their own: each call adds to a ``[calls, seconds, zero_rate, errors]``
counter on the innermost open span.  A span's self time is its duration
minus its child spans' durations and its leaves' time, so per layer the
self times add up to the traced wall time apart from the time spent
outside every span, which is reported as ``trace.untraced_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, metric name, hot leaf).  The metric name's first
# part is the layer: the module the wrapped function belongs to.
TARGETS = (
    ("frontpage.cli", "load_config", "cli.load_config", False),
    ("frontpage.cli", "expand_sweeps", "cli.expand_sweeps", False),
    ("frontpage.cli", "ingest_traces", "cli.ingest_traces", False),
    ("frontpage.cli", "run_scenario", "cli.run_scenario", False),
    ("frontpage.cli", "record_from_mapping", "core.record_from_mapping", False),
    ("frontpage.cli", "integrate_votes", "vote_dynamics.integrate_votes", False),
    ("frontpage.cli", "ensemble", "stochastic_sim.ensemble", False),
    ("frontpage.cli", "integrate_rank", "rank_dynamics.integrate_rank", False),
    ("frontpage.cli", "fit_linear", "fitting.fit_linear", False),
    ("frontpage.cli", "fit_log", "fitting.fit_log", False),
    ("frontpage.cli", "success_rate_series", "fitting.success_rate_series", False),
    ("frontpage.cli", "chance_probability", "fitting.chance_probability", False),
    ("frontpage.stochastic_sim", "simulate_once", "stochastic_sim.simulate_once", False),
    ("frontpage.stochastic_sim", "integrate_votes", "vote_dynamics.integrate_votes", False),
    ("frontpage.stochastic_sim", "visibility", "vote_dynamics.visibility", True),
    ("frontpage.vote_dynamics", "visibility", "vote_dynamics.visibility", True),
    ("frontpage.fitting", "fit_linear", "fitting.fit_linear", False),
    ("frontpage.fitting", "binomial_pmf", "fitting.binomial_pmf", True),
    ("frontpage.rank_dynamics", "step_week", "rank_dynamics.step_week", True),
)

# The root span around each ``frontpage.cli.main(argv)`` call.
MAIN = "cli.main"

LAYERS = ("cli", "core", "vote_dynamics", "stochastic_sim", "rank_dynamics", "fitting")


def _work(name: str, result) -> float:
    """Units of work a call did, read from its result where that means
    something; 0 when the result has another shape."""
    try:
        if name == "vote_dynamics.integrate_votes":
            return float(len(result.times) - 1)
        if name == "stochastic_sim.ensemble":
            return float(result.n_runs * (len(result.times) - 1))
        if name == "cli.ingest_traces":
            return float(len(result))
    except (AttributeError, TypeError):
        pass
    return 0.0


class Tracer:
    """Span recorder; spans stay in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.command = -1
        self.absent: list = []

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        span = [len(self.spans), name, self.command, parent,
                time.perf_counter(), 0.0, 0.0, False, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list, result, failed: bool) -> None:
        span[5] = time.perf_counter()
        span[6] = 0.0 if failed else _work(span[1], result)
        span[7] = failed
        self.stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, None, True)
                raise
            self.close(span, result, False)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            counter = stack[-1][8].get(name)
            if counter is None:
                counter = stack[-1][8][name] = [0, 0.0, 0, 0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counter[3] += 1
                raise
            finally:
                counter[1] += clock() - start
                counter[0] += 1
            if getattr(result, "total", None) == 0.0:
                counter[2] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, name, hot in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, (self.leaf if hot else self.spanned)(name, fn))

    def run(self, main, commands: list) -> dict:
        codes = []
        start = time.perf_counter()
        for i, argv in enumerate(commands):
            self.command = i
            span = self.open(MAIN)
            code = 1
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - report, keep going
                print(f"command {i} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            self.close(span, None, code != 0)
            codes.append(code)
        return {"wall_s": time.perf_counter() - start, "exit_codes": codes}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from a traced run's spans (see module docstring)."""
    child_time = [0.0] * len(spans)
    for sid, name, cmd, parent, start, end, work, failed, leaves in spans:
        if parent >= 0:
            child_time[parent] += end - start

    stats: dict = {}

    def stat(name: str) -> dict:
        return stats.setdefault(name, {"calls": 0, "self": 0.0, "incl": 0.0,
                                       "work": 0.0, "zero": 0, "errors": 0})

    for sid, name, cmd, parent, start, end, work, failed, leaves in spans:
        s = stat(name)
        leaf_time = sum(c[1] for c in leaves.values())
        s["calls"] += 1
        s["incl"] += end - start
        s["self"] += end - start - child_time[sid] - leaf_time
        s["work"] += work
        s["errors"] += int(failed)
        for leaf_name, (calls, secs, zero, errors) in leaves.items():
            ls = stat(leaf_name)
            ls["calls"] += calls
            ls["self"] += secs
            ls["incl"] += secs
            ls["zero"] += zero
            ls["errors"] += errors

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def rate(name: str) -> float:
        incl = get(name, "incl")
        return get(name, "work") / incl if incl > 0 else 0.0

    m = {
        "cli.main.self_s": get(MAIN, "self"),
        "cli.load_config.s": get("cli.load_config", "self"),
        "cli.expand_sweeps.s": get("cli.expand_sweeps", "self"),
        "cli.run_scenario.self_s": get("cli.run_scenario", "self"),
        "cli.ingest_traces.s": get("cli.ingest_traces", "self"),
        "cli.ingest_traces.rows_per_s": rate("cli.ingest_traces"),
        "core.record_from_mapping.calls": get("core.record_from_mapping", "calls"),
        "core.record_from_mapping.s": get("core.record_from_mapping", "self"),
        "vote_dynamics.integrate_votes.calls": get("vote_dynamics.integrate_votes", "calls"),
        "vote_dynamics.integrate_votes.s": get("vote_dynamics.integrate_votes", "self"),
        "vote_dynamics.integrate_votes.steps_per_s": rate("vote_dynamics.integrate_votes"),
        "vote_dynamics.visibility.calls": get("vote_dynamics.visibility", "calls"),
        "vote_dynamics.visibility.s": get("vote_dynamics.visibility", "self"),
        "vote_dynamics.visibility.zero_rate_frac": (
            get("vote_dynamics.visibility", "zero") / get("vote_dynamics.visibility", "calls")
            if get("vote_dynamics.visibility", "calls") else 0.0
        ),
        "stochastic_sim.ensemble.calls": get("stochastic_sim.ensemble", "calls"),
        "stochastic_sim.ensemble.s": get("stochastic_sim.ensemble", "self"),
        "stochastic_sim.ensemble.run_steps_per_s": rate("stochastic_sim.ensemble"),
        "stochastic_sim.simulate_once.calls": get("stochastic_sim.simulate_once", "calls"),
        "stochastic_sim.simulate_once.s": get("stochastic_sim.simulate_once", "self"),
        "rank_dynamics.integrate_rank.calls": get("rank_dynamics.integrate_rank", "calls"),
        "rank_dynamics.integrate_rank.s": get("rank_dynamics.integrate_rank", "self"),
        "rank_dynamics.step_week.calls": get("rank_dynamics.step_week", "calls"),
        "rank_dynamics.step_week.s": get("rank_dynamics.step_week", "self"),
        "fitting.fit_linear.calls": get("fitting.fit_linear", "calls"),
        "fitting.fit_linear.s": get("fitting.fit_linear", "self"),
        "fitting.fit_log.s": get("fitting.fit_log", "self"),
        "fitting.success_rate_series.s": get("fitting.success_rate_series", "self"),
        "fitting.chance_probability.calls": get("fitting.chance_probability", "calls"),
        "fitting.chance_probability.s": get("fitting.chance_probability", "self"),
        "fitting.binomial_pmf.calls": get("fitting.binomial_pmf", "calls"),
        "fitting.binomial_pmf.s": get("fitting.binomial_pmf", "self"),
        "fitting.binomial_pmf.per_query": (
            get("fitting.binomial_pmf", "calls") / get("fitting.chance_probability", "calls")
            if get("fitting.chance_probability", "calls") else 0.0
        ),
    }
    for layer in LAYERS:
        names = [n for n in stats if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum(stats[n]["self"] for n in names)
        m[f"{layer}.errors"] = sum(stats[n]["errors"] for n in names)
    return m


def _main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    start = time.perf_counter()
    import frontpage.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    run = tracer.run(frontpage.cli.main, commands)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "absent": tracer.absent,
                   "spans": tracer.spans, **run}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main(*sys.argv[1:3]))
