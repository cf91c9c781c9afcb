"""End-to-end benchmark of the ``frontpage`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ensemble,sweep,analysis} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: the commands of
``workloads.py`` run one at a time, each as a fresh ``python -m frontpage``
child of this single process, so at most one core runs the program while
the other is left to this process and the machine.  The command sequence is
repeated until ``--seconds`` would be exceeded by one more pass (at least
one pass runs).  Every command's outputs are checked; a non-zero exit or a
failed check counts as a failed command.

``--trace 0`` reports the end-to-end metrics (medians over passes; see
``untraced``):
``wall_s``, ``work_per_s``, ``setup_s`` and ``peak_rss_mb``; ``failed_frac``
is printed on the report line and is ``failed / attempted`` of the result.
``--trace 1`` runs one untraced pass, then the same commands in one
traced process (``tracer.py``), and reports the per-layer metrics.

Each child is reaped with ``os.wait4`` so its peak RSS and CPU time come
from its own rusage.  All inputs and outputs live in a temporary directory
under ``.perfbench_tmp/`` in the checkout, removed at exit.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ``--version`` children per run; their median is ``setup_s``.  One more
# runs first, untimed, so that bytecode caches exist before timing.
SETUP_PROBES = 7
# Every child is killed once the run has lasted this long, so that the
# benchmark ends within its 180 s limit even if the program hangs.
DEADLINE_S = 160.0
LIMITS = ("shared machine; wall-clock timing; no CPU pinning; "
          "no page-cache dropping")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "limits": LIMITS}


class Runner:
    """Runs children one at a time through ``spawner.py`` (see there why)."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.logs = work / "logs"
        self.logs.mkdir()
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list) -> dict:
        """Run ``python <argv>``; wall time is from spawn to reaped exit."""
        out, err = self.logs / "stdout", self.logs / "stderr"
        request = {"argv": [sys.executable, *argv], "cwd": str(ROOT),
                   "env": self.env, "stdout": str(out), "stderr": str(err),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        child = json.loads(reply)
        child["rss_mb"] = child.pop("rss_kb") / 1024.0  # ru_maxrss is in KiB
        child["stdout"] = out.read_text(errors="replace")
        child["stderr"] = err.read_text(errors="replace")
        return child

    def stop(self) -> None:
        """End the spawner; it kills and reaps a child still running."""
        if self.spawner.poll() is None:
            self.spawner.terminate()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        for pipe in (self.spawner.stdin, self.spawner.stdout):
            pipe.close()

    def probe(self) -> tuple:
        """One ``python -m frontpage --version`` child: (wall, errors)."""
        child = self.spawn(["-m", "frontpage", "--version"])
        ok = child["code"] == 0 and child["stdout"].startswith("frontpage ")
        return child["wall"], [] if ok else [f"--version: exit {child['code']}: "
                                             f"{child['stderr'][-300:]}"]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _check(cmd, code: int, detail: str, outs: dict) -> list:
    """A command's failures: its exit status, then its output check."""
    if code != 0:
        return [f"{cmd.label}: exit {code}: {detail}"]
    return cmd.check(outs[cmd.label], outs)


def run_pass(runner: Runner, commands: list, pass_dir: Path) -> list:
    """Run every command once, in order; check its outputs after it exits."""
    outs: dict = {}
    records = []
    for cmd in commands:
        out = outs[cmd.label] = pass_dir / cmd.label
        child = runner.spawn(["-m", "frontpage", *cmd.argv, "--out", str(out)])
        records.append({**child,
                        "bytes": _dir_bytes(out) if out.exists() else 0,
                        "errors": _check(cmd, child["code"],
                                         child["stderr"][-300:], outs)})
    return records


def declared_units(trace: bool) -> dict:
    """Names and units of the metrics ``BENCHMARK.json`` declares for a mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def untraced(runner: Runner, commands: list, work: Path, seconds: float,
             setups: list) -> tuple:
    passes = []
    start, longest = time.perf_counter(), 0.0
    while True:
        pass_start = time.perf_counter()
        pass_dir = work / f"pass{len(passes)}"
        passes.append(run_pass(runner, commands, pass_dir))
        shutil.rmtree(pass_dir, ignore_errors=True)
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - start + longest > seconds:
            break
    # Per-command medians over passes, summed: a burst of contention on the
    # shared machine then spoils one sample of one command, not a pass.
    walls = [statistics.median(p[i]["wall"] for p in passes)
             for i in range(len(commands))]
    wall = sum(walls)
    metrics = {
        "wall_s": wall,
        "work_per_s": sum(cmd.units for cmd in commands) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
    }
    for i, cmd in enumerate(commands):
        cw = [p[i]["wall"] for p in passes]
        print(f"command {cmd.label}: wall p50 {walls[i]:.4f} s "
              f"max {max(cw):.4f} s (n={len(cw)}), peak RSS "
              f"{max(p[i]['rss_mb'] for p in passes):.1f} MB, "
              f"{cmd.units:g} work units")
    print(f"passes: {len(passes)}; pass walls: "
          + ", ".join(f"{sum(r['wall'] for r in p):.4f}" for p in passes))
    return metrics, [r["errors"] for p in passes for r in p]


def traced(runner: Runner, commands: list, work: Path, setups: list) -> tuple:
    records = run_pass(runner, commands, work / "untraced")
    trace_dir = work / "traced"
    spec, result_path = work / "trace_spec.json", work / "trace_result.json"
    spec.write_text(json.dumps({"commands": [
        [*cmd.argv, "--out", str(trace_dir / cmd.label)] for cmd in commands]}))
    child = runner.spawn([str(HERE / "tracer.py"), str(spec), str(result_path)])
    if child["code"] != 0:
        raise RuntimeError(f"traced run failed: exit {child['code']}: "
                           f"{child['stderr'][-500:]}")
    result = json.loads(result_path.read_text())
    outs = {cmd.label: trace_dir / cmd.label for cmd in commands}
    errors = [r["errors"] for r in records] + [
        _check(cmd, code, "in the traced run", outs)
        for cmd, code in zip(commands, result["exit_codes"])]

    m = tracer.layer_metrics(result["spans"])
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    untraced_wall = sum(r["wall"] for r in records)
    m.update({
        "cli.bytes_written": sum(r["bytes"] for r in records),
        "proc.import_s": result["import_s"],
        "proc.cpu_s": sum(r["cpu"] for r in records),
        "proc.peak_rss_mb": max(r["rss_mb"] for r in records),
        "proc.errors": sum(1 for e in errors if e),
        "trace.wall_s": result["wall_s"],
        "trace.untraced_s": result["wall_s"] - layer_self,
        "trace.overhead_s": result["wall_s"]
        - (untraced_wall - len(records) * statistics.median(setups)),
        "trace.absent": len(result["absent"]),
    })
    for name in result["absent"]:
        print(f"absent: {name} (its metrics read 0)")
    print(f"traced wall {result['wall_s']:.4f} s = layer self times "
          f"{layer_self:.4f} s + untraced remainder {m['trace.untraced_s']:.4f} s")
    return m, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/frontpage/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; "
              "run from the root of a frontpage checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        commands = workloads.build(args.workload, ROOT, inputs, args.seed)
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, {len(commands)} "
              f"commands per pass; work unit: {workloads.WORK_UNITS[args.workload]}")

        probe_errors = [runner.probe()[1]]
        probes = [runner.probe() for _ in range(SETUP_PROBES)]
        setups = [wall for wall, _ in probes]
        probe_errors += [e for _, e in probes]
        if args.trace:
            metrics, errors = traced(runner, commands, work, setups)
        else:
            metrics, errors = untraced(runner, commands, work, args.seconds, setups)
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    errors += probe_errors
    failed = sum(1 for e in errors if e)
    for message in [m for e in errors for m in e][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = len(errors)
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(" | ".join(f"{k} {metrics[k]:.6g} {u}" for k, u in units.items())
          + f" | failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
