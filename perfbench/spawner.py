"""Small stdlib-only process that starts the benchmark's children.

Linux records in a child's peak RSS the memory of the process it was
forked from, as it stood when the child called exec.  ``run.py`` holds
numpy and the generated inputs, so children forked from it would report
its footprint as their own peak.  This process stays
small (well under the smallest ``frontpage`` child) and forks every child
instead.

Protocol, one JSON object per line: ``run.py`` writes
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``; this process
runs the child, reaps it with ``os.wait4`` and answers
``{"wall", "cpu", "rss_kb", "code"}``.  It exits when its input closes,
and on SIGTERM it kills and reaps the running child first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

current = None


def _terminate(signum, frame):
    if current is not None and current.returncode is None:
        current.kill()
        try:
            os.waitpid(current.pid, 0)
        except ChildProcessError:  # reaped by wait4 just before the signal
            pass
    sys.exit(128 + signum)


def run(req):
    global current
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        current = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                   stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], current.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(current.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        current.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "code": current.returncode}


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
