"""Starts collatzq invocations for the benchmark and times a reference loop.

The benchmark keeps one of these per core for the whole run.  The first
starts every op.  It exists so that an op's peak RSS is its own: on Linux, a
child's ru_maxrss starts from the peak RSS of the process that spawned it,
and this process stays small while the benchmark's own memory grows.  All of
them run the reference loop together between ops, which tells the benchmark
how fast the machine's cores are at that moment.

Protocol, one JSON object per line.  Requests on stdin:

* ``{"argv": [...], "stdout": path, "stderr": path}`` runs
  ``python -m collatzq argv`` in a new session, from the current directory
  and environment, with its output in the two files, and replies
  ``{"wall_s": float, "exit": int, "maxrss_kb": int}``.  wall_s covers spawn
  to reap; maxrss_kb comes from wait4, so it covers the pool workers the op
  waited for.  An op still running after TIMEOUT_S is killed with its whole
  session.
* ``{"reference": true}`` runs ``reference_loop`` and replies
  ``{"wall_s": float}``.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120


def reference_loop() -> int:
    """Fixed pure-Python integer work, about 30 ms on an idle 2 GHz core."""
    total = 0
    for x in range(1, 300_001, 2):
        t = 3 * x + 1
        total += t >> ((t & -t).bit_length() - 1)
    return total


def main() -> None:
    running = []

    def expire(signum, frame):
        for pid in running:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, expire)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("reference"):
            start = time.perf_counter()
            reference_loop()
            print(json.dumps({"wall_s": time.perf_counter() - start}), flush=True)
            continue
        actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
        argv = [sys.executable, "-m", "collatzq", *request["argv"]]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions, setsid=True)
        running.append(pid)
        signal.alarm(TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        running.clear()
        reply = {"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                 "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
