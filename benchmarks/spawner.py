"""Runs CLI children one at a time and reports wall time and peak RSS.

Run as ``python -S spawner.py`` from the benchmark. Each request line on
stdin is tab-separated: stdout path, stderr path, then the child's argv.
Each reply line is ``<wait status> <wall ns> <ru_maxrss KiB>``, timed from
spawn to reap. The process exits at end of input.

The children are spawned from this small process, not from the benchmark
itself: a spawned child shares its parent's memory until exec, and the
kernel counts the parent's peak resident set in the child's ``ru_maxrss``.
"""

import os
import signal
import sys
import time

CHILD_TIMEOUT_S = 60


def main():
    child = [0]

    def kill_child(signum, frame):
        if child[0]:
            try:
                os.kill(child[0], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, kill_child)
    env = dict(os.environ)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        out_path, err_path, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        start = time.perf_counter_ns()
        child[0] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(child[0], 0)
        wall = time.perf_counter_ns() - start
        child[0] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.write(f"{status} {wall} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
