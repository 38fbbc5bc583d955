"""Run one command and print its exit code, wall time and rusage as JSON.

    python3 -S perfbench/launch.py OUT ERR PROGRAM [ARG ...]

PROGRAM runs with stdout to OUT and stderr to ERR.  On Linux a process
started from a large parent inherits the parent's peak RSS in its own
`ru_maxrss`, so the benchmark starts each timed process from this small
launcher instead of from itself.
"""

import json
import os
import sys
import time


def main() -> None:
    out, err, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
