#!/usr/bin/env python3
"""Starts the benchmark's timed processes from a small process of its own.

A child's peak resident memory (``ru_maxrss``) starts from its parent's
memory at the time of the fork, and the benchmark's own process grows once
it imports series to check outputs. So the benchmark starts this launcher
first, while it is small, and has it fork every timed command.

Reads one JSON request per line on stdin -- ``{"argv": [...], "cwd": ...,
"timeout_s": ..., "stderr": path}`` -- and answers each with one JSON line:
exit code, wall time, peak RSS and CPU time of that child alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_process(argv: list[str], cwd: str, timeout_s: float, stderr_path: str) -> dict:
    """Run one process to completion and measure it.

    ``os.wait4`` reports the resource use of that child alone, where
    ``getrusage(RUSAGE_CHILDREN)`` would give the largest child so far.
    The process is killed once ``timeout_s`` has passed.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout_s, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        result = run_process(req["argv"], req["cwd"], req["timeout_s"], req["stderr"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
