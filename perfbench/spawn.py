"""Run one command to completion and print its resource usage as JSON.

    python3 perfbench/spawn.py '{"argv": [...], "env": {...}, "cwd": ".", "log": "child.log", "timeout": 60}'

The runner starts every measured child through this small process so that
the child's peak RSS is its own. On Linux a child spawned from a large
parent starts with that parent's high-water RSS in ``ru_maxrss`` (it shares
the parent's memory until exec), so spawned from the runner directly it
would report at least the runner's size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    with open(spec["log"], "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(spec["argv"], env=spec["env"], cwd=spec["cwd"],
                                stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(spec["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
