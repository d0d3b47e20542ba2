"""Run one command and record its wall time, exit code and peak RSS.

Usage: python3 spawn.py RESULT_JSON -- COMMAND [ARG ...]

The command inherits this process's stdin, stdout and stderr. The
benchmark starts every CLI call through this small process because Linux
carries a parent's resident size into the child's ``ru_maxrss`` across
fork and exec: spawned from the large benchmark process, a 3-point
``integrate`` would report the benchmark's memory instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, command = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
