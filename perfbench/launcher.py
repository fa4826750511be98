"""Small helper process that starts each benchmarked command.

On Linux a child's peak RSS (``ru_maxrss``) starts from the peak RSS of the
process that spawned it, because exec folds the old address space's high
water mark into the child's. The benchmark process itself grows large (it
holds the expected outputs and runs the library in-process), so it starts
this launcher first, while it is still small, and has it spawn every
command. Timing and ``os.wait4`` also happen here, next to the child.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "env": {...}, "cwd": path}``;
one JSON reply per stdout line with ``wall_s``, ``maxrss_kb``, ``cpu_s`` and
``code``. The launcher exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 60


def launch(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
