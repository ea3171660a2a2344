"""Runs the benchmark's child processes, one at a time, for the driver.

A child's peak RSS as the kernel reports it (``ru_maxrss``) includes the
memory of the process that forked it, up to the moment of exec.  The driver
holds numpy and scipy, so it would inflate every child's figure; this
process imports only the standard library and is started before them.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``,
answered by one line ``{"exit": code, "seconds": wall, "rss_mb": peak}``.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                stdout=so, stderr=se)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
