"""Launch the benchmark's child processes from a process with a small memory
footprint.

A child's peak RSS as reported by ``wait4`` includes the memory of the
process that spawned it, up to the moment of ``exec``.  The benchmark process
itself grows while it checks artifacts, so it does not spawn the children it
measures; this helper does.  It imports nothing heavy.

Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": str, "env": {...}, "stderr": path, "timeout": s}``,
answered by one JSON line ``{"wall_s", "cpu_s", "rss_mb", "code"}``.
The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, env, stderr, timeout):
    with open(os.devnull, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
