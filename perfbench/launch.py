"""Run one program as a child; record its wall time and its own peak RSS.

    python3 -S perfbench/launch.py RESULT_FILE PROGRAM ARG...

A process's ru_maxrss starts from the resident high-water mark of the
process that spawned it, so children of the benchmark's parent would all
read at least the parent's size.  Spawning from this small launcher keeps
that floor at a bare interpreter's size, below every pass.  The child
inherits the standard streams.  SIGTERM kills the child; the launcher
always reaps it before exiting.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result, argv = sys.argv[1], sys.argv[2:]
    child = []
    signal.signal(signal.SIGTERM, lambda *_: child and os.kill(child[0], signal.SIGKILL))
    t0 = time.perf_counter()
    child.append(os.posix_spawnp(argv[0], argv, os.environ))
    _, status, usage = os.wait4(child[0], 0)
    wall = time.perf_counter() - t0
    with open(result, "w") as fh:
        json.dump({"t0": t0, "wall": wall, "code": os.waitstatus_to_exitcode(status),
                   "rss_mb": usage.ru_maxrss / 1024}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
