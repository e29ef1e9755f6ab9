"""Run one eqpart command as the `eqpart` script does, and record its peak RSS.

    PYTHONPATH=src python3 perfbench/plain_cli.py PEAK_RSS_FILE ARGS...

runs `eqpart ARGS...` through `eqpart.cli.main` and, at exit, writes the
process's own resident-set high-water mark (VmHWM, in kB) to PEAK_RSS_FILE.
The max-RSS that `os.wait4` reports cannot serve: Linux carries the memory
high-water mark of the process that spawned the child across exec, so it
reads at least the size of the benchmark process itself.
"""

from __future__ import annotations

import atexit
import sys


def _write_peak_rss(path: str) -> None:
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb)


if __name__ == "__main__":
    atexit.register(_write_peak_rss, sys.argv.pop(1))
    from eqpart.cli import main

    sys.argv[0] = "eqpart"
    main()
