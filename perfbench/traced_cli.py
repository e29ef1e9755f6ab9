"""Run one eqpart command with the eqpart modules traced.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json ARGS...

runs `eqpart ARGS...` through `eqpart.cli.run_command`, with stdout and the
exit code as the plain command gives them, and writes the spans, call
counts, lru_cache statistics and the time of `import eqpart.cli` to
TRACE.json when the command has returned.
"""

from __future__ import annotations

import sys
import time

import tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import eqpart.cli
    import_s = time.perf_counter() - start
    tr = tracer.Tracer()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "eqpart" or name.startswith("eqpart.")]
    caches = tracer.install(tr, modules)
    code = eqpart.cli.run_command(argv)
    sys.stdout.flush()
    tr.dump(
        trace_path,
        import_s=import_s,
        caches={name: fn.cache_info()._asdict() for name, fn in caches.items()},
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
