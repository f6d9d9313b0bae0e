"""``repro serve`` with the benchmark's timing wrappers installed.

    python3 perfbench/serve_probe.py OUT_DIR serve MODEL [serve options]

Installs :func:`probe.install_serve` (totals are written to ``OUT_DIR``
on ``SIGUSR1`` and at exit), records how long launch and imports took
since the launcher's ``PERFBENCH_LAUNCHED`` monotonic stamp, then runs
the program's own command line.
"""

from __future__ import annotations

import os
import sys
import time

import probe


def main() -> int:
    probe.install_serve(sys.argv[1])
    launched = os.environ.get("PERFBENCH_LAUNCHED")
    if launched:
        probe.add("setup.import", time.monotonic() - float(launched))
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        probe.dump()


if __name__ == "__main__":
    raise SystemExit(main())
