"""Record the reference outputs the campaign checks compare against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  For every
input variant it runs the cold ``table1`` and ``datagen`` campaigns
once and writes their Table 1 rows and packet and window counts to
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import VARIANTS  # noqa: E402


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    table = {"table1": {}, "datagen": {}}
    for workload in table:
        for variant in range(VARIANTS):
            work = Path(tempfile.mkdtemp(dir=root / ".perfbench"))
            try:
                out = work / "cold.json"
                subprocess.run(
                    [
                        sys.executable, str(HERE / "campaign.py"), "--workload", workload,
                        "--variant", str(variant), "--store", str(work / "store"),
                        "--out", str(out), "--launched", repr(time.monotonic()),
                    ],
                    cwd=root, env=env, check=True,
                )
                outputs = json.loads(out.read_text())["outputs"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            keep = ("rows",) if workload == "table1" else ("packets", "windows")
            table[workload][str(variant)] = {key: outputs[key] for key in keep}
            print(workload, variant, table[workload][str(variant)], flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
