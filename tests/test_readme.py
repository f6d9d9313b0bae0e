"""The README points at real files.

Every backticked path in ``README.md`` must exist, either relative to
the repo root (``tests/...``, ``perfbench/run.py``) or to the package
(``netsim/core.py``).  A ``path::name`` test id must also name a class
or function defined in that file.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: A backticked token that is a file (``x/y.py``, ``BENCHMARK.json``) or
#: a directory (``benchmarks/``), optionally with ``::`` test-id parts.
_PATH = re.compile(
    r"`((?:[\w.-]+/)*(?:[\w-]+\.(?:py|json|md|sh|yml|toml)|[\w.-]+/))"
    r"((?:::\w+)*)`"
)


def _readme_paths():
    return sorted(set(_PATH.findall((REPO_ROOT / "README.md").read_text())))


def test_readme_names_paths():
    paths = {path for path, _ in _readme_paths()}
    assert "perfbench/run.py" in paths
    assert "tests/netsim/test_golden_equivalence.py" in paths


def test_every_readme_path_exists():
    missing = []
    for path, names in _readme_paths():
        found = [base / path for base in (REPO_ROOT, PACKAGE) if (base / path).exists()]
        if not found:
            missing.append(path)
            continue
        source = found[0].read_text() if found[0].is_file() else ""
        for name in filter(None, names.split("::")):
            if not re.search(rf"^\s*(?:class|def) {name}\b", source, re.M):
                missing.append(f"{path}::{name}")
    assert not missing, f"README.md names missing paths: {missing}"
