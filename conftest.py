"""Session-wide test setup shared by ``tests/``, ``benchmarks/`` and
``perfbench/``.

Any code that builds ``Experiment()``/``ArtifactStore()`` without an
explicit root uses ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``.  So
that a test session never reads artifacts left by earlier sessions (or
by other checkouts), it points ``REPRO_CACHE_DIR`` at a fresh
per-session directory unless the caller set it.  Example and CLI
subprocesses inherit it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: ``repro.api.store.CACHE_DIR_ENV``, spelled out so this file imports
#: nothing from ``src/`` (``perfbench/`` tests run without it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@pytest.fixture(scope="session", autouse=True)
def repro_cache_dir(tmp_path_factory):
    """The default artifact-store root for this session."""
    given = os.environ.get(CACHE_DIR_ENV)
    if given:
        yield Path(given)
        return
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(root))
        yield root
