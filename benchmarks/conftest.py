"""Shared benchmark fixtures.

The experiment (datasets + the shared pre-trained NTT) is
session-scoped and store-backed through ``repro.api``: pre-training
dominates wall time and all three table benchmarks and both ablations
reuse it, exactly as the paper reuses one pre-trained model.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke`` (seconds; the
default, so the full suite completes in CI), ``small`` (minutes) or
``paper`` (hours).  This module is the one reader of the variable.

Artifact store: the root ``conftest.py`` gives every session a fresh
store, so sessions share artifacts only when ``REPRO_CACHE_DIR`` is
set.  A shared store makes repeat sessions measure cache loads, not
training — set ``REPRO_BENCH_NO_CACHE=1`` when the training-time
columns themselves are the experiment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import Experiment, ExperimentSpec, get_scale

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


def _session_scale():
    """The benchmark session's scale — the single source of truth for
    both the fixtures and result-artifact stamping/routing."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "smoke"))


@pytest.fixture(scope="session")
def scale():
    return _session_scale()


@pytest.fixture(scope="session")
def experiment(scale):
    spec = ExperimentSpec(scenario="pretrain", scale=scale.name)
    if os.environ.get("REPRO_BENCH_NO_CACHE"):
        return Experiment.uncached(spec)
    return Experiment(spec)


def save_results(name: str, payload: dict) -> Path:
    """Persist one benchmark's result rows as JSON under ``bench_results/``.

    Every payload is stamped with the session scale so artifacts are
    self-describing.  Smoke-scale runs (the tier-1 default) land in the
    gitignored ``bench_results/smoke/`` so they never overwrite the
    committed small/paper-scale artifacts.
    """
    scale_name = _session_scale().name
    payload = {**payload, "scale": scale_name}
    out_dir = RESULTS_DIR / "smoke" if scale_name == "smoke" else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path
