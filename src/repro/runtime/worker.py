"""Stage execution: one code path for both campaign executors and tables.

Each campaign task attempt is executed by :func:`run_task`, whichever
executor the engine's scheduler loop hands it to: the in-process
executor passes in the :class:`~repro.api.experiment.Experiment` it
keeps per spec, while in a ``ProcessPoolExecutor`` worker the
module-level function is imported by reference and rebuilds the
experiment from the task's JSON payload.  Dispatch goes through the
:data:`~repro.api.stages.STAGE_REGISTRY` — built-in, extension and
user-registered stages all execute the same way.  Heavy artifacts never
cross the process boundary — they flow through the content-addressed
:class:`~repro.api.store.ArtifactStore`; task results are small
dictionaries of scalars.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import threading
import time
import traceback
from pathlib import Path

import repro.obs as obs

# Importing the module registers the built-in stages (worker processes
# start from a bare interpreter).
import repro.runtime.stages  # noqa: F401
from repro.api.experiment import Experiment
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.api.store import ArtifactStore
from repro.runtime.policy import RetryPolicy
from repro.testing.faults import maybe_inject
from repro.utils.clock import wall_time_unix

__all__ = ["run_task", "execute_stage", "heartbeat_path"]


def execute_stage(
    stage: str, experiment: Experiment, params: dict, inputs: dict | None = None
):
    """Run one registered stage; returns ``(cache_hit, result_dict)``.

    Unknown stages raise a ``ValueError`` listing the registered stage
    names.  ``inputs`` maps dependency task ids to their results.
    """
    entry = STAGE_REGISTRY.get(stage)
    return entry.run(experiment, dict(inputs or {}), params)


def _ensure_stage_importable(payload: dict) -> None:
    """Import the module that registered this payload's stage.

    Worker processes start from a bare interpreter: built-in and
    extension stages register via the imports above, but a custom stage
    defined in some other module must be imported before dispatch.  The
    planner records the registering module in the payload (``__main__``
    cannot be re-imported — there the pool relies on fork inheriting the
    parent's registry, the default on Linux).
    """
    module = payload.get("stage_module")
    if payload["stage"] in STAGE_REGISTRY or not module or module == "__main__":
        return
    importlib.import_module(module)


def _retry_backoff(payload: dict) -> float:
    """Jittered backoff before a retry attempt, drawn from the task's
    spawned seed sequence so campaign behaviour is reproducible.

    The numbers come from the engine's :class:`RetryPolicy` riding in
    the payload; payloads without one (older planners, direct callers)
    get the default policy, which reproduces the historical backoff
    byte-for-byte.
    """
    policy = RetryPolicy.from_payload(payload.get("retry_policy"))
    return policy.backoff_s(
        payload.get("seed_entropy", 0),
        tuple(payload.get("spawn_key", ())),
        payload.get("attempt", 0),
    )


def heartbeat_path(directory: str | os.PathLike, task_id: str) -> Path:
    """Where one task's heartbeat file lives (task ids hold ``:``,
    which stays filesystem-safe on Linux but reads badly — flatten)."""
    return Path(directory) / f"{task_id.replace(':', '_')}.json"


class _Heartbeat:
    """Liveness beacon for one pool task attempt.

    While the task executes, a daemon thread refreshes a small JSON file
    (``{pid, task_id, attempt, started_unix, updated_unix}``) under the
    engine-provided scratch directory.  The engine's reaper uses
    ``started_unix`` to tell a *hung* task from one still queued behind
    a busy pool, and ``pid`` to kill the right worker.  Writes go
    through a temp file + ``os.replace`` so the reaper never reads a
    torn beat.  The beat thread only reads attributes set before it
    starts and touches no shared state — all mutation is file-level.
    """

    def __init__(self, payload: dict):
        directory = payload.get("heartbeat_dir")
        self._path = (
            heartbeat_path(directory, payload["id"]) if directory is not None else None
        )
        self._task_id = payload["id"]
        self._attempt = payload.get("attempt", 0)
        self._interval = float(payload.get("heartbeat_interval_s", 1.0))
        self._started = 0.0
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self) -> "_Heartbeat":
        if self._path is None:
            return self
        self._started = wall_time_unix()
        self._write()  # first beat lands before the stage runs
        self._thread = threading.Thread(
            target=self._beat, name=f"heartbeat:{self._task_id}", daemon=True
        )
        self._thread.start()
        return self

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            self._write()

    def _write(self) -> None:
        doc = {
            "pid": os.getpid(),
            "task_id": self._task_id,
            "attempt": self._attempt,
            "started_unix": self._started,
            "updated_unix": wall_time_unix(),
        }
        temp = self._path.with_name(f".tmp-{os.getpid()}-{self._path.name}")
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            os.replace(temp, self._path)
        except OSError:
            # Heartbeats are advisory; a full disk must not fail the task.
            with contextlib.suppress(OSError):
                temp.unlink()

    def __exit__(self, *exc_info) -> None:
        if self._path is None:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval + 1.0)
        with contextlib.suppress(OSError):
            self._path.unlink()


def run_task(payload: dict, experiment: Experiment | None = None) -> dict:
    """Execute one task payload; never raises.

    Worker-pool entry point: with no ``experiment`` the spec and store
    are rebuilt from the payload (each worker process builds its own
    experiment; artifacts are shared through the store).
    Failures come back as structured ``status: "error"`` records so the
    engine can retry and the manifest can record the traceback; retry
    attempts (``payload["attempt"] > 0``) back off with jitter first.

    When observability is enabled the whole execution runs inside a
    captured tracer span (stage-level spans nest under it) and the
    record additionally carries ``spans`` (the serialized span tree)
    and ``metrics`` (this task's registry delta) — both JSON, so they
    cross the process boundary like everything else and the engine can
    merge worker telemetry into the campaign manifest.
    """
    if payload.get("attempt", 0) > 0:
        time.sleep(_retry_backoff(payload))
    start = time.perf_counter()
    record = {"id": payload["id"], "stage": payload["stage"], "cache_hit": False}
    obs_on = obs.enabled()
    with contextlib.ExitStack() as stack:
        stack.enter_context(_Heartbeat(payload))
        if obs_on:
            registry = obs.get_registry()
            before = registry.snapshot()
            tracer = stack.enter_context(obs.capture_tracer())
            span = stack.enter_context(
                tracer.span(
                    "task:" + payload["id"],
                    task_id=payload["id"],
                    stage=payload["stage"],
                    worker=os.getpid(),
                    attempt=payload.get("attempt", 0),
                )
            )
        try:
            maybe_inject(payload["stage"], payload.get("attempt", 0))
            _ensure_stage_importable(payload)
            if experiment is None:
                spec = ExperimentSpec.from_dict(payload["spec"])
                root = payload.get("store_root")
                store = ArtifactStore(root) if root is not None else None
                experiment = Experiment(spec, store=store)
            hit, result = execute_stage(
                payload["stage"], experiment, payload["params"], payload.get("inputs")
            )
            record.update(status="done", cache_hit=bool(hit), result=result)
        except Exception as exc:  # noqa: BLE001 — crosses a process boundary
            record.update(
                status="error",
                error=traceback.format_exc(),
                error_type=type(exc).__name__,
            )
        if obs_on:
            span.set(status=record["status"], cache_hit=record["cache_hit"])
    if obs_on:
        record["spans"] = tracer.finished()
        record["metrics"] = obs.subtract(registry.snapshot(), before)
    record["wall_time_s"] = time.perf_counter() - start
    return record
