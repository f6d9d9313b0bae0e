"""The campaign engine: one scheduler loop over two executors.

:class:`CampaignEngine` takes a :class:`~repro.runtime.plan.CampaignPlan`,
rejects a graph with a cycle or an unknown dependency, and runs its
tasks in dependency order through one ready-queue loop.  The loop hands
task attempts to an executor — in-process when ``workers <= 1`` (or when
there is no artifact store to share artifacts through), a
``ProcessPoolExecutor`` otherwise — and both run the *same* stage code
(:func:`repro.runtime.worker.run_task`), so interactive runs, sweeps and
benchmarks cannot drift apart.

Everything else is written once, in the loop, and holds on both
executors.  A :class:`~repro.runtime.policy.RetryPolicy` retries
transient errors with seeded jittered backoff and fails fatal (contract)
errors fast; dependents of a failed task are skipped.  Every settled
task appends one fsynced line to
``manifests/<campaign_id>.journal.jsonl`` through the store, so even a
SIGKILLed campaign leaves a durable record, and
:meth:`CampaignEngine.resume` re-plans from the journal header and
re-executes only what never finished — bit-identical to an
uninterrupted run, because per-task seeds and retry backoff are keyed
by (task spawn key, attempt), never by execution order.  A JSON
campaign manifest — per-task status, timings and cache hit/miss — is
written under ``manifests/<campaign_id>`` on completion, and a partial
``status: "crashed"`` manifest on the way out of any engine-level
failure.

Hung and killed workers are the pool executor's business: per-stage
wall-clock timeouts (``stage_params`` ``timeout_s`` knob, engine-level
default) reap wedged tasks via worker heartbeat files under the store's
scratch area, and a broken pool is respawned, its in-flight attempts
handed back to the loop as ``timeout`` / ``worker-lost`` failures.  An
in-process stage can be neither preempted nor survived.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import shutil
import signal
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import repro.obs as obs
from repro.api.experiment import Experiment
from repro.api.spec import ExperimentSpec
from repro.api.store import ArtifactStore
from repro.runtime.journal import CampaignJournal, read_journal
from repro.runtime.plan import CampaignPlan, StageTask, plan_campaign
from repro.runtime.policy import RetryPolicy
from repro.runtime.worker import heartbeat_path, run_task
from repro.utils import blas
from repro.utils.clock import utc_now_iso, wall_time_unix

__all__ = ["CampaignEngine", "CampaignResult", "run_campaign"]

#: Sentinel: "no store argument given" (``None`` means "no store").
_DEFAULT_STORE = object()


@dataclass
class CampaignResult:
    """Outcome of one engine run."""

    manifest: dict
    results: dict = field(default_factory=dict)
    manifest_path: Path | None = None

    @property
    def summary(self) -> dict:
        return self.manifest["summary"]

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0 and self.summary["skipped"] == 0

    @property
    def cache_hits(self) -> int:
        return self.summary["cache_hits"]

    def failed_tasks(self) -> list[dict]:
        return [task for task in self.manifest["tasks"] if task["status"] == "error"]

    def __getitem__(self, task_id: str) -> dict:
        """Result payload of one completed task."""
        return self.results[task_id]

    def format_summary(self) -> str:
        summary = self.summary
        lines = [
            f"campaign {self.manifest['campaign_id']}: "
            f"{summary['done']}/{summary['total']} task(s) done, "
            f"{summary['cache_hits']} cache hit(s), "
            f"{summary['failed']} failed, {summary['skipped']} skipped "
            f"in {self.manifest['wall_time_s']:.1f}s "
            f"({self.manifest['workers']} worker(s))"
        ]
        resumed = self.manifest.get("resumed_tasks")
        if resumed:
            lines.append(f"  resumed {len(resumed)} task(s) from the journal")
        for task in self.failed_tasks():
            last_line = task["error"].strip().splitlines()[-1]
            lines.append(f"  FAILED {task['id']}: {last_line}")
        if self.manifest_path is not None:
            lines.append(f"manifest: {self.manifest_path}")
        return "\n".join(lines)


class CampaignEngine:
    """Plans' executor: worker pool, retry policy, journal, manifest.

    Args:
        store: artifact store shared by all tasks; defaults to the
            environment store.  ``store=None`` disables persistence
            (and with it journaling, resume and timeout reaping) and
            forces in-process execution for dependent plans.
        workers: worker processes; ``<= 1`` runs in-process.
        retries: how many times a failed task is re-attempted
            (shorthand for ``policy=RetryPolicy(retries=...)``).
        policy: full retry policy; overrides ``retries`` when given.
        task_timeout_s: default per-task wall-clock timeout (``None``
            disables; a spec's per-stage ``timeout_s`` in
            ``stage_params`` overrides per task).  Only the pool
            executor enforces it, and only with a store (its heartbeat
            files live there): an in-process stage cannot be preempted.
        heartbeat_interval_s: how often pool workers refresh their
            heartbeat files.
    """

    def __init__(
        self,
        store=_DEFAULT_STORE,
        workers: int = 1,
        retries: int = 1,
        *,
        policy: RetryPolicy | None = None,
        task_timeout_s: float | None = None,
        heartbeat_interval_s: float = 1.0,
    ):
        self.store = ArtifactStore.from_env() if store is _DEFAULT_STORE else store
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy(retries=retries)
        self.retries = self.policy.retries
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0 (or None to disable)")
        self.task_timeout_s = task_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s

    def effective_workers(self, tasks: list[StageTask]) -> int:
        """The worker count this plan can actually use.

        Without a store, processes have no way to exchange artifacts, so
        any plan with dependencies or cacheable stages runs in-process;
        an embarrassingly parallel, uncacheable plan (e.g. a
        ``trace_stats`` fan-out) may still use the pool.
        """
        if self.store is None and any(task.deps or task.kind for task in tasks):
            return 1
        return max(1, min(self.workers, len(tasks)))

    def run(
        self,
        plan: CampaignPlan,
        experiment: Experiment | None = None,
        resume_records: dict | None = None,
    ) -> CampaignResult:
        """Execute every task; returns results plus the manifest.

        ``experiment`` (in-process executor only) runs the tasks of its
        own spec, sharing its in-memory bundles and models; the table
        runners pass theirs, so interactive runs keep working without a
        store.  Tasks of any other spec build their own
        :class:`~repro.api.experiment.Experiment`.

        ``resume_records`` (normally supplied by :meth:`resume`) maps
        task ids to previously settled ``done`` records; those tasks
        are replayed instead of re-executed.
        """
        # One wall-clock stamp for "when" (ISO-8601 UTC) and one
        # monotonic origin for every duration and per-task offset —
        # wall-clock steps (NTP, DST) can never corrupt timings.
        started_unix = wall_time_unix()
        started_at = utc_now_iso()
        clock = time.perf_counter()
        tasks = plan.ordered()
        dependents = _dependents(tasks)
        workers = self.effective_workers(tasks)
        # Derived from the actual decision (not a restatement of the
        # effective_workers policy): serial despite a multi-task plan
        # that a pool could otherwise have used.
        downgraded = workers == 1 and self.workers > 1 and len(tasks) > 1
        engine_events: list[dict] = []
        records: dict[str, dict] = {}
        resumed_ids: list[str] = []
        if resume_records:
            for task in tasks:
                record = resume_records.get(task.id)
                if record is None or record.get("status") != "done":
                    continue
                replay = {
                    key: value
                    for key, value in record.items()
                    if key not in ("type", "time_unix")
                }
                replay["resumed"] = True
                records[task.id] = replay
                resumed_ids.append(task.id)
        journal = None
        if self.store is not None:
            journal = CampaignJournal(self.store.journal_path(plan.campaign_id))
            journal.header(plan, workers, self.retries, resumed=resumed_ids)
        emit = functools.partial(
            self._event, engine_events, journal, campaign_id=plan.campaign_id
        )
        if resumed_ids:
            emit(
                "runtime.campaign_resumed",
                resumed=len(resumed_ids),
                remaining=len(tasks) - len(resumed_ids),
            )
        if downgraded:
            emit(
                "runtime.downgraded_to_serial",
                requested_workers=self.workers,
                reason="no artifact store shares artifacts across processes",
            )
            warnings.warn(
                f"campaign requested {self.workers} workers but runs serially: "
                "without an artifact store, processes cannot exchange artifacts "
                "for plans with dependencies or cacheable stages; pass a store "
                "(or ArtifactStore.from_env()) to parallelise",
                RuntimeWarning,
                stacklevel=2,
            )
        if workers <= 1:
            executor: _Executor = _InProcessExecutor(self.store, experiment)
        else:
            executor = _PoolExecutor(
                workers, self.store, plan.campaign_id, emit, self._task_timeout
            )
        blas_threads = executor.blas_threads
        try:
            with executor:
                self._schedule(plan, tasks, dependents, executor, clock, records, journal)
        except BaseException:
            # Crash path (engine bug, KeyboardInterrupt, store failure):
            # persist everything that settled before re-raising, so the
            # run stays inspectable and resumable.
            crashed = None
            with contextlib.suppress(Exception):
                crashed = self._finish_manifest(
                    plan, tasks, records, workers, started_unix, started_at,
                    downgraded, engine_events, clock, blas_threads, status="crashed",
                )
                if self.store is not None:
                    self.store.put_manifest(plan.campaign_id, crashed)
            if journal is not None:
                with contextlib.suppress(Exception):
                    summary = crashed["summary"] if crashed else {"total": len(tasks)}
                    journal.complete(summary, "crashed")
                journal.close()
            raise
        manifest = self._finish_manifest(
            plan, tasks, records, workers, started_unix, started_at,
            downgraded, engine_events, clock, blas_threads, status="complete",
        )
        path = None
        if self.store is not None:
            path = self.store.put_manifest(plan.campaign_id, manifest)
        if journal is not None:
            journal.complete(manifest["summary"], "complete")
            journal.close()
        results = {
            record["id"]: record["result"]
            for record in (records[task.id] for task in tasks)
            if record["status"] == "done"
        }
        return CampaignResult(manifest=manifest, results=results, manifest_path=path)

    def resume(self, campaign_id: str, experiment: Experiment | None = None) -> CampaignResult:
        """Resume a crashed or partially failed campaign from its journal.

        Re-plans the identical task graph from the journal header
        (specs + stage selection + seed), verifies the plan still hashes
        to the same campaign id, replays every journalled ``done`` task
        and re-executes only the rest.  Because per-task seeds and
        retry backoff are keyed by (spawn key, attempt) — not execution
        order — the final results are bit-identical to an uninterrupted
        run.
        """
        if self.store is None:
            raise ValueError("resume requires an artifact store (journals live in it)")
        path = self.store.journal_path(campaign_id)
        if not path.exists():
            raise ValueError(
                f"no journal for campaign {campaign_id!r} under {path.parent}"
            )
        state = read_journal(path)
        if state.header is None:
            raise ValueError(f"journal {path} has no campaign header")
        stages = state.header.get("stages")
        if not stages:
            raise ValueError(
                f"campaign {campaign_id!r} was planned outside plan_campaign "
                "(table layout or hand-built graph); its journal records "
                "progress but cannot be resumed"
            )
        specs = [ExperimentSpec.from_dict(entry) for entry in state.header["specs"]]
        plan = plan_campaign(
            specs, stages=tuple(stages), seed=int(state.header.get("seed", 0))
        )
        if plan.campaign_id != campaign_id:
            raise ValueError(
                f"re-planned campaign hashes to {plan.campaign_id}, not "
                f"{campaign_id}: the stage registry or stage versions changed "
                "since the original run; start a fresh campaign instead"
            )
        return self.run(plan, experiment=experiment, resume_records=state.done_records())

    # -- scheduling -----------------------------------------------------------------

    @staticmethod
    def _dep_inputs(task: StageTask, records: dict) -> dict:
        """Completed dependency results, keyed by dependency task id
        (the ``inputs`` argument of the stage contract)."""
        inputs = {}
        for dep in task.deps:
            record = records.get(dep)
            if record is not None and record["status"] == "done":
                inputs[dep] = record["result"]
        return inputs

    @staticmethod
    def _event(events: list, journal, name: str, **fields) -> dict:
        """One structured engine event: registry (when enabled), the
        manifest's event list, and the journal."""
        event = obs.record_event(name, **fields)
        if not event:
            event = {"event": name, "time_unix": wall_time_unix(), **fields}
        events.append(event)
        if journal is not None:
            journal.event(event)
        return event

    def _payload(self, plan, task, store_root, attempt, inputs, heartbeat_dir=None) -> dict:
        payload = task.payload(store_root, plan.seed, attempt, inputs=inputs)
        payload["retry_policy"] = self.policy.to_payload()
        if heartbeat_dir is not None:
            payload["heartbeat_dir"] = str(heartbeat_dir)
            payload["heartbeat_interval_s"] = self.heartbeat_interval_s
        return payload

    def _task_timeout(self, task: StageTask) -> float | None:
        """This task's wall-clock budget: the spec's per-stage
        ``timeout_s`` knob, else the engine default, else none.

        Read at execution time — deliberately *not* part of the planned
        params, so tuning a timeout can never change a task id or cache
        key.
        """
        timeout = task.spec.params_for(task.stage).get("timeout_s", self.task_timeout_s)
        if timeout is None:
            return None
        timeout = float(timeout)
        return timeout if timeout > 0 else None

    def _schedule(self, plan, tasks, dependents, executor, clock, records, journal):
        """The scheduler loop: submit every ready task, then settle
        what the executor hands back — retry a failed attempt the
        policy allows, otherwise record it, journal it, and release
        (or skip) its dependents."""
        by_id = {task.id: task for task in tasks}
        waiting = {
            task.id: {dep for dep in task.deps if dep not in records}
            for task in tasks
            if task.id not in records
        }
        ready = [task_id for task_id, deps in waiting.items() if not deps]
        store_root = None if self.store is None else str(self.store.root)
        attempts: dict[str, int] = {}
        failures: dict[str, list] = {}
        # Offsets on the engine's campaign clock (worker perf_counters
        # are not comparable across processes): first submit → started,
        # final settle → ended.
        submit_offsets: dict[str, float] = {}
        outstanding = 0  # attempts submitted and not yet handed back

        def settle(task_id: str, record: dict) -> list[str]:
            """Record a final status; returns newly ready tasks."""
            now_offset = time.perf_counter() - clock
            record.setdefault("started_offset_s", submit_offsets.get(task_id, now_offset))
            record.setdefault("ended_offset_s", now_offset)
            if failures.get(task_id):
                record.setdefault("failures", failures[task_id])
            records[task_id] = record
            if journal is not None:
                journal.task(record)
            newly_ready = []
            for child in dependents[task_id]:
                if child in records:
                    continue
                if record["status"] == "done":
                    waiting[child].discard(task_id)
                    if not waiting[child]:
                        newly_ready.append(child)
                else:
                    # Cascade the skip through the whole subtree.
                    newly_ready.extend(
                        settle(child, _skip_record(by_id[child], task_id, now_offset))
                    )
            return newly_ready

        while ready or outstanding:
            for task_id in ready:
                task = by_id[task_id]
                attempt = attempts.get(task_id, 0)
                attempts[task_id] = attempt + 1
                submit_offsets.setdefault(task_id, time.perf_counter() - clock)
                executor.submit(
                    task,
                    self._payload(
                        plan, task, store_root, attempt,
                        self._dep_inputs(task, records), executor.heartbeat_dir,
                    ),
                )
                outstanding += 1
            ready = []
            for task_id, record in executor.wait():
                outstanding -= 1
                record["attempts"] = attempts[task_id]
                if record["status"] != "done":
                    error_class = self.policy.classify(record.get("error_type"))
                    record["error_class"] = error_class
                    failures.setdefault(task_id, []).append(
                        {
                            "attempt": attempts[task_id] - 1,
                            "error_class": error_class,
                            "error_type": record.get("error_type"),
                        }
                    )
                    if self.policy.should_retry(error_class, attempts[task_id]):
                        obs.metrics().counter("runtime.task_retries_total").inc()
                        ready.append(task_id)
                        continue
                ready.extend(settle(task_id, record))

    # -- manifest -----------------------------------------------------------------

    def _finish_manifest(
        self, plan, tasks, records, workers, started_unix, started_at,
        downgraded, events, clock, blas_threads: dict, status: str,
    ) -> dict:
        """Assemble the final (or crash-partial) manifest."""
        ordered_records = [
            records.get(task.id) or _pending_record(task) for task in tasks
        ]
        manifest = self._manifest(plan, ordered_records, workers, started_unix, started_at)
        manifest["status"] = status
        manifest["downgraded_to_serial"] = downgraded
        manifest["events"] = events
        manifest["wall_time_s"] = time.perf_counter() - clock
        resumed = [record["id"] for record in ordered_records if record.get("resumed")]
        if resumed:
            manifest["resumed_tasks"] = resumed
        pending = sum(1 for record in ordered_records if record["status"] == "pending")
        if pending:
            manifest["summary"]["pending"] = pending
        if status == "complete" and obs.enabled():
            manifest["observability"] = self._observability(
                plan, ordered_records, workers, started_unix, manifest["wall_time_s"],
                blas_threads,
            )
        return manifest

    def _manifest(self, plan, records, workers, started_unix, started_at) -> dict:
        done = sum(1 for record in records if record["status"] == "done")
        failed = sum(1 for record in records if record["status"] == "error")
        skipped = sum(1 for record in records if record["status"] == "skipped")
        hits = sum(1 for record in records if record.get("cache_hit"))
        executed = sum(
            1
            for record in records
            if record["status"] == "done"
            and not record.get("cache_hit")
            and not record.get("resumed")
        )
        task_rows = []
        by_id = {task.id: task for task in plan.ordered()}
        for record in records:
            task = by_id[record["id"]]
            row = {
                "id": record["id"],
                "stage": record["stage"],
                "key": task.key,
                "kind": task.kind,
                "specs": list(task.spec_hashes),
                "status": record["status"],
                "attempts": record.get("attempts", 0),
                "cache_hit": bool(record.get("cache_hit")),
                "wall_time_s": record.get("wall_time_s", 0.0),
                "started_offset_s": record.get("started_offset_s", 0.0),
                "ended_offset_s": record.get("ended_offset_s", 0.0),
            }
            for optional in ("resumed", "error_class", "failures"):
                if optional in record:
                    row[optional] = record[optional]
            if record["status"] == "done":
                row["result"] = record["result"]
            elif record["status"] == "error":
                row["error"] = record["error"]
            elif record["status"] == "skipped":
                row["skipped_because"] = record["skipped_because"]
            task_rows.append(row)
        return {
            "campaign_id": plan.campaign_id,
            "created_unix": started_unix,
            "started_at": started_at,
            "workers": workers,
            "retries": self.retries,
            "seed": plan.seed,
            "specs": [
                {"hash": spec.spec_hash, "spec": spec.to_dict()} for spec in plan.specs
            ],
            "tasks": task_rows,
            "summary": {
                "total": len(records),
                "done": done,
                "failed": failed,
                "skipped": skipped,
                "cache_hits": hits,
                "executed": executed,
            },
        }

    def _observability(
        self, plan, records, workers, started_unix, wall_s, blas_threads
    ) -> dict:
        """The manifest's telemetry block: one campaign root span over
        every task's span tree, the merged worker metrics, and the BLAS
        thread count the tasks computed with (the executor's
        ``blas_threads``).

        Task records carry ``spans``/``metrics`` produced inside
        whichever process executed them (:func:`~repro.runtime.worker.run_task`);
        merging the per-task registry deltas yields the same counter
        totals whether the campaign ran serially or on a pool.  Pool
        deltas are additionally folded into this process's live
        registry so a long-lived host sees campaign totals too (serial
        tasks already recorded into it directly).
        """
        merged = obs.merge_snapshots(
            *(record.pop("metrics", None) or {} for record in records)
        )
        if workers > 1:
            obs.get_registry().merge(merged)
        children = []
        for record in records:
            children.extend(record.pop("spans", None) or ())
        root = {
            "name": f"campaign:{plan.campaign_id}",
            "start_us": started_unix * 1e6,
            "dur_us": wall_s * 1e6,
            "attrs": {
                "campaign_id": plan.campaign_id,
                "workers": workers,
                "tasks": len(records),
            },
            "children": children,
        }
        return {"metrics": merged, "spans": [root], "blas_threads": blas_threads}


def _skip_record(task: StageTask, blocker: str, offset_s: float = 0.0) -> dict:
    return {
        "id": task.id,
        "stage": task.stage,
        "status": "skipped",
        "skipped_because": blocker,
        "cache_hit": False,
        "attempts": 0,
        "wall_time_s": 0.0,
        "started_offset_s": offset_s,
        "ended_offset_s": offset_s,
    }


def _pending_record(task: StageTask) -> dict:
    """Placeholder row for a task a crashed run never settled."""
    return {
        "id": task.id,
        "stage": task.stage,
        "status": "pending",
        "cache_hit": False,
        "attempts": 0,
        "wall_time_s": 0.0,
        "started_offset_s": 0.0,
        "ended_offset_s": 0.0,
    }


def _dependents(tasks: list[StageTask]) -> dict[str, list[str]]:
    """Each task's direct dependents, after checking the graph can run.

    A dependency on a task outside the plan, or a cycle, raises
    ``ValueError`` before anything is journaled or executed.
    """
    dependents: dict[str, list[str]] = {task.id: [] for task in tasks}
    for task in tasks:
        for dep in task.deps:
            if dep not in dependents:
                raise ValueError(f"task {task.id} depends on unknown task {dep!r}")
            dependents[dep].append(task.id)
    unmet = {task.id: len(task.deps) for task in tasks}
    ordered = [task_id for task_id, count in unmet.items() if not count]
    for task_id in ordered:  # grows while iterated: Kahn's algorithm
        for child in dependents[task_id]:
            unmet[child] -= 1
            if not unmet[child]:
                ordered.append(child)
    if len(ordered) < len(tasks):
        cycle = ", ".join(task_id for task_id, count in unmet.items() if count)
        raise ValueError(f"dependency cycle in campaign plan: {cycle}")
    return dependents


class _Executor:
    """Where the scheduler's task attempts run.

    ``submit(task, payload)`` hands over one attempt; ``wait()`` blocks
    until at least one attempt settles and returns ``(task_id, record)``
    pairs.  Every submitted attempt comes back from ``wait`` exactly
    once, as a :func:`~repro.runtime.worker.run_task` record.
    ``heartbeat_dir`` (``None`` arms no deadlines) rides in every
    payload; ``blas_threads`` is recorded in the manifest.
    """

    heartbeat_dir: Path | None = None
    blas_threads: dict

    def __enter__(self) -> "_Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class _InProcessExecutor(_Executor):
    """Runs attempts in this process, oldest first, one per ``wait`` —
    so each task is settled and journaled before the next one starts.

    Tasks of one spec share an :class:`~repro.api.experiment.Experiment`
    (the caller's, for its own spec), and compute with this process's
    own BLAS thread count.
    """

    def __init__(self, store, experiment: Experiment | None):
        self._store = store
        self._experiments: dict[str, Experiment] = (
            {} if experiment is None else {experiment.spec_hash: experiment}
        )
        self._queue: collections.deque = collections.deque()
        self.blas_threads = {"per_worker": blas.get_threads(), "source": "inherited"}

    def submit(self, task: StageTask, payload: dict) -> None:
        self._queue.append((task.spec, payload))

    def wait(self) -> list[tuple[str, dict]]:
        spec, payload = self._queue.popleft()
        experiment = self._experiments.get(spec.spec_hash)
        if experiment is None:
            experiment = Experiment(spec, store=self._store)
            self._experiments[spec.spec_hash] = experiment
        return [(payload["id"], run_task(payload, experiment=experiment))]


class _PoolExecutor(_Executor):
    """Runs attempts on a ``ProcessPoolExecutor`` and keeps it healthy.

    Workers size their BLAS threads to their share of the cores
    (:func:`repro.utils.blas.pool_threads`).  With a store, workers
    beat heartbeat files under its scratch area and a task observed
    running past its wall-clock budget has its worker SIGKILLed.  A
    broken pool — that kill, or a worker lost to SIGKILL/OOM — hands
    back every in-flight attempt as a ``timeout`` / ``worker-lost``
    error record and is respawned.
    """

    def __init__(self, workers: int, store, campaign_id: str, emit, timeout_of):
        self._workers = workers
        self._store = store
        self._campaign_id = campaign_id
        self._emit = emit
        self._timeout_of = timeout_of
        per_worker, source = blas.pool_threads(workers)
        if source == "unavailable":
            emit("runtime.blas_threads_unavailable", workers=workers)
        self.blas_threads = {"per_worker": per_worker, "source": source}
        self._pool: ProcessPoolExecutor | None = None
        # future -> (task, attempt, timeout_s, submitted perf_counter)
        self._in_flight: dict = {}
        self._deadlines: dict = {}  # future -> perf_counter deadline
        self._reaped: set[str] = set()  # task ids whose hung worker *we* killed

    def __enter__(self) -> "_PoolExecutor":
        if self._store is not None:
            self.heartbeat_dir = self._store.scratch_dir("heartbeats", self._campaign_id)
        self._pool = self._process_pool()
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.heartbeat_dir is not None:
            shutil.rmtree(self.heartbeat_dir, ignore_errors=True)

    def _process_pool(self) -> ProcessPoolExecutor:
        """The one pool constructor — the first pool and every respawn
        size their workers' BLAS threads alike."""
        sized = self.blas_threads["source"] == "sized"
        return ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=blas.set_threads if sized else None,
            initargs=(self.blas_threads["per_worker"],),
        )

    def submit(self, task: StageTask, payload: dict) -> None:
        future = self._pool.submit(run_task, payload)
        timeout_s = self._timeout_of(task)
        self._in_flight[future] = (task, payload["attempt"], timeout_s, time.perf_counter())
        # Reaping needs a heartbeat (to find the pid and to tell hung
        # from queued), so timeouts are enforced only when the store
        # provides a scratch area.
        if timeout_s is not None and self.heartbeat_dir is not None:
            self._deadlines[future] = time.perf_counter() + timeout_s

    def wait(self) -> list[tuple[str, dict]]:
        timeout = None
        if self._deadlines:
            # Block at most until the earliest in-flight deadline.
            timeout = max(0.05, min(self._deadlines.values()) - time.perf_counter())
        done, _pending = wait(self._in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
        settled = []
        for future in done:
            try:
                record = future.result()
            except BrokenProcessPool:
                # The rest of the broken pool's attempts come back lost.
                return settled + self._respawn()
            task = self._in_flight.pop(future)[0]
            self._deadlines.pop(future, None)
            settled.append((task.id, record))
        if not done:
            self._reap_overdue()
        return settled

    def _respawn(self) -> list[tuple[str, dict]]:
        """The pool broke (worker SIGKILL/OOM, or our own reap): hand
        back every in-flight attempt as lost, then start a fresh pool."""
        lost = []
        for task, attempt, timeout_s, submitted in self._in_flight.values():
            if task.id in self._reaped:
                error_class, detail = "timeout", (
                    f"task exceeded its {timeout_s}s wall-clock timeout; "
                    "the hung worker was killed"
                )
            else:
                error_class, detail = "worker-lost", (
                    "worker process died mid-task (process pool broke); "
                    "the pool was respawned"
                )
                self._emit("runtime.worker_lost", task_id=task.id, attempt=attempt)
            if self.heartbeat_dir is not None:
                with contextlib.suppress(OSError):
                    heartbeat_path(self.heartbeat_dir, task.id).unlink()
            record = {
                "id": task.id,
                "stage": task.stage,
                "status": "error",
                "cache_hit": False,
                "error": detail,
                "error_type": error_class,
                "wall_time_s": time.perf_counter() - submitted,
            }
            lost.append((task.id, record))
        self._in_flight.clear()
        self._deadlines.clear()
        self._reaped.clear()
        obs.metrics().counter("runtime.workers_lost_total").inc()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._emit("runtime.pool_respawned", workers=self._workers)
        self._pool = self._process_pool()
        return lost

    def _reap_overdue(self) -> None:
        """SIGKILL workers whose task blew its wall-clock budget.

        A missing or stale heartbeat means the task is still queued (or
        its worker just started), so its deadline re-arms instead;
        killing is reserved for tasks *observed* running past their
        budget.  The kill breaks the pool — the next ``wait`` surfaces
        it and :meth:`_respawn` hands every in-flight attempt back.
        """
        now = time.perf_counter()
        for future, (task, attempt, timeout_s, _submitted) in self._in_flight.items():
            deadline = self._deadlines.get(future)
            if deadline is None or now < deadline:
                continue
            beat = self._read_heartbeat(task.id)
            if beat is None or beat.get("attempt") != attempt:
                self._deadlines[future] = now + timeout_s
                continue
            elapsed = wall_time_unix() - float(beat.get("started_unix", 0.0))
            if elapsed < timeout_s:
                self._deadlines[future] = now + (timeout_s - elapsed)
                continue
            self._reaped.add(task.id)
            obs.metrics().counter("runtime.tasks_reaped_total").inc()
            pid = beat.get("pid")
            self._emit(
                "runtime.task_timeout",
                task_id=task.id, attempt=attempt, timeout_s=timeout_s, pid=pid,
            )
            if isinstance(pid, int) and pid > 0:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)

    def _read_heartbeat(self, task_id: str) -> dict | None:
        try:
            with open(heartbeat_path(self.heartbeat_dir, task_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None


def run_campaign(
    specs,
    stages=None,
    store=_DEFAULT_STORE,
    workers: int = 1,
    retries: int = 1,
    seed: int = 0,
    experiment: Experiment | None = None,
    policy: RetryPolicy | None = None,
    task_timeout_s: float | None = None,
) -> CampaignResult:
    """Plan and run the standard pipeline over ``specs`` in one call."""
    plan = plan_campaign(specs, stages=None if stages is None else tuple(stages), seed=seed)
    engine = CampaignEngine(
        store=store,
        workers=workers,
        retries=retries,
        policy=policy,
        task_timeout_s=task_timeout_s,
    )
    return engine.run(plan, experiment=experiment)
