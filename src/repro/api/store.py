"""Content-addressed on-disk artifact store.

Simulation and pre-training dominate experiment wall time.  The store
keys every expensive artifact — raw traces and trained checkpoints — by
a stable content hash of everything that produced it, so a repeated run
hits disk instead of re-simulating or re-training.

A windowed :class:`~repro.datasets.generation.DatasetBundle` is not
stored: each packet sits in ~``window_len / stride`` windows, so its
arrays are far larger than the traces they are cut from and slower to
write and read back than to re-window.  The store keeps a small JSON
record per bundle (name, receiver index, packet and window counts,
provenance) and the windows are rebuilt from the stored traces.

Layout (one ``.npz`` per array artifact, one ``.json`` per record)::

    <root>/traces/<key>-run<i>.npz   (+ <key>.meta.json sidecar)
    <root>/bundles/<key>.json
    <root>/checkpoints/<key>.npz
    <root>/evaluations/<key>.json
    <root>/manifests/<name>.json

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.  Writes
go through a temp file + atomic rename so concurrent readers never
observe a partial artifact, and a lost publish race against another
worker writing the same key counts as success — content-addressed
artifacts with the same key are interchangeable.

Every payload is stamped with :data:`ARTIFACT_SCHEMA_VERSION`; a stored
artifact whose stamp does not match the running code is treated as a
cache miss, so stale artifacts written by older code are never silently
served (cache *keys* cover configs, not code).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.api.hashing import stable_hash
from repro.api.spec import (
    ntt_config_from_dict,
    ntt_config_to_dict,
    scenario_config_to_dict,
    window_config_to_dict,
)
from repro.core.features import FeaturePipeline
from repro.core.finetune import FinetuneResult
from repro.core.model import NTT, NTTConfig, NTTForDelay, NTTForMCT
from repro.core.pretrain import PretrainResult, TrainSettings
from repro.datasets.generation import DatasetBundle
from repro.datasets.normalize import FeatureScaler
from repro.datasets.windows import WindowConfig
from repro.netsim.scenarios import ScenarioConfig
from repro.netsim.trace import Trace
from repro.nn.serialize import load_state, save_checkpoint
from repro.nn.trainer import TrainingHistory

__all__ = [
    "ArtifactStore",
    "ARTIFACT_SCHEMA_VERSION",
    "traces_key",
    "bundle_key",
    "pretrained_key",
    "finetuned_key",
    "scratch_key",
    "evaluation_key",
    "precision_key",
]

#: Environment variable selecting the store root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Version of the on-disk artifact *payloads*.  Bump whenever the code
#: that produces artifacts changes behaviour (simulator streams, model
#: layout, serialisation) so that artifacts written by older code become
#: cache misses instead of being silently served.
ARTIFACT_SCHEMA_VERSION = 2

KINDS = ("traces", "checkpoints")

#: Artifact kinds stored as JSON documents rather than ``.npz`` arrays.
#: A ``bundles/<key>.npz`` left by older code is never read; ``clear``
#: still removes it.
JSON_KINDS = ("bundles", "evaluations", "manifests")

_META_KEY = "__meta__"


# -- cache keys -------------------------------------------------------------------


def traces_key(scenario: ScenarioConfig, n_runs: int) -> str:
    """Key for the raw traces of one scenario."""
    return stable_hash({"artifact": "traces", "scenario": scenario, "n_runs": n_runs})


def bundle_key(
    scenario: ScenarioConfig,
    window: WindowConfig,
    n_runs: int,
    receiver_index: dict[int, int] | None = None,
) -> str:
    """Key for a windowed dataset bundle.

    ``receiver_index`` covers the cross-bundle coupling: fine-tuning
    bundles inherit the pre-training receiver identities, so a different
    pre-training setup must produce a different fine-tuning bundle.
    """
    return stable_hash(
        {
            "artifact": "bundle",
            "scenario": scenario,
            "window": window,
            "n_runs": n_runs,
            "receiver_index": receiver_index,
        }
    )


def pretrained_key(
    scenario: ScenarioConfig,
    window: WindowConfig,
    n_runs: int,
    model_config: NTTConfig,
    settings: TrainSettings,
) -> str:
    """Key for a pre-trained checkpoint."""
    return stable_hash(
        {
            "artifact": "pretrained",
            "scenario": scenario,
            "window": window,
            "n_runs": n_runs,
            "model": model_config,
            "settings": settings,
        }
    )


def finetuned_key(
    base_key: str,
    scenario: ScenarioConfig,
    task: str,
    mode: str,
    fraction: float | None,
    settings: TrainSettings,
) -> str:
    """Key for a fine-tuned checkpoint derived from ``base_key``."""
    return stable_hash(
        {
            "artifact": "finetuned",
            "base": base_key,
            "scenario": scenario,
            "task": task,
            "mode": mode,
            "fraction": fraction,
            "settings": settings,
        }
    )


def scratch_key(
    base_key: str,
    scenario: ScenarioConfig,
    task: str,
    fraction: float | None,
    model_config: NTTConfig,
    settings: TrainSettings,
) -> str:
    """Key for a from-scratch model (no pre-training, full training).

    ``base_key`` identifies the pre-training run whose fitted feature
    pipeline normalises the from-scratch model's inputs.
    """
    return stable_hash(
        {
            "artifact": "scratch",
            "base": base_key,
            "scenario": scenario,
            "task": task,
            "fraction": fraction,
            "model": model_config,
            "settings": settings,
        }
    )


def evaluation_key(model_key: str, scenario: ScenarioConfig, task: str) -> str:
    """Key for a cached evaluation of one model on one scenario."""
    return stable_hash(
        {
            "artifact": "evaluation",
            "model": model_key,
            "scenario": scenario,
            "task": task,
        }
    )


def precision_key(base: str | None, precision: str | None) -> str | None:
    """Fold a non-default compute precision into a training cache key.

    The default (``float64`` / ``None``) is the identity — exactly like
    ``Stage.version`` 0 — so every pre-existing float64 key stays
    byte-identical; float32 artifacts get their own address.
    """
    if base is None or precision in (None, "float64"):
        return base
    return stable_hash({"base": base, "precision": precision})


# -- (de)hydration helpers --------------------------------------------------------


def _scaler_to_dict(scaler: FeatureScaler) -> dict[str, object] | None:
    return scaler.to_dict() if scaler.fitted else None


def _pipeline_to_dict(pipeline: FeaturePipeline) -> dict[str, object]:
    return {
        "feature_scaler": _scaler_to_dict(pipeline.feature_scaler),
        "message_size_scaler": _scaler_to_dict(pipeline.message_size_scaler),
        "mct_scaler": _scaler_to_dict(pipeline.mct_scaler),
    }


def _pipeline_from_dict(payload: dict[str, object]) -> FeaturePipeline:
    pipeline = FeaturePipeline()
    for name in ("feature_scaler", "message_size_scaler", "mct_scaler"):
        stored = payload.get(name)
        if stored is not None:
            setattr(pipeline, name, FeatureScaler.from_dict(stored))
    return pipeline


def _history_to_dict(history: TrainingHistory) -> dict[str, object]:
    return {
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "lr": history.lr,
        "wall_time": history.wall_time,
        "epochs_run": history.epochs_run,
        "stopped_early": history.stopped_early,
    }


def _history_from_dict(payload: dict[str, object]) -> TrainingHistory:
    return TrainingHistory(**payload)


class ArtifactStore:
    """Content-addressed cache of traces, checkpoints and JSON records."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV)
        if root is None:
            root = Path.home() / ".cache" / "repro"
        self.root = Path(root)

    @classmethod
    def from_env(cls) -> "ArtifactStore":
        """The default store (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
        return cls()

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"

    # -- generic access ----------------------------------------------------------

    def path(self, kind: str, key: str) -> Path:
        """Where an artifact of this kind/key lives (existing or not)."""
        if kind in JSON_KINDS:
            return self.root / kind / f"{key}.json"
        if kind not in KINDS:
            raise ValueError(
                f"unknown artifact kind {kind!r}; choose from {KINDS + JSON_KINDS}"
            )
        return self.root / kind / f"{key}.npz"

    def has(self, kind: str, key: str) -> bool:
        return self.path(kind, key).exists()

    def is_current(self, kind: str, key: str) -> bool:
        """Whether a *servable* artifact is stored: present **and**
        stamped with the current schema version.

        Cheaper than the ``get_*`` loaders (only the stamp is read), so
        campaign workers use it for cache-hit accounting — an artifact
        from older code must count as a miss, exactly as the loaders
        treat it.  For ``traces`` the sidecar's own run count is used;
        :meth:`has_traces` additionally pins an expected ``n_runs``.
        """
        if kind == "traces":
            # Trace sets live as <key>-run<i>.npz + sidecar, not <key>.npz.
            try:
                with open(self._trace_meta_path(key), "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError):
                return False
            return (
                meta.get("schema_version") == ARTIFACT_SCHEMA_VERSION
                and isinstance(meta.get("n_runs"), int)
                and all(path.exists() for path in self.trace_paths(key, meta["n_runs"]))
            )
        path = self.get(kind, key)
        if path is None:
            return False
        if kind in JSON_KINDS:
            return self.get_json(kind, key) is not None
        try:
            # Checkpoints carry the stamp inside their JSON metadata
            # member (save_checkpoint owns the layout).
            with np.load(path) as data:
                if _META_KEY not in data.files:
                    return False
                metadata = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
                return metadata.get("schema_version") == ARTIFACT_SCHEMA_VERSION
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return False

    def get(self, kind: str, key: str) -> Path | None:
        """The artifact's path if present, else ``None``."""
        path = self.path(kind, key)
        return path if path.exists() else None

    def keys(self, kind: str) -> list[str]:
        path = self.path(kind, "probe")  # validates the kind
        directory = path.parent
        if not directory.is_dir():
            return []
        return sorted(entry.stem for entry in directory.glob(f"*{path.suffix}"))

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-kind entry counts and byte totals (for ``repro cache``)."""
        report = {}
        for kind in KINDS + JSON_KINDS:
            directory = self.root / kind
            suffix = "json" if kind in JSON_KINDS else "npz"
            files = list(directory.glob(f"*.{suffix}")) if directory.is_dir() else []
            report[kind] = {
                "count": len(files),
                "bytes": sum(path.stat().st_size for path in files),
            }
        return report

    def clear(self, kind: str | None = None) -> int:
        """Delete artifacts (of one kind, or all); returns files removed."""
        kinds = KINDS + JSON_KINDS if kind is None else (kind,)
        removed = 0
        for name in kinds:
            if name not in KINDS + JSON_KINDS:
                raise ValueError(
                    f"unknown artifact kind {name!r}; choose from {KINDS + JSON_KINDS}"
                )
            directory = self.root / name
            if not directory.is_dir():
                continue
            for path in directory.glob("*.npz"):
                path.unlink()
                removed += 1
            for path in directory.glob("*.json"):
                path.unlink()
                removed += 1
            # Campaign journals ride alongside manifests as .jsonl.
            for path in directory.glob("*.jsonl"):
                path.unlink()
                removed += 1
        return removed

    @staticmethod
    def _temp_path(path: Path) -> Path:
        # Keeps the .npz suffix: np.savez appends one otherwise.  The
        # pid makes concurrent workers' temp files distinct.
        return path.with_name(f".tmp-{os.getpid()}-{path.name}")

    @staticmethod
    def _publish(temp: Path, path: Path) -> None:
        """Atomically move ``temp`` into place.

        Losing a rename race against another worker publishing the same
        key is fine: both wrote equivalent content-addressed payloads.
        """
        try:
            os.replace(temp, path)
        except FileExistsError:
            # Non-POSIX semantics; the other writer's artifact serves.
            temp.unlink(missing_ok=True)

    # -- JSON records (bundles, evaluations, campaign manifests) ------------------

    def put_json(self, kind: str, key: str, payload: dict[str, object]) -> Path:
        """Store a JSON record (``bundles`` / ``evaluations`` / ``manifests``)."""
        if kind not in JSON_KINDS:
            raise ValueError(f"unknown JSON kind {kind!r}; choose from {JSON_KINDS}")
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"schema_version": ARTIFACT_SCHEMA_VERSION, **payload}
        temp = self._temp_path(path)
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True, default=str)
                # Durability, not just atomicity: without the fsync a
                # crash shortly after os.replace can surface a complete
                # rename pointing at never-flushed data blocks.
                handle.flush()
                os.fsync(handle.fileno())
            self._publish(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        return path

    def get_json(self, kind: str, key: str) -> dict[str, object] | None:
        """Load a JSON record; schema mismatches read as cache misses."""
        path = self.get(kind, key)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            return None
        document.pop("schema_version", None)
        return document

    def put_manifest(self, name: str, manifest: dict[str, object]) -> Path:
        """Persist a campaign manifest (see :mod:`repro.runtime`)."""
        return self.put_json("manifests", name, manifest)

    def get_manifest(self, name: str) -> dict[str, object] | None:
        return self.get_json("manifests", name)

    def journal_path(self, campaign_id: str) -> Path:
        """Where a campaign's append-only journal lives (see
        :mod:`repro.runtime.journal`); the directory is created.

        ``.jsonl`` keeps journals out of the ``.json`` manifest globs —
        a journal is a write-ahead log, not a servable JSON record.
        """
        path = self.root / "manifests" / f"{campaign_id}.journal.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def scratch_dir(self, *parts: str) -> Path:
        """A created directory under ``<root>/scratch`` for transient
        coordination state (worker heartbeats, locks) that is neither
        content-addressed nor schema-stamped."""
        path = self.root.joinpath("scratch", *parts)
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- traces ------------------------------------------------------------------

    def trace_paths(self, key: str, n_runs: int) -> list[Path]:
        return [self.root / "traces" / f"{key}-run{i}.npz" for i in range(n_runs)]

    def _trace_meta_path(self, key: str) -> Path:
        # Trace files are written by Trace.save, so the schema stamp
        # lives in a per-key sidecar covering the whole run set.
        return self.root / "traces" / f"{key}.meta.json"

    def has_traces(self, key: str, n_runs: int) -> bool:
        """Whether a complete, current-schema run set is stored (without
        loading the traces).

        Besides the schema stamp, the sidecar must carry
        ``message_id_scope: "simulation"``: older run sets drew message
        ids from a process-global counter, so their ``message_id``
        column depended on in-process run order.  The relabeling is
        semantically inert downstream (bundles carry no message ids,
        only relabel-invariant MCT values), so rejecting just the trace
        sidecar re-simulates cheaply without invalidating bundles or
        checkpoints.
        """
        meta_path = self._trace_meta_path(key)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            meta.get("schema_version") == ARTIFACT_SCHEMA_VERSION
            and meta.get("message_id_scope") == "simulation"
            and meta.get("n_runs") == n_runs
            and all(path.exists() for path in self.trace_paths(key, n_runs))
        )

    def get_traces(self, key: str, n_runs: int) -> list[Trace] | None:
        if not self.has_traces(key, n_runs):
            return None
        return [Trace.load(path) for path in self.trace_paths(key, n_runs)]

    def put_trace_run(self, key: str, run_index: int, trace: Trace) -> Path:
        """Stream one simulation run's columns into the store.

        Used by the trace stage to write each run as soon as it is
        generated instead of materialising the whole run set in memory;
        the run set only becomes visible to readers once
        :meth:`finalize_trace_runs` publishes the sidecar.
        """
        path = self.trace_paths(key, run_index + 1)[run_index]
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = self._temp_path(path)
        try:
            trace.save(temp)
            self._publish(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        return path

    def finalize_trace_runs(
        self, key: str, n_runs: int, total_packets: int | None = None
    ) -> None:
        """Publish the sidecar marking a streamed run set complete.

        The sidecar lands last: readers only trust a complete run set.
        ``total_packets`` is recorded so cache-hit bookkeeping can
        report run-set statistics without loading any npz.
        """
        meta = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "message_id_scope": "simulation",
            "n_runs": n_runs,
        }
        if total_packets is not None:
            meta["total_packets"] = int(total_packets)
        meta_path = self._trace_meta_path(key)
        temp = self._temp_path(meta_path)
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(meta, handle)
                handle.flush()
                os.fsync(handle.fileno())
            self._publish(temp, meta_path)
        finally:
            temp.unlink(missing_ok=True)

    def trace_run_meta(self, key: str) -> dict[str, object] | None:
        """The sidecar of a stored run set, or ``None`` when absent."""
        try:
            with open(self._trace_meta_path(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def put_traces(self, key: str, traces: list[Trace]) -> None:
        for run_index, trace in enumerate(traces):
            self.put_trace_run(key, run_index, trace)
        self.finalize_trace_runs(
            key, len(traces), total_packets=sum(len(trace) for trace in traces)
        )

    # -- dataset bundle records -------------------------------------------------

    def put_bundle(self, key: str, bundle: DatasetBundle) -> Path:
        """Record a bundle's counts and provenance (not its windows)."""
        return self.put_json(
            "bundles",
            key,
            {
                "name": bundle.name,
                "receiver_index": {str(k): v for k, v in bundle.receiver_index.items()},
                "n_packets": bundle.n_packets,
                "n_windows": bundle.n_windows,
                "scenario": scenario_config_to_dict(bundle.scenario),
                "window": window_config_to_dict(bundle.window_config),
            },
        )

    def get_bundle(self, key: str) -> dict[str, object] | None:
        """A bundle's record as :meth:`put_bundle` wrote it (receiver ids
        as string keys), or ``None`` on a miss or a stale record."""
        return self.get_json("bundles", key)

    # -- pre-trained checkpoints -------------------------------------------------

    def put_pretrained(self, key: str, result: PretrainResult) -> Path:
        path = self.path("checkpoints", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = self._temp_path(path)
        try:
            save_checkpoint(
                result.model,
                temp,
                metadata={
                    "role": "pretrained",
                    "schema_version": ARTIFACT_SCHEMA_VERSION,
                    "config": ntt_config_to_dict(result.model.config),
                    "pipeline": _pipeline_to_dict(result.pipeline),
                    "history": _history_to_dict(result.history),
                    "test_mse_seconds2": result.test_mse_seconds2,
                },
            )
            self._publish(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        return path

    def get_pretrained(self, key: str) -> PretrainResult | None:
        path = self.get("checkpoints", key)
        if path is None:
            return None
        state, metadata = load_state(path)
        if metadata.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            return None
        model = NTTForDelay(ntt_config_from_dict(metadata["config"]))
        model.load_state_dict(state)
        return PretrainResult(
            model=model,
            pipeline=_pipeline_from_dict(metadata["pipeline"]),
            history=_history_from_dict(metadata["history"]),
            test_mse_seconds2=metadata["test_mse_seconds2"],
        )

    # -- fine-tuned checkpoints --------------------------------------------------

    def put_finetuned(
        self, key: str, result: FinetuneResult, pipeline: FeaturePipeline
    ) -> Path:
        path = self.path("checkpoints", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = self._temp_path(path)
        try:
            save_checkpoint(
                result.model,
                temp,
                metadata={
                    "role": "finetuned",
                    "schema_version": ARTIFACT_SCHEMA_VERSION,
                    "task": result.task,
                    "mode": result.mode,
                    "config": ntt_config_to_dict(result.model.config),
                    "pipeline": _pipeline_to_dict(pipeline),
                    "history": _history_to_dict(result.history),
                    "test_mse": result.test_mse,
                },
            )
            self._publish(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        return path

    def get_finetuned(self, key: str) -> tuple[FinetuneResult, FeaturePipeline] | None:
        path = self.get("checkpoints", key)
        if path is None:
            return None
        state, metadata = load_state(path)
        if metadata.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
            return None
        config = ntt_config_from_dict(metadata["config"])
        if metadata["task"] == "mct":
            model = NTTForMCT(config, NTT(config))
        else:
            model = NTTForDelay(config)
        model.load_state_dict(state)
        result = FinetuneResult(
            model=model,
            history=_history_from_dict(metadata["history"]),
            test_mse=metadata["test_mse"],
            mode=metadata["mode"],
            task=metadata["task"],
        )
        return result, _pipeline_from_dict(metadata["pipeline"])
