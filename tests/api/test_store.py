"""Tests for the content-addressed artifact store.

Checkpoint round-trips are bit-for-bit, bundle records round-trip,
same-spec lookups hit, changed seed/window lookups miss, and a second
experiment with the same spec never re-simulates or re-trains.
"""

import json

import numpy as np
import pytest

import repro.api.experiment as experiment_module
import repro.core.pipeline as pipeline_module
from repro.api import ArtifactStore, Experiment, ExperimentSpec, Predictor
from repro.api.spec import scenario_config_to_dict, window_config_to_dict
from repro.api.store import bundle_key, finetuned_key, pretrained_key, traces_key
from repro.cli import main
from repro.core.model import NTTConfig, NTTForDelay
from repro.core.pipeline import get_scale
from repro.core.pretrain import TrainSettings, pretrain
from repro.netsim.scenarios import ScenarioConfig, ScenarioKind, generate_traces
from repro.nn.serialize import load_checkpoint, save_checkpoint

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def smoke_pretrain(smoke_bundle):
    """One tiny pre-training run shared by the round-trip tests."""
    return pretrain(NTTConfig.smoke(), smoke_bundle, settings=FAST)


class TestGenericAccess:
    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError, match="bundles"):
            store.path("models", "abc")

    def test_get_missing_returns_none(self, store):
        assert store.get("bundles", "missing") is None

    def test_summary_counts_files(self, store, smoke_bundle):
        store.put_bundle("k1", smoke_bundle)
        summary = store.summary()
        assert summary["bundles"]["count"] == 1
        assert summary["bundles"]["bytes"] > 0

    def test_clear(self, store, smoke_bundle):
        store.put_bundle("k1", smoke_bundle)
        assert store.clear() == 1
        assert store.keys("bundles") == []

    def test_default_root_is_the_session_store(self, repro_cache_dir):
        # Unless REPRO_CACHE_DIR is set, the suite's default store is a
        # fresh per-session directory, never ~/.cache/repro.
        assert ArtifactStore().root == repro_cache_dir


class TestBundleRoundTrip:
    def test_record_survives(self, store, smoke_bundle):
        """Only the record is stored; the windows are re-derived from the
        traces (see tests/core/test_pipeline.py::TestDerivedBundles)."""
        path = store.put_bundle("key", smoke_bundle)
        assert path.suffix == ".json"
        assert store.get_bundle("key") == {
            "name": smoke_bundle.name,
            "receiver_index": {str(k): v for k, v in smoke_bundle.receiver_index.items()},
            "n_packets": smoke_bundle.n_packets,
            "n_windows": smoke_bundle.n_windows,
            "scenario": scenario_config_to_dict(smoke_bundle.scenario),
            "window": window_config_to_dict(smoke_bundle.window_config),
        }

    def test_legacy_npz_never_read_and_cleared(self, store, smoke_bundle, capsys):
        legacy = store.root / "bundles" / "key.npz"
        legacy.parent.mkdir(parents=True)
        np.savez(legacy, __schema_version__=np.int64(2), junk=np.zeros(3))
        assert store.get_bundle("key") is None
        assert not store.is_current("bundles", "key")
        assert store.keys("bundles") == []
        assert store.summary()["bundles"]["count"] == 0
        store.put_bundle("other", smoke_bundle)
        assert main(["cache", "clear", "--cache-dir", str(store.root)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert not legacy.exists()


class TestCheckpointRoundTrip:
    def test_save_get_load_is_bit_for_bit(self, store, smoke_bundle, smoke_pretrain):
        """save_checkpoint -> ArtifactStore.get -> load_checkpoint must
        reproduce identical predictions."""
        key = "roundtrip"
        save_checkpoint(
            smoke_pretrain.model, store.path("checkpoints", key), metadata={"x": 1}
        )
        path = store.get("checkpoints", key)
        assert path is not None

        fresh = NTTForDelay(NTTConfig.smoke())
        metadata = load_checkpoint(fresh, path)
        assert metadata == {"x": 1}

        test = smoke_bundle.test
        original = Predictor(smoke_pretrain.model, smoke_pretrain.pipeline)
        restored = Predictor(fresh, smoke_pretrain.pipeline)
        assert np.array_equal(
            original.predict_dataset(test), restored.predict_dataset(test)
        )

    def test_pretrained_result_roundtrip(self, store, smoke_bundle, smoke_pretrain):
        store.put_pretrained("key", smoke_pretrain)
        restored = store.get_pretrained("key")
        assert restored.test_mse_seconds2 == smoke_pretrain.test_mse_seconds2
        assert restored.history.epochs_run == smoke_pretrain.history.epochs_run
        test = smoke_bundle.test
        assert np.array_equal(
            Predictor(smoke_pretrain.model, smoke_pretrain.pipeline).predict_dataset(test),
            Predictor(restored.model, restored.pipeline).predict_dataset(test),
        )


class TestCacheKeys:
    def test_same_inputs_hit(self):
        scenario = ScenarioConfig.smoke(ScenarioKind.PRETRAIN)
        scale = get_scale("smoke")
        assert bundle_key(scenario, scale.window, 1) == bundle_key(
            ScenarioConfig.smoke(ScenarioKind.PRETRAIN), scale.window, 1
        )
        assert pretrained_key(
            scenario, scale.window, 1, NTTConfig.smoke(), FAST
        ) == pretrained_key(scenario, scale.window, 1, NTTConfig.smoke(), FAST)

    def test_changed_seed_misses(self):
        scale = get_scale("smoke")
        assert bundle_key(
            ScenarioConfig.smoke(seed=0), scale.window, 1
        ) != bundle_key(ScenarioConfig.smoke(seed=1), scale.window, 1)

    def test_changed_window_misses(self):
        scenario = ScenarioConfig.smoke()
        scale = get_scale("smoke")
        from repro.datasets.windows import WindowConfig

        assert bundle_key(scenario, scale.window, 1) != bundle_key(
            scenario, WindowConfig(window_len=32, stride=4), 1
        )

    def test_model_and_settings_key_checkpoints(self):
        scenario = ScenarioConfig.smoke()
        scale = get_scale("smoke")
        base = pretrained_key(scenario, scale.window, 1, NTTConfig.smoke(), FAST)
        assert base != pretrained_key(
            scenario, scale.window, 1, NTTConfig.smoke(n_layers=2), FAST
        )
        assert base != pretrained_key(
            scenario, scale.window, 1, NTTConfig.smoke(), FAST.scaled(2)
        )

    def test_artifact_kinds_never_collide(self):
        scenario = ScenarioConfig.smoke()
        scale = get_scale("smoke")
        assert traces_key(scenario, 1) != bundle_key(scenario, scale.window, 1)

    def test_finetuned_key_depends_on_task_and_fraction(self):
        scenario = ScenarioConfig.smoke(ScenarioKind.CASE1)
        base = finetuned_key("abc", scenario, "delay", "decoder_only", None, FAST)
        assert base != finetuned_key("abc", scenario, "mct", "decoder_only", None, FAST)
        assert base != finetuned_key("abc", scenario, "delay", "decoder_only", 0.1, FAST)


class TestStoreBackedContext:
    """The acceptance criterion: a second experiment with the same spec
    is served from the store — no second simulation or training run."""

    @pytest.fixture
    def fast_spec(self):
        return ExperimentSpec(scale="smoke", pretrain=FAST, finetune=FAST)

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"generate_traces": 0, "generate_dataset": 0, "pretrain": 0}
        for module, name in (
            (experiment_module, "generate_traces"),
            (experiment_module, "generate_dataset"),
            (pipeline_module, "pretrain"),
        ):
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_second_context_never_recomputes(self, fast_spec, store, counters):
        """A second experiment re-windows the stored traces (bundles are
        derived views) but never re-simulates or re-trains."""
        first = Experiment(fast_spec, store=store)
        first.bundle(ScenarioKind.PRETRAIN)
        first.pretrained()
        assert counters == {"generate_traces": 1, "generate_dataset": 1, "pretrain": 1}

        second = Experiment(fast_spec, store=store)
        bundle = second.bundle(ScenarioKind.PRETRAIN)
        result = second.pretrained()
        assert counters == {"generate_traces": 1, "generate_dataset": 2, "pretrain": 1}
        assert len(bundle.train) == len(first.bundle(ScenarioKind.PRETRAIN).train)
        assert result.test_mse_seconds2 == first.pretrained().test_mse_seconds2

    def test_changed_seed_recomputes(self, fast_spec, store, counters):
        from dataclasses import replace

        Experiment(fast_spec, store=store).bundle(ScenarioKind.PRETRAIN)
        Experiment(replace(fast_spec, seed=1), store=store).bundle(ScenarioKind.PRETRAIN)
        assert counters["generate_traces"] == 2
        assert counters["generate_dataset"] == 2

    def test_changed_window_recomputes(self, fast_spec, store, counters):
        from dataclasses import replace

        from repro.datasets.windows import WindowConfig

        Experiment(fast_spec, store=store).bundle(ScenarioKind.PRETRAIN)
        narrow = replace(fast_spec, window=WindowConfig(window_len=32, stride=4))
        Experiment(narrow, store=store).bundle(ScenarioKind.PRETRAIN)
        assert counters["generate_dataset"] == 2
        assert counters["generate_traces"] == 1  # both windowings share the traces

    def test_storeless_context_still_works(self, fast_spec, counters):
        Experiment.uncached(fast_spec).bundle(ScenarioKind.PRETRAIN)
        Experiment.uncached(fast_spec).bundle(ScenarioKind.PRETRAIN)
        assert counters["generate_dataset"] == 2


class TestTraces:
    def test_trace_roundtrip(self, store):
        config = ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=7)
        traces = generate_traces(config, n_runs=2)
        key = traces_key(config, 2)
        assert store.get_traces(key, 2) is None
        store.put_traces(key, traces)
        restored = store.get_traces(key, 2)
        assert len(restored) == 2
        for original, loaded in zip(traces, restored):
            assert np.array_equal(original.send_time, loaded.send_time)
            assert np.array_equal(original.delay, loaded.delay)

    def test_has_traces_requires_complete_run_set(self, store):
        config = ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=7)
        traces = generate_traces(config, n_runs=2)
        key = traces_key(config, 2)
        store.put_traces(key, traces)
        assert store.has_traces(key, 2)
        assert not store.has_traces(key, 3)
        assert store.is_current("traces", key)  # run count from the sidecar
        store.trace_paths(key, 2)[1].unlink()
        assert not store.has_traces(key, 2)
        assert not store.is_current("traces", key)
        assert store.get_traces(key, 2) is None


class TestSchemaVersioning:
    """Artifacts stamped by older code must read as cache misses."""

    def test_bundle_stamp_roundtrip(self, store, smoke_bundle):
        from repro.api.store import ARTIFACT_SCHEMA_VERSION

        path = store.put_bundle("key", smoke_bundle)
        assert json.loads(path.read_text())["schema_version"] == ARTIFACT_SCHEMA_VERSION

    def test_stale_bundle_misses(self, store, smoke_bundle, monkeypatch):
        import repro.api.store as store_module

        path = store.put_bundle("key", smoke_bundle)
        assert store.get_bundle("key") is not None
        monkeypatch.setattr(store_module, "ARTIFACT_SCHEMA_VERSION", 999)
        assert store.get_bundle("key") is None
        assert path.exists()  # still on disk, just never served

    def test_unstamped_bundle_misses(self, store, smoke_bundle):
        # Simulate a pre-schema record: same fields, no stamp.
        path = store.put_bundle("key", smoke_bundle)
        record = json.loads(path.read_text())
        del record["schema_version"]
        path.write_text(json.dumps(record))
        assert store.get_bundle("key") is None
        assert not store.is_current("bundles", "key")

    def test_invalid_bundle_json_misses(self, store, smoke_bundle):
        path = store.put_bundle("key", smoke_bundle)
        path.write_text(path.read_text()[:-10])  # a torn write
        assert store.get_bundle("key") is None
        assert not store.is_current("bundles", "key")

    def test_stale_checkpoint_misses(self, store, smoke_pretrain, monkeypatch):
        import repro.api.store as store_module

        store.put_pretrained("key", smoke_pretrain)
        assert store.get_pretrained("key") is not None
        monkeypatch.setattr(store_module, "ARTIFACT_SCHEMA_VERSION", 999)
        assert store.get_pretrained("key") is None

    def test_stale_traces_miss(self, store, monkeypatch):
        import repro.api.store as store_module

        config = ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=7)
        key = traces_key(config, 1)
        store.put_traces(key, generate_traces(config, n_runs=1))
        assert store.get_traces(key, 1) is not None
        monkeypatch.setattr(store_module, "ARTIFACT_SCHEMA_VERSION", 999)
        assert store.get_traces(key, 1) is None

    def test_traces_with_global_message_ids_miss(self, store):
        """Run sets written before message ids moved onto the simulator
        (no ``message_id_scope`` in the sidecar) must re-simulate: their
        ``message_id`` column depended on in-process run order."""
        import json

        config = ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=7)
        key = traces_key(config, 1)
        store.put_traces(key, generate_traces(config, n_runs=1))
        meta_path = store._trace_meta_path(key)
        meta = json.loads(meta_path.read_text())
        assert meta["message_id_scope"] == "simulation"
        del meta["message_id_scope"]
        meta_path.write_text(json.dumps(meta))
        assert not store.has_traces(key, 1)
        assert store.get_traces(key, 1) is None

    def test_is_current_sees_through_stale_files(self, store, smoke_bundle, smoke_pretrain, monkeypatch):
        import repro.api.store as store_module

        store.put_bundle("b", smoke_bundle)
        store.put_pretrained("c", smoke_pretrain)
        store.put_json("evaluations", "e", {"x": 1})
        for kind, key in (("bundles", "b"), ("checkpoints", "c"), ("evaluations", "e")):
            assert store.is_current(kind, key), kind
        monkeypatch.setattr(store_module, "ARTIFACT_SCHEMA_VERSION", 999)
        for kind, key in (("bundles", "b"), ("checkpoints", "c"), ("evaluations", "e")):
            assert store.has(kind, key), kind  # the file is still there...
            assert not store.is_current(kind, key), kind  # ...but never serves

    def test_stale_json_misses(self, store, monkeypatch):
        import repro.api.store as store_module

        store.put_json("evaluations", "key", {"model_mse": 1.0})
        assert store.get_json("evaluations", "key") == {"model_mse": 1.0}
        monkeypatch.setattr(store_module, "ARTIFACT_SCHEMA_VERSION", 999)
        assert store.get_json("evaluations", "key") is None


class TestJsonRecords:
    def test_manifest_roundtrip(self, store):
        manifest = {"campaign_id": "abc", "summary": {"total": 3}}
        path = store.put_manifest("abc", manifest)
        assert path.suffix == ".json"
        assert store.get_manifest("abc") == manifest

    def test_unknown_json_kind_rejected(self, store):
        with pytest.raises(ValueError, match="JSON kind"):
            store.put_json("checkpoints", "key", {})

    def test_summary_and_clear_cover_json_kinds(self, store):
        store.put_json("evaluations", "e1", {"x": 1})
        store.put_manifest("m1", {"y": 2})
        summary = store.summary()
        assert summary["evaluations"]["count"] == 1
        assert summary["manifests"]["count"] == 1
        assert store.clear() == 2
        assert store.get_json("evaluations", "e1") is None


def _write_bundle_process(root, key: str, seed: int) -> str:
    """Top-level helper (picklable) for the concurrency test."""
    from repro.api import ArtifactStore
    from repro.datasets.generation import generate_dataset
    from repro.datasets.windows import WindowConfig

    bundle = generate_dataset(
        ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=7),
        window_config=WindowConfig(window_len=64, stride=4),
        n_runs=1,
        name="concurrent",
    )
    ArtifactStore(root).put_bundle(key, bundle)
    return key


class TestConcurrentWrites:
    """Worker-pool safety: same-key writers never corrupt the store."""

    def test_two_processes_same_key(self, store):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_write_bundle_process, str(store.root), "shared", seed)
                for seed in (0, 1)
            ]
            for future in futures:
                assert future.result() == "shared"
        # Exactly one record, no leftover temp files, loadable content.
        directory = store.root / "bundles"
        assert sorted(path.name for path in directory.iterdir()) == ["shared.json"]
        restored = store.get_bundle("shared")
        assert restored is not None
        assert restored["name"] == "concurrent"

    def test_publish_tolerates_lost_race(self, store, tmp_path):
        # Simulate FileExistsError semantics (non-POSIX os.replace).
        target = tmp_path / "artifact.npz"
        target.write_bytes(b"winner")
        temp = tmp_path / "temp.npz"
        temp.write_bytes(b"loser")
        import os

        real_replace = os.replace

        def raising_replace(src, dst):
            raise FileExistsError(dst)

        os.replace = raising_replace
        try:
            store._publish(temp, target)
        finally:
            os.replace = real_replace
        assert target.read_bytes() == b"winner"
        assert not temp.exists()
