"""Tests for the experiment pipeline (scales, experiment caches, table runners).

The table runners themselves are exercised end-to-end by the benchmark
suite; here we verify structure and caching on the smoke scale.
"""

import pytest

from repro.api import ArtifactStore, Experiment
from repro.api.registry import SCENARIOS
from repro.core.pipeline import format_rows, get_scale, run_table2
from repro.datasets.generation import generate_dataset
from repro.netsim.scenarios import ScenarioKind


class TestScales:
    def test_known_scales(self):
        for name in ("smoke", "small", "paper"):
            scale = get_scale(name)
            assert scale.name == name

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_env_default(self, monkeypatch):
        # The benchmark conftest is the one reader of the variable.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert get_scale().name == "small"

    def test_scenario_presets_per_scale(self):
        assert get_scale("paper").scenario(ScenarioKind.PRETRAIN).n_senders == 60
        assert get_scale("smoke").scenario(ScenarioKind.PRETRAIN).n_senders == 4

    def test_model_config_fits_window(self):
        for name in ("smoke", "small", "paper"):
            scale = get_scale(name)
            config = scale.model_config()
            assert config.aggregation.seq_len <= scale.window.window_len

    def test_aggregation_variants_fit_window(self):
        for name in ("smoke", "small", "paper"):
            scale = get_scale(name)
            for variant in scale.aggregation_variants.values():
                assert variant.seq_len <= scale.window.window_len, (name, variant)


class TestContext:
    """An experiment's in-memory caches."""

    def test_bundles_cached(self):
        experiment = Experiment.uncached(scale="smoke")
        first = experiment.bundle(ScenarioKind.PRETRAIN)
        second = experiment.bundle(ScenarioKind.PRETRAIN)
        assert first is second

    def test_case_bundles_share_receiver_index(self):
        experiment = Experiment.uncached(scale="smoke")
        pre = experiment.bundle(ScenarioKind.PRETRAIN)
        case1 = experiment.bundle(ScenarioKind.CASE1)
        for key, value in pre.receiver_index.items():
            assert case1.receiver_index[key] == value

    def test_pretrained_cached(self):
        experiment = Experiment.uncached(scale="smoke")
        assert experiment.pretrained() is experiment.pretrained()


def _assert_bundles_identical(got, want):
    assert got.receiver_index == want.receiver_index
    assert got.n_packets == want.n_packets
    for split in ("train", "val", "test"):
        for name in ("features", "receiver", "delay_target", "mct_target",
                     "message_size", "mct_seq", "end_seq"):
            a, b = getattr(getattr(got, split), name), getattr(getattr(want, split), name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (split, name)
            assert a.tobytes() == b.tobytes(), (split, name)


class TestDerivedBundles:
    """Bundles are re-windowed from the stored traces, never stored: the
    windows a store-backed experiment serves must be byte-identical to a
    store-less ``generate_dataset`` for every registered scenario."""

    def test_every_scenario_bit_identical_cold_warm_and_resimulated(self, tmp_path):
        scale = get_scale("smoke")

        def reference(kind, receiver_index=None):
            return generate_dataset(
                scale.scenario(kind), window_config=scale.window, n_runs=scale.n_runs,
                name=kind, receiver_index=receiver_index,
            )

        pretrain = reference(ScenarioKind.PRETRAIN)
        expected = {
            kind: pretrain if kind == ScenarioKind.PRETRAIN
            else reference(kind, pretrain.receiver_index)
            for kind in SCENARIOS.names()
        }
        store = ArtifactStore(tmp_path / "cache")
        for phase in ("cold", "warm", "resimulated"):
            if phase == "resimulated":
                store.clear("traces")
                assert store.keys("bundles")  # the records stay
            experiment = Experiment(scale="smoke", store=store)
            for kind, want in expected.items():
                _assert_bundles_identical(experiment.bundle(kind), want)
                key = experiment.bundle_store_key(kind)
                assert store.get_bundle(key)["n_windows"] == want.n_windows, (phase, kind)
                assert store.has_traces(experiment._task_key("traces", {"scenario": kind}),
                                        scale.n_runs), (phase, kind)


class TestRunners:
    def test_table2_structure(self):
        rows = run_table2(Experiment.uncached(scale="smoke"))
        assert set(rows) == {
            "pretrained_full",
            "pretrained_10pct",
            "scratch_full",
            "scratch_10pct",
        }
        for row in rows.values():
            assert row["delay_mse"] > 0
            assert row["training_time_s"] > 0
        # Decoder-only fine-tuning must be faster than full training on
        # the same data.
        assert (
            rows["pretrained_full"]["training_time_s"]
            < rows["scratch_full"]["training_time_s"]
        )

    def test_format_rows_readable(self):
        text = format_rows({"row": {"delay_mse": 0.001, "note": "x"}})
        assert "row" in text and "delay_mse" in text
