"""The §5 extension stages through the campaign engine: planning,
store caching (hits on the second invocation) and manifests."""

import pytest

from repro.api import ArtifactStore, ExperimentSpec, TrainSettings
from repro.runtime import plan_campaign, run_campaign

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


def fast_spec(scenario="pretrain", **kwargs):
    return ExperimentSpec(
        scenario=scenario, scale="smoke", pretrain=FAST, finetune=FAST, **kwargs
    )


class TestFederatedPretrainStage:
    def test_plans_standalone_task(self):
        plan = plan_campaign([fast_spec()], stages=("federated_pretrain",))
        (task,) = plan.ordered()
        assert task.stage == "federated_pretrain"
        assert task.kind == "checkpoints"
        assert task.key is not None

    def test_runs_and_cache_hits_on_second_invocation(self, store):
        spec = fast_spec(
            stage_params={"federated_pretrain": {"n_clients": 2, "rounds": 1}}
        )
        first = run_campaign([spec], stages=("federated_pretrain",), store=store)
        assert first.ok and first.summary["cache_hits"] == 0
        (task_id,) = list(first.results)
        row = first.results[task_id]
        assert row["n_clients"] == 2 and row["rounds"] == 1
        assert row["global_test_mse"] > 0
        assert len(row["round_test_mse"]) == 1

        second = run_campaign([spec], stages=("federated_pretrain",), store=store)
        assert second.summary["cache_hits"] == second.summary["total"] == 1
        assert second.results[task_id]["global_test_mse"] == row["global_test_mse"]

    def test_params_key_the_cache(self):
        spec_a = fast_spec(stage_params={"federated_pretrain": {"n_clients": 2}})
        spec_b = fast_spec(stage_params={"federated_pretrain": {"n_clients": 3}})
        plan = plan_campaign([spec_a, spec_b], stages=("federated_pretrain",))
        keys = {task.key for task in plan.ordered()}
        assert len(keys) == 2

    def test_global_model_lands_in_checkpoint_store(self, store):
        spec = fast_spec(
            stage_params={"federated_pretrain": {"n_clients": 2, "rounds": 1}}
        )
        result = run_campaign([spec], stages=("federated_pretrain",), store=store)
        (task,) = plan_campaign([spec], stages=("federated_pretrain",)).ordered()
        restored = store.get_pretrained(task.key)
        assert restored is not None
        assert restored.test_mse_seconds2 == result.results[task.id]["global_test_mse"]


class TestDriftMonitorStage:
    def test_plans_pretrain_chain_as_dependency(self):
        plan = plan_campaign([fast_spec("case1")], stages=("drift_monitor",))
        stages = [task.stage for task in plan.ordered()]
        assert stages.count("drift_monitor") == 1
        assert "pretrain" in stages and "bundle" in stages and "traces" in stages
        (drift,) = [t for t in plan.ordered() if t.stage == "drift_monitor"]
        assert any(dep.startswith("pretrain:") for dep in drift.deps)

    def test_reports_and_cache_hits_on_second_invocation(self, store):
        spec = fast_spec(
            "case1",
            stage_params={"drift_monitor": {"sensitivity": 1e-6, "tolerance": 0.0}},
        )
        first = run_campaign([spec], stages=("drift_monitor",), store=store)
        assert first.ok and first.summary["cache_hits"] == 0
        (drift_id,) = [t for t in first.results if t.startswith("drift_monitor:")]
        row = first.results[drift_id]
        assert row["scenario"] == "case1"
        assert row["baseline_error"] > 0
        # At a near-zero threshold with no tolerance slack, ordinary
        # in-distribution fluctuation must already trip the detector —
        # the verdict on the fresh scenario is then a genuine comparison
        # (a 1-epoch smoke model may legitimately not degrade on case1).
        assert row["in_distribution"]["drifted"] is True
        assert row["drifted"] == row["fresh"]["drifted"]
        assert row["fresh"]["windows_seen"] > row["in_distribution"]["windows_seen"]

        second = run_campaign([spec], stages=("drift_monitor",), store=store)
        assert second.summary["cache_hits"] == second.summary["total"]
        assert second.results[drift_id] == row

    def test_each_precision_monitors_its_own_model(self):
        # The drift report is keyed by the deployed model's key, so a
        # float32 spec may not be served the float64 model's report.
        specs = [
            fast_spec("case1"),
            fast_spec("case1", stage_params={"pretrain": {"precision": "float32"}}),
        ]
        plan = plan_campaign(specs, stages=("drift_monitor",))
        drifts = [t for t in plan.ordered() if t.stage == "drift_monitor"]
        pretrains = [t for t in plan.ordered() if t.stage == "pretrain"]
        assert len(drifts) == len(pretrains) == 2
        for drift, pretrain in zip(drifts, pretrains):
            assert [d for d in drift.deps if d.startswith("pretrain:")] == [pretrain.id]
            assert drift.spec_hashes == pretrain.spec_hashes

    def test_sensitivity_changes_the_key(self):
        loose = fast_spec("case1", stage_params={"drift_monitor": {"sensitivity": 100.0}})
        tight = fast_spec("case1", stage_params={"drift_monitor": {"sensitivity": 1.0}})
        keys = set()
        for spec in (loose, tight):
            plan = plan_campaign([spec], stages=("drift_monitor",))
            (drift,) = [t for t in plan.ordered() if t.stage == "drift_monitor"]
            keys.add(drift.key)
        assert len(keys) == 2
