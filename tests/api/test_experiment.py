"""Tests for the Experiment facade."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import ArtifactStore, Experiment, ExperimentSpec
from repro.core.pretrain import TrainSettings

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


def fast_spec(scenario: str = "pretrain", **kwargs) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=scenario, scale="smoke", pretrain=FAST, finetune=FAST, **kwargs
    )


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


class TestConstruction:
    def test_keyword_shorthand(self, store):
        exp = Experiment(scenario="case1", scale="smoke", store=store)
        assert exp.spec.scenario == "case1"

    def test_spec_and_kwargs_conflict(self, store):
        with pytest.raises(TypeError):
            Experiment(ExperimentSpec(scale="smoke"), store=store, scenario="case1")

    def test_uncached_has_no_store(self):
        assert Experiment.uncached(fast_spec()).store is None

    def test_scale_resolves_overrides(self, store):
        exp = Experiment(fast_spec(), store=store)
        assert exp.scale.pretrain_settings.epochs == 1


class TestWorkflow:
    def test_bundle_defaults_to_spec_scenario(self, store):
        exp = Experiment(fast_spec("case1"), store=store)
        assert exp.bundle().name == "case1"

    def test_pretrained_serves_second_experiment_from_store(self, store):
        exp1 = Experiment(fast_spec(), store=store)
        first = exp1.pretrained()
        exp2 = Experiment(fast_spec(), store=store)
        second = exp2.pretrained()
        assert second.test_mse_seconds2 == first.test_mse_seconds2
        assert store.summary()["checkpoints"]["count"] == 1

    def test_traces_cached(self, store):
        exp = Experiment(fast_spec(), store=store)
        first = exp.traces()
        assert store.summary()["traces"]["count"] == len(first)
        second = Experiment(fast_spec(), store=store).traces()
        assert np.array_equal(first[0].send_time, second[0].send_time)

    def test_finetuned_cached_across_experiments(self, store):
        exp = Experiment(fast_spec("case1"), store=store)
        first = exp.finetuned(fraction=0.5)
        again = Experiment(fast_spec("case1"), store=store).finetuned(fraction=0.5)
        assert again.test_mse == first.test_mse
        assert again.task == "delay"

    def test_finetuned_unknown_task_rejected(self, store):
        with pytest.raises(ValueError, match="task"):
            Experiment(fast_spec("case1"), store=store).finetuned(task="jitter")

    def test_run_table_unknown_table_rejected(self, store):
        with pytest.raises(ValueError, match="table"):
            Experiment(fast_spec(), store=store).run_table(9)

    def test_run_table_plans_the_experiments_own_spec(self, store, monkeypatch):
        """The pretrain task a table plans is the model the experiment
        serves, stage parameters included."""
        import repro.runtime.plan as plan_module

        exp = Experiment(
            ExperimentSpec(scale="smoke", stage_params={"pretrain": {"precision": "float32"}}),
            store=store,
        )

        class Stop(Exception):
            pass

        planned, read = [], []
        plan_table = plan_module.plan_table

        def capture_plan(table, spec, *args, **kwargs):
            plan, layout = plan_table(table, spec, *args, **kwargs)
            planned.append(plan.tasks[layout["pretrain"]].key)
            raise Stop

        def capture_read(self, key):
            read.append(key)

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(plan_module, "plan_table", capture_plan)
        monkeypatch.setattr(ArtifactStore, "get_pretrained", capture_read)
        monkeypatch.setattr("repro.core.pipeline.pretrain", stop)
        with pytest.raises(Stop):
            exp.run_table(1)
        with pytest.raises(Stop):
            exp.pretrained()
        assert planned == read and len(read) == 1

    def test_predictor_round_trip_through_checkpoint(self, store, tmp_path):
        exp = Experiment(fast_spec(), store=store)
        predictor = exp.predictor()
        path = tmp_path / "model.npz"
        predictor.save(path)
        from repro.api import Predictor

        restored = Predictor.from_checkpoint(path)
        test = exp.bundle().test
        assert np.array_equal(
            predictor.predict_dataset(test), restored.predict_dataset(test)
        )

    def test_spec_seed_flows_into_scenario(self, store):
        exp = Experiment(replace(fast_spec(), seed=9), store=store)
        assert exp.bundle("pretrain").scenario.seed == 9


class TestRegisteredScenarioEndToEnd:
    def test_new_scenario_through_full_pipeline(self, store):
        """A plugin scenario must work end-to-end: simulate, window,
        share receiver identities with pre-training."""
        exp = Experiment(fast_spec("bursty_cross"), store=store)
        bundle = exp.bundle()
        assert len(bundle.train) > 0
        pre_index = exp.bundle("pretrain").receiver_index
        for key, value in pre_index.items():
            assert bundle.receiver_index[key] == value
