"""The float32 compute-precision knob and its cache-key folding.

``precision="float32"`` is opt-in per training stage via
``ExperimentSpec.stage_params``; the float64 default must leave every
planned key byte-identical (the golden key-stability tests pin that),
while float32 artifacts get their own content addresses.
"""

import numpy as np
import pytest

from repro.api import ArtifactStore, Experiment, ExperimentSpec
from repro.api.store import precision_key
from repro.runtime.plan import plan_campaign


def _keys_by_stage(spec):
    plan = plan_campaign([spec])
    return {task.stage: task.key for task in plan.ordered()}


class TestPrecisionKey:
    def test_default_is_identity(self):
        assert precision_key("abc123", "float64") == "abc123"
        assert precision_key("abc123", None) == "abc123"
        assert precision_key(None, "float32") is None

    def test_float32_rekeys(self):
        derived = precision_key("abc123", "float32")
        assert derived != "abc123"
        assert derived == precision_key("abc123", "float32")


class TestPlannedKeys:
    def test_pretrain_precision_moves_model_keys_only(self):
        default = _keys_by_stage(ExperimentSpec(scenario="case1", scale="smoke"))
        fp32 = _keys_by_stage(
            ExperimentSpec(
                scenario="case1",
                scale="smoke",
                stage_params={"pretrain": {"precision": "float32"}},
            )
        )
        # Simulation/dataset artifacts are precision-independent.
        assert fp32["traces"] == default["traces"]
        assert fp32["bundle"] == default["bundle"]
        # Everything downstream of training re-keys.
        assert fp32["pretrain"] != default["pretrain"]
        assert fp32["finetune"] != default["finetune"]
        assert fp32["evaluate"] != default["evaluate"]

    def test_finetune_precision_keeps_pretrain_key(self):
        default = _keys_by_stage(ExperimentSpec(scenario="case1", scale="smoke"))
        fp32 = _keys_by_stage(
            ExperimentSpec(
                scenario="case1",
                scale="smoke",
                stage_params={"finetune": {"precision": "float32"}},
            )
        )
        assert fp32["pretrain"] == default["pretrain"]
        assert fp32["finetune"] != default["finetune"]

    def test_evaluate_without_finetune_stage_keys_the_finetuned_model(self):
        # Planned without a finetune stage, evaluate still fine-tunes
        # inline, so its key must follow the fine-tune precision (and
        # match the full pipeline's evaluate task).
        pipeline = ("traces", "bundle", "pretrain", "evaluate")
        keys = set()
        for stage_params in (None, {"finetune": {"precision": "float32"}}):
            spec = ExperimentSpec(
                scenario="case1", scale="smoke", stage_params=stage_params
            )
            (short,) = [t for t in plan_campaign([spec], stages=pipeline).ordered()
                        if t.stage == "evaluate"]
            assert short.key == _keys_by_stage(spec)["evaluate"]
            keys.add(short.key)
        assert len(keys) == 2

    def test_precision_recorded_in_task_params(self):
        plan = plan_campaign(
            [
                ExperimentSpec(
                    scenario="pretrain",
                    scale="smoke",
                    stage_params={"pretrain": {"precision": "float32"}},
                )
            ]
        )
        pretrain_tasks = [task for task in plan.ordered() if task.stage == "pretrain"]
        assert pretrain_tasks[0].params["precision"] == "float32"


class TestExperimentPrecision:
    def test_float32_pretrain_trains_in_float32(self, tmp_path):
        spec = ExperimentSpec(
            scenario="pretrain",
            scale="smoke",
            stage_params={"pretrain": {"precision": "float32"}},
        )
        experiment = Experiment(spec, store=ArtifactStore(tmp_path / "cache"))
        result = experiment.pretrained()
        for _name, parameter in result.model.named_parameters():
            assert parameter.data.dtype == np.float32
        assert np.isfinite(result.test_mse_seconds2)

    def test_float32_and_float64_cached_separately(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        base = ExperimentSpec(scenario="pretrain", scale="smoke")
        fp32 = base.with_overrides(
            stage_params={"pretrain": {"precision": "float32"}}
        )
        result64 = Experiment(base, store=store).pretrained()
        result32 = Experiment(fp32, store=store).pretrained()
        assert result64.model.parameters()[0].data.dtype == np.float64
        assert result32.model.parameters()[0].data.dtype == np.float32
        # Same spec hash → both runs share simulation artifacts, but the
        # checkpoints live under different keys.
        checkpoints = list((tmp_path / "cache" / "checkpoints").glob("*.npz"))
        assert len(checkpoints) == 2

    def test_invalid_precision_rejected(self, tmp_path):
        spec = ExperimentSpec(
            scenario="pretrain",
            scale="smoke",
            stage_params={"pretrain": {"precision": "float16"}},
        )
        experiment = Experiment(spec, store=ArtifactStore(tmp_path / "cache"))
        with pytest.raises(ValueError):
            experiment.pretrained()
