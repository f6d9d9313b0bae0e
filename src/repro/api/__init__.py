"""``repro.api`` — the package's single public surface.

Everything an experiment needs lives behind four ideas:

* :class:`ExperimentSpec` — a declarative, hashable description of an
  experiment (scenario + scale + seed + overrides);
* :data:`SCENARIOS` / :func:`register_scenario` — the pluggable scenario
  registry (new topologies/workloads register themselves; core code
  never changes);
* :data:`STAGE_REGISTRY` / :func:`register_stage` — the pluggable
  pipeline-stage registry: registered stages gain content-addressed
  caching, worker-pool fan-out, campaign manifests and the
  ``repro sweep --stages`` CLI for free;
* :class:`ArtifactStore` — the content-addressed on-disk cache that
  turns repeated runs into disk reads;
* :class:`Experiment` / :class:`Predictor` — the runner and the batched
  serving facade built on top.

Quickstart::

    from repro.api import Experiment, ExperimentSpec

    exp = Experiment(ExperimentSpec(scenario="case1", scale="smoke"))
    pre = exp.pretrained()              # cached after the first run
    print(pre.test_mse_seconds2)
    predictor = exp.predictor()         # batched delay predictions
    test = exp.bundle().test
    delays = predictor.predict(test.features, test.receiver)

The classic building blocks (scenario configs, table runners, training
helpers, analysis and extensions) are re-exported so downstream code —
the bundled examples included — imports only ``repro.api``.
"""

from repro.analysis.attention import attention_summary
from repro.analysis.reports import dataset_report, trace_report
from repro.core.aggregation import AggregationSpec
from repro.core.baselines import evaluate_baselines
from repro.core.evaluation import (
    evaluate_delay,
    evaluate_mct,
    predict_delay,
    predict_mct,
)
from repro.core.features import FeaturePipeline, FeatureSpec
from repro.core.finetune import (
    FinetuneMode,
    FinetuneResult,
    finetune_delay,
    finetune_mct,
    train_delay_from_scratch,
    train_mct_from_scratch,
)
from repro.core.model import NTT, NTTConfig, NTTForDelay, NTTForMCT
from repro.core.pipeline import (
    ExperimentScale,
    format_rows,
    get_scale,
    run_table1,
    run_table2,
    run_table3,
)
from repro.core.pretrain import PretrainResult, TrainSettings, pretrain
from repro.datasets.generation import DatasetBundle, generate_dataset
from repro.datasets.windows import WindowConfig, WindowDataset
from repro.extensions.continual import DriftMonitor
from repro.extensions.federated import FederatedTrainer
from repro.netsim.scenarios import (
    ScenarioConfig,
    ScenarioKind,
    build_scenario,
    generate_traces,
    run_scenario,
)
from repro.nn.serialize import load_checkpoint, save_checkpoint

from repro.api.experiment import Experiment
from repro.api.hashing import stable_hash
from repro.api.predictor import Predictor
from repro.api.registry import SCENARIOS, ScenarioRegistry, register_scenario
from repro.api.spec import ExperimentSpec
from repro.api.stages import (
    STAGE_REGISTRY,
    Stage,
    StageRegistry,
    inputs_by_stage,
    register_stage,
)
from repro.api.store import ArtifactStore

# Importing the module registers the beyond-the-paper scenarios.
from repro.api import scenarios as _extra_scenarios  # noqa: F401

# Importing the module registers the built-in pipeline stages, so the
# re-exported STAGE_REGISTRY is complete for repro.api users (extension
# stages already registered via the repro.extensions imports above).
from repro.runtime import stages as _builtin_stages  # noqa: F401

__all__ = [
    # the new facade
    "Experiment",
    "ExperimentSpec",
    "Predictor",
    "ArtifactStore",
    "ScenarioRegistry",
    "SCENARIOS",
    "register_scenario",
    "Stage",
    "StageRegistry",
    "STAGE_REGISTRY",
    "register_stage",
    "inputs_by_stage",
    "stable_hash",
    # scales and runners
    "ExperimentScale",
    "get_scale",
    "run_table1",
    "run_table2",
    "run_table3",
    "format_rows",
    # scenarios and datasets
    "ScenarioConfig",
    "ScenarioKind",
    "build_scenario",
    "run_scenario",
    "generate_traces",
    "generate_dataset",
    "DatasetBundle",
    "WindowConfig",
    "WindowDataset",
    # models and training
    "NTT",
    "NTTConfig",
    "NTTForDelay",
    "NTTForMCT",
    "FeatureSpec",
    "FeaturePipeline",
    "AggregationSpec",
    "TrainSettings",
    "PretrainResult",
    "pretrain",
    "FinetuneMode",
    "FinetuneResult",
    "finetune_delay",
    "finetune_mct",
    "train_delay_from_scratch",
    "train_mct_from_scratch",
    # evaluation and analysis
    "evaluate_delay",
    "evaluate_mct",
    "evaluate_baselines",
    "predict_delay",
    "predict_mct",
    "attention_summary",
    "dataset_report",
    "trace_report",
    # persistence
    "save_checkpoint",
    "load_checkpoint",
    # extensions
    "DriftMonitor",
    "FederatedTrainer",
]
