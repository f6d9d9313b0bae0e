"""End-to-end experiment pipeline: the paper's evaluation (§4) as code.

:class:`ExperimentScale` holds what differs between the ``smoke`` /
``small`` / ``paper`` scales; :func:`pretrain_at_scale` pre-trains a
scale's NTT; the ``run_table1/2/3`` functions regenerate the
corresponding tables from an :class:`~repro.api.experiment.Experiment`,
which owns the datasets and the shared pre-trained model.  Benchmarks
and examples are thin wrappers around this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.aggregation import AggregationSpec
from repro.core.features import FeaturePipeline, FeatureSpec
from repro.core.model import NTTConfig
from repro.core.pretrain import PretrainResult, TrainSettings, pretrain
from repro.datasets.generation import DatasetBundle
from repro.datasets.windows import WindowConfig
from repro.netsim.scenarios import ScenarioConfig

if TYPE_CHECKING:
    from repro.api.experiment import Experiment

__all__ = [
    "ExperimentScale",
    "get_scale",
    "pretrain_at_scale",
    "run_table1",
    "run_table2",
    "run_table3",
    "format_rows",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Everything that differs between smoke / small / paper runs."""

    name: str
    window: WindowConfig
    n_runs: int
    pretrain_settings: TrainSettings
    finetune_settings: TrainSettings
    fine_fraction: float = 0.1
    #: aggregation variants for the Table 1 ablations, keyed by name.
    aggregation_variants: dict = field(default_factory=dict)
    #: optional architecture override (set by :mod:`repro.api` specs);
    #: ``None`` selects the per-scale default config.
    model: NTTConfig | None = None

    def scenario(self, kind: str, seed: int = 0) -> ScenarioConfig:
        """Build any *registered* scenario at this scale.

        ``kind`` is a name in :data:`repro.api.registry.SCENARIOS` —
        the three Fig. 4 setups plus every plugin registered through
        ``@register_scenario``.
        """
        from repro.api.registry import SCENARIOS

        return SCENARIOS.build(kind, scale=self.name, seed=seed)

    def model_config(
        self,
        features: FeatureSpec | None = None,
        aggregation: AggregationSpec | None = None,
    ) -> NTTConfig:
        if self.model is not None:
            base = self.model
        elif self.name == "paper":
            base = NTTConfig.paper()
        elif self.name == "smoke":
            base = NTTConfig.smoke()
        else:
            base = NTTConfig.small()
        from dataclasses import replace

        overrides = {}
        if features is not None:
            overrides["features"] = features
        if aggregation is not None:
            overrides["aggregation"] = aggregation
        return replace(base, **overrides) if overrides else base


def _smoke_scale() -> ExperimentScale:
    return ExperimentScale(
        name="smoke",
        window=WindowConfig(window_len=64, stride=4),
        n_runs=1,
        pretrain_settings=TrainSettings.smoke(),
        finetune_settings=TrainSettings.smoke(),
        aggregation_variants={
            "multi": AggregationSpec.from_pairs([(4, 9), (4, 4), (12, 1)]),
            "none": AggregationSpec.none(20),
            "fixed": AggregationSpec.fixed(count=20, block=3),
        },
    )


def _small_scale() -> ExperimentScale:
    return ExperimentScale(
        name="small",
        window=WindowConfig(window_len=512, stride=8),
        n_runs=2,
        pretrain_settings=TrainSettings(epochs=15),
        finetune_settings=TrainSettings(epochs=10),
        aggregation_variants={
            "multi": AggregationSpec.multi_timescale_512(),
            "none": AggregationSpec.none(44),
            "fixed": AggregationSpec.fixed(count=42, block=12),
        },
    )


def _paper_scale() -> ExperimentScale:
    return ExperimentScale(
        name="paper",
        window=WindowConfig(window_len=1024, stride=16),
        n_runs=10,
        pretrain_settings=TrainSettings(epochs=30),
        finetune_settings=TrainSettings(epochs=20),
        aggregation_variants={
            "multi": AggregationSpec.multi_timescale_paper(),
            "none": AggregationSpec.none(48),
            "fixed": AggregationSpec.fixed_paper(),
        },
    )


_SCALES = {"smoke": _smoke_scale, "small": _small_scale, "paper": _paper_scale}


def get_scale(name: str = "small") -> ExperimentScale:
    """Resolve a scale by name (default ``small``)."""
    try:
        return _SCALES[name]()
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}") from None


def pretrain_at_scale(
    scale: ExperimentScale,
    bundle: DatasetBundle,
    features: FeatureSpec | None = None,
    aggregation: AggregationSpec | None = None,
    pipeline: FeaturePipeline | None = None,
    precision: str = "float64",
) -> PretrainResult:
    """Pre-train the scale's NTT, or an ablated variant, on ``bundle``.

    The one place a scale's model config and pre-training settings meet
    :func:`~repro.core.pretrain.pretrain`; the shared model and every
    ablation variant go through it.
    """
    return pretrain(
        scale.model_config(features=features, aggregation=aggregation),
        bundle,
        settings=scale.pretrain_settings,
        pipeline=pipeline,
        precision=precision,
    )


# -- table runners -------------------------------------------------------------------
#
# Since the `repro.runtime` campaign engine, each table declares its
# independent training units as a task plan and submits them through a
# CampaignEngine, so the exact same stage code serves interactive runs,
# `repro sweep` campaigns and the benchmarks — and `workers=N` fans a
# table's independent units out over a process pool.


def _run_table_campaign(table: int, experiment: Experiment, engine, workers):
    """Plan one table from the experiment's spec and execute it."""
    from repro.runtime.engine import CampaignEngine
    from repro.runtime.plan import plan_table

    if engine is None:
        engine = CampaignEngine(store=experiment.store, workers=workers)
    plan, layout = plan_table(table, experiment.spec)
    outcome = engine.run(plan, experiment=experiment)
    failures = outcome.failed_tasks()
    if failures:
        raise RuntimeError(
            f"table {table} campaign failed at {failures[0]['id']}:\n"
            + failures[0]["error"]
        )
    return outcome, layout


def run_table1(experiment: Experiment, engine=None, workers: int = 1) -> dict:
    """Table 1: MSE for all models and tasks (case 1, 10% fine-tuning).

    Rows: pre-trained NTT, from-scratch NTT, the two naive baselines and
    four ablated NTTs.  Columns: pre-training delay MSE, fine-tuned
    delay MSE, fine-tuned log-MCT MSE (all in paper units ×10⁻³:
    seconds² for delay, log² for MCT).
    """
    outcome, layout = _run_table_campaign(1, experiment, engine, workers)
    rows: dict[str, dict] = {}
    rows["ntt_pretrained"] = {
        "pretrain_delay_mse": outcome[layout["pretrain"]]["test_mse_seconds2"],
        "finetune_delay_mse": outcome[layout["ft_delay"]]["test_mse"],
        "finetune_mct_mse": outcome[layout["ft_mct"]]["test_mse"],
    }
    rows["ntt_from_scratch"] = {
        "pretrain_delay_mse": None,
        "finetune_delay_mse": outcome[layout["scratch_delay"]]["test_mse"],
        "finetune_mct_mse": outcome[layout["scratch_mct"]]["test_mse"],
    }
    # Naive baselines, evaluated on both test sets (the fine-tuning
    # fraction keeps the full test split, so case-1 numbers compare).
    pretrain_baselines = outcome[layout["baselines_pretrain"]]["rows"]
    case1_baselines = outcome[layout["baselines_case1"]]["rows"]
    for name in ("last_observed", "ewma"):
        rows[name] = {
            "pretrain_delay_mse": pretrain_baselines[name]["delay_mse"],
            "finetune_delay_mse": case1_baselines[name]["delay_mse"],
            "finetune_mct_mse": case1_baselines[name]["mct_log_mse"],
        }
    for name, units in layout["variants"].items():
        rows[name] = {
            "pretrain_delay_mse": outcome[units["pretrain"]]["test_mse_seconds2"],
            "finetune_delay_mse": outcome[units["ft_delay"]]["test_mse"],
            "finetune_mct_mse": outcome[units["ft_mct"]]["test_mse"],
        }
    return rows


def run_table2(experiment: Experiment, engine=None, workers: int = 1) -> dict:
    """Table 2: pre-training saves fine-tuning data and compute (case 1).

    Rows: pre-trained + decoder-only on full/10% data vs. from-scratch +
    full model on full/10% data; columns: delay MSE and wall-clock
    training time of the fine-tuning stage.
    """
    outcome, layout = _run_table_campaign(2, experiment, engine, workers)
    rows: dict[str, dict] = {}
    for label in ("full", "10pct"):
        rows[f"pretrained_{label}"] = {
            "layers_trained": "decoder_only",
            "delay_mse": outcome[layout[f"pretrained_{label}"]]["test_mse"],
            "training_time_s": outcome[layout[f"pretrained_{label}"]]["training_time_s"],
        }
    for label in ("full", "10pct"):
        rows[f"scratch_{label}"] = {
            "layers_trained": "full",
            "delay_mse": outcome[layout[f"scratch_{label}"]]["test_mse"],
            "training_time_s": outcome[layout[f"scratch_{label}"]]["training_time_s"],
        }
    return rows


def run_table3(experiment: Experiment, engine=None, workers: int = 1) -> dict:
    """Table 3: the larger topology (case 2).

    Pre-trained models fine-tune (full model — the new receivers need
    their embeddings trained) on full/10% data; from-scratch fails; the
    no-receiver-ID ablation cannot tell receivers apart; baselines for
    reference.
    """
    outcome, layout = _run_table_campaign(3, experiment, engine, workers)
    rows: dict[str, dict] = {}
    for label in ("full", "10pct"):
        rows[f"pretrained_{label}"] = {
            "delay_mse": outcome[layout[f"pretrained_{label}"]]["test_mse"],
            "training_time_s": outcome[layout[f"pretrained_{label}"]]["training_time_s"],
        }
    for label in ("full", "10pct"):
        rows[f"scratch_{label}"] = {
            "delay_mse": outcome[layout[f"scratch_{label}"]]["test_mse"],
            "training_time_s": outcome[layout[f"scratch_{label}"]]["training_time_s"],
        }
    # Baselines (the §4 "not shown" reference numbers).
    baselines = outcome[layout["baselines_case2"]]["rows"]
    rows["last_observed"] = {"delay_mse": baselines["last_observed"]["delay_mse"]}
    rows["ewma"] = {"delay_mse": baselines["ewma"]["delay_mse"]}
    # Without addressing information the receivers are indistinguishable.
    rows["without_receiver_id"] = {
        "delay_mse": outcome[layout["without_receiver_id"]]["test_mse"]
    }
    return rows


def format_rows(rows: dict, scale_factor: float = 1e3, unit: str = "x1e-3") -> str:
    """Human-readable table of nested result dictionaries."""
    lines = []
    for row_name, columns in rows.items():
        parts = []
        for column, value in columns.items():
            if isinstance(value, float):
                parts.append(f"{column}={value * scale_factor:10.4f}{unit}"
                             if "mse" in column else f"{column}={value:.2f}")
            else:
                parts.append(f"{column}={value}")
        lines.append(f"{row_name:24s} " + "  ".join(parts))
    return "\n".join(lines)
