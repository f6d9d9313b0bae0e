"""End-to-end experiment pipeline: the paper's evaluation (§4) as code.

:class:`ExperimentContext` owns datasets and the shared pre-trained
model for one *scale* (``smoke`` / ``small`` / ``paper``); the
``run_table1/2/3`` functions regenerate the corresponding tables.
Benchmarks and examples are thin wrappers around this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregation import AggregationSpec
from repro.core.features import FeaturePipeline, FeatureSpec
from repro.core.model import NTTConfig
from repro.core.pretrain import PretrainResult, TrainSettings, pretrain
from repro.datasets.generation import DatasetBundle, build_receiver_index, generate_dataset
from repro.datasets.windows import WindowConfig
from repro.netsim.scenarios import ScenarioConfig, ScenarioKind

__all__ = [
    "ExperimentScale",
    "ExperimentContext",
    "get_scale",
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


class ExperimentContext:
    """Caches datasets and the shared pre-trained model for one scale.

    Dataset generation and pre-training dominate experiment wall time;
    the three table runners share them through this context.  Two layers
    of caching apply:

    * in-memory — repeated calls on one context return the same object;
    * on-disk — when constructed with an
      :class:`~repro.api.store.ArtifactStore`, traces and checkpoints
      are content-addressed by everything that produced them, so a fresh
      context (even in a new process) with the same spec is served from
      disk instead of re-simulating / re-training.  Bundles are windowed
      from the stored traces on every new context; the store keeps only
      a record of each (see :meth:`bundle`).

    Store keys come from the stages' registered ``key_fn`` functions —
    the derivation the campaign planner uses — so the artifacts a
    campaign planned are exactly the ones a context serves.
    """

    def __init__(self, scale: ExperimentScale, store=None, seed: int = 0):
        self.scale = scale
        self.store = store
        self.seed = seed
        self._bundles: dict[str, DatasetBundle] = {}
        self._pretrain_receivers: dict[int, int] | None = None
        self._pretrained: dict[str, PretrainResult] = {}
        self._spec = None

    def scenario_config(self, kind: str) -> "ScenarioConfig":
        """The resolved scenario config for a registered scenario name."""
        return self.scale.scenario(kind, seed=self.seed)

    def _task_key(self, stage: str, params: dict) -> str:
        """A registered stage's key for this context's scale and seed."""
        from repro.api.stages import STAGE_REGISTRY
        from repro.runtime.plan import spec_for_scale

        if self._spec is None:
            self._spec = spec_for_scale(self.scale, seed=self.seed)
        return STAGE_REGISTRY.get(stage).task_key(self._spec, params)

    # -- simulation ---------------------------------------------------------------

    def traces(self, kind: str):
        """Raw simulation traces for one scenario (store-backed).

        Bundles are windowed from these, so two window configurations
        over the same scenario share one simulation run set.
        """
        from repro.netsim.scenarios import generate_traces

        key = None
        if self.store is not None:
            key = self._task_key("traces", {"scenario": kind})
            cached = self.store.get_traces(key, self.scale.n_runs)
            if cached is not None:
                return cached
        traces = generate_traces(self.scenario_config(kind), n_runs=self.scale.n_runs)
        if self.store is not None:
            self.store.put_traces(key, traces)
        return traces

    # -- datasets -----------------------------------------------------------------

    def _receiver_index(self, kind: str) -> dict[int, int] | None:
        """Receiver identities are shared with pre-training: the index
        of the pre-training traces, computed once per context."""
        if kind == ScenarioKind.PRETRAIN:
            return None
        if self._pretrain_receivers is None:
            pretrain = self._bundles.get(ScenarioKind.PRETRAIN)
            self._pretrain_receivers = (
                pretrain.receiver_index
                if pretrain is not None
                else build_receiver_index(self.traces(ScenarioKind.PRETRAIN))
            )
        return self._pretrain_receivers

    def bundle_store_key(self, kind: str) -> str:
        """The store key of one scenario's bundle record (its one
        derivation).

        Unlike the other built-in keys it depends on data — fine-tuning
        bundles embed the pre-training receiver index, so this reads the
        pre-training traces first.  The bundle stage's registered
        ``key_fn`` is therefore only a planning surrogate.
        """
        from repro.api.stages import STAGE_REGISTRY
        from repro.api.store import bundle_key

        return STAGE_REGISTRY.get("bundle").versioned_key(
            bundle_key(
                self.scenario_config(kind),
                self.scale.window,
                self.scale.n_runs,
                self._receiver_index(kind),
            )
        )

    def bundle(self, kind: str) -> DatasetBundle:
        """The windowed dataset for one scenario (memoised per context).

        Always windowed from :meth:`traces`: re-windowing the stored
        traces is cheaper than writing and reading back the windows.
        With a store, the bundle's record is written when none exists.
        """
        if kind not in self._bundles:
            bundle = generate_dataset(
                self.scenario_config(kind),
                window_config=self.scale.window,
                n_runs=self.scale.n_runs,
                name=kind,
                receiver_index=self._receiver_index(kind),
                traces=self.traces(kind),
            )
            if self.store is not None:
                key = self.bundle_store_key(kind)
                if self.store.get_bundle(key) is None:
                    self.store.put_bundle(key, bundle)
            self._bundles[kind] = bundle
        return self._bundles[kind]

    # -- models --------------------------------------------------------------------

    def _pretrain_cached(
        self,
        features: FeatureSpec | None = None,
        aggregation: AggregationSpec | None = None,
        precision: str = "float64",
    ) -> PretrainResult:
        """Pre-train one configuration, store-backed when possible.

        Results are also memoised in-process under their store key, so
        ablation variants are trained once per context even without an
        artifact store.
        """
        key = self._task_key(
            "pretrain",
            {"features": features, "aggregation": aggregation, "precision": precision},
        )
        if key in self._pretrained:
            return self._pretrained[key]
        result = self.store.get_pretrained(key) if self.store is not None else None
        if result is None:
            config = self.scale.model_config(features=features, aggregation=aggregation)
            result = pretrain(
                config,
                self.bundle(ScenarioKind.PRETRAIN),
                settings=self.scale.pretrain_settings,
                precision=precision,
            )
            if self.store is not None:
                self.store.put_pretrained(key, result)
        self._pretrained[key] = result
        return result

    def pretrained(self, precision: str = "float64") -> PretrainResult:
        """The shared fully-featured pre-trained NTT (cached)."""
        return self._pretrain_cached(precision=precision)

    def pretrain_variant(
        self,
        features: FeatureSpec | None = None,
        aggregation: AggregationSpec | None = None,
        pipeline: FeaturePipeline | None = None,
    ) -> PretrainResult:
        """Pre-train an ablated NTT variant.

        Store-backed like :meth:`pretrained` (each Table 1 row keys its
        own checkpoint) unless a custom ``pipeline`` is supplied, whose
        fitted statistics the cache key cannot see.
        """
        if pipeline is None:
            return self._pretrain_cached(features, aggregation)
        return pretrain(
            self.scale.model_config(features=features, aggregation=aggregation),
            self.bundle(ScenarioKind.PRETRAIN),
            settings=self.scale.pretrain_settings,
            pipeline=pipeline,
        )


# -- table runners -------------------------------------------------------------------
#
# Since the `repro.runtime` campaign engine, each table declares its
# independent training units as a task plan and submits them through a
# CampaignEngine, so the exact same stage code serves interactive runs,
# `repro sweep` campaigns and the benchmarks — and `workers=N` fans a
# table's independent units out over a process pool.


def _run_table_campaign(table: int, scale, context, engine, workers):
    """Plan one table for this context and execute it on an engine."""
    from repro.runtime.engine import CampaignEngine
    from repro.runtime.plan import plan_table, spec_for_scale

    scale = scale if scale is not None else get_scale()
    context = context if context is not None else ExperimentContext(scale)
    if engine is None:
        engine = CampaignEngine(store=context.store, workers=workers)
    spec = spec_for_scale(scale, seed=context.seed)
    plan, layout = plan_table(table, spec)
    outcome = engine.run(plan, context=context)
    failures = outcome.failed_tasks()
    if failures:
        raise RuntimeError(
            f"table {table} campaign failed at {failures[0]['id']}:\n"
            + failures[0]["error"]
        )
    return outcome, layout


def run_table1(
    scale: ExperimentScale | None = None,
    context: ExperimentContext | None = None,
    engine=None,
    workers: int = 1,
) -> dict:
    """Table 1: MSE for all models and tasks (case 1, 10% fine-tuning).

    Rows: pre-trained NTT, from-scratch NTT, the two naive baselines and
    four ablated NTTs.  Columns: pre-training delay MSE, fine-tuned
    delay MSE, fine-tuned log-MCT MSE (all in paper units ×10⁻³:
    seconds² for delay, log² for MCT).
    """
    outcome, layout = _run_table_campaign(1, scale, context, engine, workers)
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


def run_table2(
    scale: ExperimentScale | None = None,
    context: ExperimentContext | None = None,
    engine=None,
    workers: int = 1,
) -> dict:
    """Table 2: pre-training saves fine-tuning data and compute (case 1).

    Rows: pre-trained + decoder-only on full/10% data vs. from-scratch +
    full model on full/10% data; columns: delay MSE and wall-clock
    training time of the fine-tuning stage.
    """
    outcome, layout = _run_table_campaign(2, scale, context, engine, workers)
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


def run_table3(
    scale: ExperimentScale | None = None,
    context: ExperimentContext | None = None,
    engine=None,
    workers: int = 1,
) -> dict:
    """Table 3: the larger topology (case 2).

    Pre-trained models fine-tune (full model — the new receivers need
    their embeddings trained) on full/10% data; from-scratch fails; the
    no-receiver-ID ablation cannot tell receivers apart; baselines for
    reference.
    """
    outcome, layout = _run_table_campaign(3, scale, context, engine, workers)
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
