"""The experiment facade: one object from spec to results.

:class:`Experiment` ties a declarative
:class:`~repro.api.spec.ExperimentSpec` to an
:class:`~repro.api.store.ArtifactStore` and exposes the whole workflow —
traces, dataset bundles, the shared pre-trained NTT, fine-tuned models,
a serving :class:`~repro.api.predictor.Predictor` and the paper's table
runners — behind a handful of methods.  Every expensive step is
content-addressed, so re-running the same spec is served from disk.

    >>> from repro.api import Experiment, ExperimentSpec
    >>> exp = Experiment(ExperimentSpec(scenario="case1", scale="smoke"))
    >>> pre = exp.pretrained()          # trains once, then cache hits
    >>> predictor = exp.predictor()     # batched serving facade
"""

from __future__ import annotations

from repro.core.aggregation import AggregationSpec
from repro.core.features import FeaturePipeline, FeatureSpec
from repro.core.finetune import (
    FinetuneMode,
    FinetuneResult,
    finetune_delay,
    finetune_mct,
    mct_pipeline,
)
from repro.core.pipeline import (
    pretrain_at_scale,
    run_table1,
    run_table2,
    run_table3,
)
from repro.core.pretrain import PretrainResult
from repro.datasets.generation import DatasetBundle, build_receiver_index, generate_dataset
from repro.netsim.scenarios import ScenarioKind, generate_traces
from repro.netsim.trace import Trace

from repro.api.predictor import Predictor
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.api.store import ArtifactStore, bundle_key

__all__ = ["Experiment"]

_TABLE_RUNNERS = {1: run_table1, 2: run_table2, 3: run_table3}

#: Sentinel: "no store argument given" (``None`` means "no store").
_DEFAULT_STORE = object()


class Experiment:
    """Spec-driven, store-backed experiment runner.

    Owns the traces, bundles and models behind every method below, with
    two layers of caching:

    * in-memory — bundles and pre-trained models are memoised per
      experiment, so repeated calls return the same object;
    * on-disk — traces and checkpoints are content-addressed in the
      :class:`~repro.api.store.ArtifactStore` by everything that
      produced them, so a fresh experiment (even in a new process) with
      the same spec is served from disk.  Bundles are re-windowed from
      the stored traces; the store keeps only a record of each.

    Store keys come from the stages' registered ``key_fn`` functions,
    the derivation the campaign planner uses, so the artifacts a
    campaign planned are exactly the ones an experiment serves.

    Args:
        spec: the declarative experiment description; keyword arguments
            are accepted as a shorthand (``Experiment(scale="smoke")``).
        store: artifact store; when omitted the shared on-disk store
            (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) is used.  Pass
            ``store=None`` to disable persistence entirely.
    """

    def __init__(
        self,
        spec: ExperimentSpec | None = None,
        store=_DEFAULT_STORE,
        **spec_kwargs,
    ):
        if spec is None:
            spec = ExperimentSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a spec or keyword fields, not both")
        self.spec = spec
        self.scale = spec.to_scale()
        self.store = ArtifactStore.from_env() if store is _DEFAULT_STORE else store
        self._bundles: dict[str, DatasetBundle] = {}
        self._pretrain_receivers: dict[int, int] | None = None
        self._pretrained: dict[str, PretrainResult] = {}

    @classmethod
    def uncached(cls, spec: ExperimentSpec | None = None, **spec_kwargs) -> "Experiment":
        """An experiment that never touches the on-disk store."""
        return cls(spec, store=None, **spec_kwargs)

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash

    def __repr__(self) -> str:
        return (
            f"Experiment(scenario={self.spec.scenario!r}, scale={self.spec.scale!r}, "
            f"seed={self.spec.seed}, hash={self.spec_hash})"
        )

    def _task_key(self, stage: str, params: dict) -> str:
        return STAGE_REGISTRY.get(stage).task_key(self.spec, params)

    # -- simulation ---------------------------------------------------------------

    def traces(self, scenario: str | None = None) -> list[Trace]:
        """Raw simulation traces for a scenario (store-backed).

        Bundles are windowed from these, so two window configurations
        over the same scenario share one simulation run set.
        """
        scenario = scenario or self.spec.scenario
        key = None
        if self.store is not None:
            key = self._task_key("traces", {"scenario": scenario})
            cached = self.store.get_traces(key, self.scale.n_runs)
            if cached is not None:
                return cached
        traces = generate_traces(self.spec.scenario_config(scenario), n_runs=self.scale.n_runs)
        if self.store is not None:
            self.store.put_traces(key, traces)
        return traces

    # -- datasets -----------------------------------------------------------------

    def _receiver_index(self, scenario: str) -> dict[int, int] | None:
        """Receiver identities are shared with pre-training: fine-tuning
        bundles extend the pre-training index, read once per experiment."""
        if scenario == ScenarioKind.PRETRAIN:
            return None
        if self._pretrain_receivers is None:
            self._pretrain_receivers = self._pretrain_receiver_index()
        return self._pretrain_receivers

    def _pretrain_receiver_index(self) -> dict[int, int]:
        """The pre-training bundle's index: from the bundle in memory,
        else its stored record, else its traces."""
        pretrain = self._bundles.get(ScenarioKind.PRETRAIN)
        if pretrain is not None:
            return pretrain.receiver_index
        if self.store is not None:
            record = self.store.get_bundle(self.bundle_store_key(ScenarioKind.PRETRAIN))
            if record is not None:
                # JSON keys are strings, sorted as text: restore the int
                # ids in slot order, the order the index was built in.
                pairs = sorted(record["receiver_index"].items(), key=lambda item: item[1])
                return {int(raw): slot for raw, slot in pairs}
        return build_receiver_index(self.traces(ScenarioKind.PRETRAIN))

    def bundle_store_key(self, scenario: str) -> str:
        """The store key of one scenario's bundle record (its one
        derivation).

        Unlike the other built-in keys it depends on data: fine-tuning
        bundles embed the pre-training receiver index.  The bundle
        stage's registered ``key_fn`` is therefore only a planning
        surrogate.
        """
        return STAGE_REGISTRY.get("bundle").versioned_key(
            bundle_key(
                self.spec.scenario_config(scenario),
                self.scale.window,
                self.scale.n_runs,
                self._receiver_index(scenario),
            )
        )

    def bundle(self, scenario: str | None = None) -> DatasetBundle:
        """The windowed dataset for this spec's (or a named) scenario,
        memoised per experiment.

        Always windowed from :meth:`traces`: re-windowing the stored
        traces is cheaper than writing and reading back the windows.
        With a store, the bundle's record is written when none exists.
        """
        scenario = scenario or self.spec.scenario
        if scenario not in self._bundles:
            bundle = generate_dataset(
                self.spec.scenario_config(scenario),
                window_config=self.scale.window,
                n_runs=self.scale.n_runs,
                name=scenario,
                receiver_index=self._receiver_index(scenario),
                traces=self.traces(scenario),
            )
            if self.store is not None:
                key = self.bundle_store_key(scenario)
                if self.store.get_bundle(key) is None:
                    self.store.put_bundle(key, bundle)
            self._bundles[scenario] = bundle
        return self._bundles[scenario]

    # -- models -------------------------------------------------------------------

    def pretrained(self, precision: str | None = None) -> PretrainResult:
        """The shared pre-trained NTT (store-backed, memoised).

        ``precision`` defaults to the spec's ``stage_params`` knob
        (``{"pretrain": {"precision": "float32"}}``); float64 keeps the
        pre-policy behaviour and cache keys exactly.
        """
        from repro.runtime.stages import training_precision

        precision = precision or training_precision(self.spec, "pretrain")
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
        return pretrain_at_scale(
            self.scale, self.bundle(ScenarioKind.PRETRAIN),
            features=features, aggregation=aggregation, pipeline=pipeline,
        )

    def _pretrain_cached(
        self,
        features: FeatureSpec | None = None,
        aggregation: AggregationSpec | None = None,
        precision: str = "float64",
    ) -> PretrainResult:
        """Pre-train one configuration, memoised under its store key, so
        ablation variants train once per experiment even without a
        store."""
        key = self._task_key(
            "pretrain",
            {"features": features, "aggregation": aggregation, "precision": precision},
        )
        if key in self._pretrained:
            return self._pretrained[key]
        result = self.store.get_pretrained(key) if self.store is not None else None
        if result is None:
            result = pretrain_at_scale(
                self.scale, self.bundle(ScenarioKind.PRETRAIN),
                features=features, aggregation=aggregation, precision=precision,
            )
            if self.store is not None:
                self.store.put_pretrained(key, result)
        self._pretrained[key] = result
        return result

    def finetuned(
        self,
        scenario: str | None = None,
        task: str = "delay",
        mode: str = FinetuneMode.DECODER_ONLY,
        fraction: float | None = None,
        features=None,
        aggregation=None,
        precision: str | None = None,
    ) -> FinetuneResult:
        """Fine-tune the shared pre-trained model (store-backed).

        Args:
            scenario: target environment (default: the spec's scenario).
            task: ``delay`` or ``mct``.
            mode: which parameters train (``decoder_only`` / ``full``).
            fraction: subsample the fine-tuning data (the paper's 10%
                datasets); ``None`` uses the full bundle.
            features: :class:`FeatureSpec` ablation override — the base
                model becomes the corresponding pre-training variant.
            aggregation: :class:`AggregationSpec` ablation override.
            precision: compute dtype for the fine-tune (defaults to the
                spec's ``stage_params["finetune"]["precision"]`` knob,
                then float64).  Non-default precisions key their own
                cached checkpoints; float64 keys are untouched.
        """
        result, _pipeline = self._finetuned_with_pipeline(
            scenario, task, mode, fraction,
            features=features, aggregation=aggregation, precision=precision,
        )
        return result

    def _finetuned_with_pipeline(
        self, scenario, task, mode, fraction, features=None, aggregation=None,
        precision=None,
    ):
        """Fine-tune (or restore) a model plus the pipeline that feeds it."""
        if task not in ("delay", "mct"):
            raise ValueError(f"unknown task {task!r}; choose 'delay' or 'mct'")
        from repro.runtime.stages import training_precision

        scenario = scenario or self.spec.scenario
        precision = precision or training_precision(self.spec, "finetune")
        settings = self.scale.finetune_settings
        key = None
        if self.store is not None:
            key = self._task_key(
                "finetune",
                {
                    "scenario": scenario,
                    "task": task,
                    "mode": mode,
                    "fraction": fraction,
                    "features": features,
                    "aggregation": aggregation,
                    "precision": precision,
                },
            )
            cached = self.store.get_finetuned(key)
            if cached is not None:
                return cached
        if features is None and aggregation is None:
            pre = self.pretrained()
        else:
            pre = self.pretrain_variant(features=features, aggregation=aggregation)
        bundle = self.bundle(scenario)
        if fraction is not None:
            bundle = bundle.small_fraction(fraction)
        import copy

        if task == "delay":
            pipeline = pre.pipeline
            result = finetune_delay(
                copy.deepcopy(pre.model), pipeline, bundle, settings=settings, mode=mode,
                precision=precision,
            )
        else:
            pipeline = mct_pipeline(pre.pipeline)
            result = finetune_mct(
                copy.deepcopy(pre.model), pre.model.config, pipeline, bundle,
                settings=settings, mode=mode, precision=precision,
            )
        if self.store is not None:
            self.store.put_finetuned(key, result, pipeline)
        return result, pipeline

    # -- serving ------------------------------------------------------------------

    def predictor(
        self,
        scenario: str | None = None,
        task: str = "delay",
        mode: str | None = None,
        fraction: float | None = None,
        batch_size: int = 256,
    ) -> Predictor:
        """A batched :class:`Predictor` over the fine-tuned model for
        this spec's scenario.

        When the scenario *is* the pre-training environment and the
        fine-tune options are left at their defaults, the pre-trained
        model is served directly; passing ``mode`` (even the
        ``decoder_only`` default) or ``fraction`` explicitly always
        triggers a real fine-tune.
        """
        scenario = scenario or self.spec.scenario
        is_default_finetune = mode is None and fraction is None
        mode = FinetuneMode.DECODER_ONLY if mode is None else mode
        if scenario == ScenarioKind.PRETRAIN and task == "delay" and is_default_finetune:
            pre = self.pretrained()
            return Predictor(pre.model, pre.pipeline, task="delay", batch_size=batch_size)
        result, pipeline = self._finetuned_with_pipeline(scenario, task, mode, fraction)
        return Predictor(result.model, pipeline, task=task, batch_size=batch_size)

    def save_checkpoint(self, path, task: str = "delay", **finetune_kwargs) -> None:
        """Export a self-describing checkpoint loadable by
        :meth:`Predictor.from_checkpoint` (and ``repro predict``)."""
        self.predictor(task=task, **finetune_kwargs).save(path)

    # -- the paper's evaluation ---------------------------------------------------

    def run_table(self, table: int) -> dict:
        """Run one of the paper's tables (1, 2 or 3), planned from this
        experiment's spec."""
        try:
            runner = _TABLE_RUNNERS[int(table)]
        except (KeyError, ValueError):
            raise ValueError(
                f"unknown table {table!r}; choose from {sorted(_TABLE_RUNNERS)}"
            ) from None
        return runner(self)
