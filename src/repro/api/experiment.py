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

from repro.core.finetune import (
    FinetuneMode,
    FinetuneResult,
    finetune_delay,
    finetune_mct,
)
from repro.core.pipeline import (
    ExperimentContext,
    run_table1,
    run_table2,
    run_table3,
)
from repro.core.pretrain import PretrainResult
from repro.datasets.generation import DatasetBundle
from repro.netsim.scenarios import ScenarioKind
from repro.netsim.trace import Trace

from repro.api.predictor import Predictor
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.api.store import ArtifactStore

__all__ = ["Experiment"]

_TABLE_RUNNERS = {1: run_table1, 2: run_table2, 3: run_table3}

#: Sentinel: "no store argument given" (``None`` means "no store").
_DEFAULT_STORE = object()


class Experiment:
    """Spec-driven, store-backed experiment runner.

    Args:
        spec: the declarative experiment description; keyword arguments
            are accepted as a shorthand (``Experiment(scale="smoke")``).
        store: artifact store; when omitted the shared on-disk store
            (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) is used.  Pass
            ``store=None`` to disable persistence entirely.
    """

    #: Owns the traces, bundles and models behind every method below.
    context: ExperimentContext

    def __init__(
        self,
        spec: ExperimentSpec | None = None,
        store=_DEFAULT_STORE,
        context: ExperimentContext | None = None,
        **spec_kwargs,
    ):
        if spec is None:
            spec = ExperimentSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a spec or keyword fields, not both")
        self.spec = spec
        self.scale = spec.to_scale()
        if context is not None:
            # Bind to an existing context (the campaign engine's
            # in-process executor shares one context's in-memory caches
            # across tasks).
            self.store = context.store if store is _DEFAULT_STORE else store
            self.context = context
        else:
            self.store = ArtifactStore.from_env() if store is _DEFAULT_STORE else store
            self.context = ExperimentContext(self.scale, store=self.store, seed=spec.seed)

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

    # -- simulation ---------------------------------------------------------------

    def traces(self, scenario: str | None = None) -> list[Trace]:
        """Raw simulation traces for a scenario (store-backed)."""
        return self.context.traces(scenario or self.spec.scenario)

    # -- datasets -----------------------------------------------------------------

    def bundle(self, scenario: str | None = None) -> DatasetBundle:
        """The windowed dataset for this spec's (or a named) scenario."""
        return self.context.bundle(scenario or self.spec.scenario)

    # -- models -------------------------------------------------------------------

    def pretrained(self, precision: str | None = None) -> PretrainResult:
        """The shared pre-trained NTT (store-backed).

        ``precision`` defaults to the spec's ``stage_params`` knob
        (``{"pretrain": {"precision": "float32"}}``); float64 keeps the
        pre-policy behaviour and cache keys exactly.
        """
        from repro.runtime.stages import training_precision

        precision = precision or training_precision(self.spec, "pretrain")
        return self.context.pretrained(precision=precision)

    def pretrain_variant(self, **overrides) -> PretrainResult:
        """An ablated pre-training variant (see
        :meth:`ExperimentContext.pretrain_variant`)."""
        return self.context.pretrain_variant(**overrides)

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
            key = STAGE_REGISTRY.get("finetune").task_key(
                self.spec,
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
            # A fresh MCT scaler per fine-tune: finetune_mct fits it on
            # the first dataset it sees, so reusing the shared pipeline
            # would make the stored artifact depend on in-process call
            # order rather than on the cache key alone.
            from repro.core.features import FeaturePipeline

            pipeline = FeaturePipeline()
            pipeline.feature_scaler = pre.pipeline.feature_scaler
            pipeline.message_size_scaler = pre.pipeline.message_size_scaler
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
        """Run one of the paper's tables (1, 2 or 3) on this context."""
        try:
            runner = _TABLE_RUNNERS[int(table)]
        except (KeyError, ValueError):
            raise ValueError(
                f"unknown table {table!r}; choose from {sorted(_TABLE_RUNNERS)}"
            ) from None
        return runner(self.scale, self.context)
