"""Built-in stage implementations, registered in the stage registry.

The eight stages that used to live in a private dictionary inside
:mod:`repro.runtime.worker` are now first-class
:class:`~repro.api.stages.Stage` plugins: the planner
(:mod:`repro.runtime.plan`) reads their kind/key/version from the
registry, the worker dispatches through it, and custom stages registered
with :func:`~repro.api.stages.register_stage` ride the exact same rails.

Every stage body has the signature ``run(experiment, inputs, params)``
and returns ``(cache_hit, result)`` where ``result`` is a flat JSON-able
dictionary (it crosses process boundaries and lands in the campaign
manifest).  ``inputs`` maps dependency task ids to their result
dictionaries; the built-in stages ignore it — heavy artifacts flow
through the content-addressed store, not the task graph — but custom
stages are free to consume it (see
:func:`~repro.api.stages.inputs_by_stage`).

All built-in stages carry ``version=0``: the seed version, which leaves
their cache keys exactly as before the stage API existed.  Bump a
stage's version after editing its code to invalidate that stage's
artifacts (and everything keyed off them) without touching the rest of
the cache.

Every cacheable built-in stage registers its ``key_fn`` here, and these
are the only derivations of the built-in store keys: the planner and
the :class:`~repro.api.experiment.Experiment` that stage bodies run on
both call ``STAGE_REGISTRY.get(name).task_key(spec, params)``, so
planned and interactive runs address the same artifacts by
construction.  The one exception is the bundle: its real key embeds the
data-dependent pre-training receiver index, so its ``key_fn`` is a
planning surrogate and the store key has its own single derivation,
:meth:`Experiment.bundle_store_key
<repro.api.experiment.Experiment.bundle_store_key>`.

The training stages accept a ``precision`` stage parameter
(``ExperimentSpec(stage_params={"pretrain": {"precision": "float32"}})``
and likewise for ``finetune``): the model trains in float32 for half
the matmul memory bandwidth, and the resulting checkpoints are cached
under precision-derived keys (:func:`repro.api.store.precision_key`) —
the float64 default leaves every key byte-identical.  The knob is read
in one place, :func:`training_precision`.
"""

from __future__ import annotations

import numpy as np

from repro.api.experiment import Experiment
from repro.api.hashing import stable_hash
from repro.api.stages import STAGE_REGISTRY, register_stage
from repro.api.store import (
    evaluation_key,
    finetuned_key,
    precision_key,
    pretrained_key,
    scratch_key,
    traces_key,
)
from repro.core.baselines import evaluate_baselines
from repro.core.features import FeatureSpec
from repro.core.finetune import (
    FinetuneMode,
    mct_pipeline,
    train_delay_from_scratch,
    train_mct_from_scratch,
)
from repro.netsim.scenarios import ScenarioKind, build_scenario, run_scenario
from repro.utils.stats import percentile_summary

__all__ = ["resolve_variant", "training_precision"]

#: Feature-ablation tokens (kept symbolic so task parameters stay JSON).
_FEATURE_VARIANTS = {
    "without_size": FeatureSpec.without_size,
    "without_delay": FeatureSpec.without_delay,
    "without_receiver": FeatureSpec.without_receiver,
}


def resolve_variant(scale, features, aggregation):
    """Symbolic ablation tokens → the concrete config objects.

    ``features`` names a :class:`FeatureSpec` ablation constructor;
    ``aggregation`` names an entry of ``scale.aggregation_variants``.
    Already-resolved objects (and ``None``) pass through unchanged, so
    the interactive paths key their config objects through the same
    ``key_fn`` as planned tokens.
    """
    if isinstance(features, str):
        try:
            features = _FEATURE_VARIANTS[features]()
        except KeyError:
            raise ValueError(
                f"unknown feature variant {features!r}; "
                f"choose from {sorted(_FEATURE_VARIANTS)}"
            ) from None
    if isinstance(aggregation, str):
        try:
            aggregation = scale.aggregation_variants[aggregation]
        except KeyError:
            raise ValueError(
                f"unknown aggregation variant {aggregation!r}; "
                f"choose from {sorted(scale.aggregation_variants)}"
            ) from None
    return features, aggregation


def training_precision(spec, stage: str, params: dict | None = None) -> str:
    """A training stage's compute precision: an explicit ``precision``
    in ``params``, else the spec's ``stage_params`` knob, else float64.

    The one read of the knob — the key functions below, the planner's
    task parameters and :class:`~repro.api.experiment.Experiment` all
    resolve precision here.
    """
    explicit = (params or {}).get("precision")
    return explicit or spec.params_for(stage).get("precision", "float64")


# -- cache keys ---------------------------------------------------------------------
#
# ``key_fn(spec, params)`` of every cacheable built-in stage; Stage.task_key
# folds the stage version in.  A parameter missing from ``params`` takes
# the stage body's default, so interactive callers pass only what they set.


def _traces_key(spec, params):
    return traces_key(spec.scenario_config(params["scenario"]), spec.to_scale().n_runs)


def _bundle_surrogate_key(spec, params):
    """Planning surrogate over the bundle's inputs: the store key embeds
    the pre-training receiver index, a value only known once traces
    exist (see ``Experiment.bundle_store_key``)."""
    scenario = params["scenario"]
    scale = spec.to_scale()
    return stable_hash(
        {
            "plan": "bundle",
            "scenario": spec.scenario_config(scenario),
            "window": scale.window,
            "n_runs": scale.n_runs,
            "pretrain": None
            if scenario == ScenarioKind.PRETRAIN
            else spec.scenario_config(ScenarioKind.PRETRAIN),
        }
    )


def _pretrain_key(spec, params):
    scale = spec.to_scale()
    features, aggregation = resolve_variant(
        scale, params.get("features"), params.get("aggregation")
    )
    key = pretrained_key(
        spec.scenario_config(ScenarioKind.PRETRAIN),
        scale.window,
        scale.n_runs,
        scale.model_config(features=features, aggregation=aggregation),
        scale.pretrain_settings,
    )
    # Ablation variants always train at the default precision — the
    # spec-level knob addresses only the shared pre-trained model.
    if features is None and aggregation is None:
        key = precision_key(key, training_precision(spec, "pretrain", params))
    return key


def _base_model_key(spec, params):
    """Key of the pre-trained model (or ablation variant) a fine-tune,
    from-scratch run or evaluation starts from."""
    variant = {name: params.get(name) for name in ("features", "aggregation")}
    return STAGE_REGISTRY.get("pretrain").task_key(spec, variant)


def _finetune_key(spec, params):
    key = finetuned_key(
        _base_model_key(spec, params),
        spec.scenario_config(params["scenario"]),
        params.get("task", "delay"),
        params.get("mode", FinetuneMode.DECODER_ONLY),
        params.get("fraction"),
        spec.to_scale().finetune_settings,
    )
    return precision_key(key, training_precision(spec, "finetune", params))


def _scratch_key(spec, params):
    scale = spec.to_scale()
    return scratch_key(
        _base_model_key(spec, {}),
        spec.scenario_config(params["scenario"]),
        params.get("task", "delay"),
        params.get("fraction"),
        scale.model_config(),
        scale.finetune_settings,
    )


def _baselines_key(spec, params):
    scale = spec.to_scale()
    return evaluation_key(
        "baselines",
        {
            "scenario": spec.scenario_config(params["scenario"]),
            "window": scale.window,
            "n_runs": scale.n_runs,
        },
        "baselines",
    )


def _evaluate_key(spec, params):
    """Keyed by the model the stage body actually evaluates: the
    pre-trained NTT on its own delay task, else the fine-tune."""
    scenario, task = params["scenario"], params.get("task", "delay")
    if scenario == ScenarioKind.PRETRAIN and task == "delay":
        model_key = _base_model_key(spec, {})
    else:
        model_key = STAGE_REGISTRY.get("finetune").task_key(
            spec,
            {
                "scenario": scenario,
                "task": task,
                "mode": params.get("mode", FinetuneMode.DECODER_ONLY),
            },
        )
    return evaluation_key(model_key, spec.scenario_config(scenario), task)


# -- the standard pipeline --------------------------------------------------------
#
# The entries below own dispatch, kind, version and keys.  Which tasks a
# spec needs (conditional dependencies, the pre-training receiver
# coupling, ablation variants) is decided by repro.runtime.plan, which
# chains these stages itself; custom stages may declare dependencies on
# 'traces' / 'bundle' / 'pretrain' / 'finetune' to pull that chain in.


@register_stage(
    "traces",
    kind="traces",
    key_fn=_traces_key,
    default=True,
    description="raw simulation traces for one scenario",
)
def _stage_traces(experiment: Experiment, inputs, params):
    store, key = experiment.store, params["key"]
    n_runs = experiment.scale.n_runs
    if store is not None and store.has_traces(key, n_runs):
        # Cache hit: report run-set statistics straight from the
        # sidecar — no npz is loaded just for manifest bookkeeping.
        meta = store.trace_run_meta(key) or {}
        if "total_packets" in meta:
            return True, {
                "n_runs": n_runs,
                "total_packets": int(meta["total_packets"]),
            }
        traces = store.get_traces(key, n_runs)
        return True, {
            "n_runs": len(traces),
            "total_packets": int(sum(len(trace) for trace in traces)),
        }
    if store is None:
        traces = experiment.traces(params["scenario"])
        return False, {
            "n_runs": len(traces),
            "total_packets": int(sum(len(trace) for trace in traces)),
        }
    # Cache miss with a store: stream each run's columns straight to
    # disk as it is generated, instead of materialising the whole run
    # set in memory first.  The sidecar published last keeps partial
    # writes invisible to readers.
    config = experiment.spec.scenario_config(params["scenario"])
    total_packets = 0
    for run_index in range(n_runs):
        trace = run_scenario(config, run_index)
        store.put_trace_run(key, run_index, trace)
        total_packets += len(trace)
    store.finalize_trace_runs(key, n_runs, total_packets=total_packets)
    return False, {"n_runs": n_runs, "total_packets": total_packets}


@register_stage(
    "bundle",
    deps=("traces",),
    kind="bundles",
    key_fn=_bundle_surrogate_key,
    default=True,
    description="windowed dataset bundle for one scenario",
)
def _stage_bundle(experiment: Experiment, inputs, params):
    scenario = params["scenario"]
    store = experiment.store
    if store is not None:
        # A hit reports the record's counts without windowing anything;
        # the versioned store key makes a stage-version bump a miss.
        record = store.get_bundle(experiment.bundle_store_key(scenario))
        if record is not None:
            return True, {
                "n_windows": record["n_windows"],
                "n_packets": record["n_packets"],
                "n_receivers": len(record["receiver_index"]),
            }
    bundle = experiment.bundle(scenario)
    return False, {
        "n_windows": bundle.n_windows,
        "n_packets": bundle.n_packets,
        "n_receivers": len(bundle.receiver_index),
    }


@register_stage(
    "pretrain",
    deps=("bundle",),
    kind="checkpoints",
    key_fn=_pretrain_key,
    default=True,
    description="pre-train the shared NTT (or an ablated variant)",
)
def _stage_pretrain(experiment: Experiment, inputs, params):
    store, key = experiment.store, params["key"]
    hit = store is not None and store.is_current("checkpoints", key)
    features, aggregation = resolve_variant(
        experiment.scale, params.get("features"), params.get("aggregation")
    )
    if features is None and aggregation is None:
        result = experiment.pretrained()
    else:
        result = experiment.pretrain_variant(features=features, aggregation=aggregation)
    return hit, {
        "test_mse_seconds2": result.test_mse_seconds2,
        "epochs_run": result.history.epochs_run,
        "train_wall_time_s": result.history.wall_time,
    }


def _summarise_finetune(result) -> dict:
    return {
        "test_mse": result.test_mse,
        "training_time_s": result.training_time,
        "mode": result.mode,
        "task": result.task,
    }


@register_stage(
    "finetune",
    deps=("pretrain", "bundle"),
    kind="checkpoints",
    key_fn=_finetune_key,
    default=True,
    description="fine-tune the pre-trained NTT on a target scenario",
)
def _stage_finetune(experiment: Experiment, inputs, params):
    store, key = experiment.store, params["key"]
    hit = store is not None and store.is_current("checkpoints", key)
    features, aggregation = resolve_variant(
        experiment.scale, params.get("features"), params.get("aggregation")
    )
    result = experiment.finetuned(
        scenario=params["scenario"],
        task=params.get("task", "delay"),
        mode=params.get("mode", "decoder_only"),
        fraction=params.get("fraction"),
        features=features,
        aggregation=aggregation,
    )
    return hit, _summarise_finetune(result)


@register_stage(
    "scratch",
    deps=("pretrain", "bundle"),
    kind="checkpoints",
    key_fn=_scratch_key,
    sweepable=False,
    description="the paper's from-scratch rows (table planners only)",
)
def _stage_scratch(experiment: Experiment, inputs, params):
    """The paper's from-scratch rows: full training, no pre-trained
    weights, but normalised by the pre-training pipeline."""
    store, key = experiment.store, params["key"]
    if store is not None and key is not None:
        cached = store.get_finetuned(key)
        if cached is not None:
            return True, _summarise_finetune(cached[0])
    task = params.get("task", "delay")
    pre = experiment.pretrained()
    bundle = experiment.bundle(params["scenario"])
    fraction = params.get("fraction")
    if fraction is not None:
        bundle = bundle.small_fraction(fraction)
    config = experiment.scale.model_config()
    settings = experiment.scale.finetune_settings
    if task == "delay":
        pipeline = pre.pipeline
        result = train_delay_from_scratch(config, pipeline, bundle, settings=settings)
    else:
        pipeline = mct_pipeline(pre.pipeline)
        result = train_mct_from_scratch(config, pipeline, bundle, settings=settings)
    if store is not None and key is not None:
        store.put_finetuned(key, result, pipeline)
    return False, _summarise_finetune(result)


@register_stage(
    "baselines",
    deps=("bundle",),
    kind="evaluations",
    key_fn=_baselines_key,
    sweepable=False,
    description="naive baseline evaluations (table planners only)",
)
def _stage_baselines(experiment: Experiment, inputs, params):
    store, key = experiment.store, params["key"]
    if store is not None and key is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    rows = evaluate_baselines(experiment.bundle(params["scenario"]).test)
    payload = {"scenario": params["scenario"], "rows": rows}
    if store is not None and key is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


@register_stage(
    "evaluate",
    deps=("finetune",),
    kind="evaluations",
    key_fn=_evaluate_key,
    default=True,
    description="the spec's model vs. the naive baselines on its test set",
)
def _stage_evaluate(experiment: Experiment, inputs, params):
    """Terminal sweep stage: the spec's model vs. the naive baselines on
    its scenario's held-out test set (cached as a JSON evaluation)."""
    store, key = experiment.store, params["key"]
    if store is not None and key is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    scenario = params["scenario"]
    task = params.get("task", "delay")
    if scenario == ScenarioKind.PRETRAIN and task == "delay":
        predictor = experiment.predictor(scenario=scenario)
    else:
        predictor = experiment.predictor(
            scenario=scenario, task=task, mode=params.get("mode", "decoder_only")
        )
    test = experiment.bundle(scenario).test
    if task == "mct":
        test = test.with_completed_messages_only()
    predictions = predictor.predict_dataset(test)
    actual = np.log(test.mct_target) if task == "mct" else test.delay_target
    payload = {
        "scenario": scenario,
        "task": task,
        "n_test_windows": int(len(test)),
        "model_mse": float(np.mean((predictions - actual) ** 2)),
        "baselines": evaluate_baselines(test),
    }
    if store is not None and key is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


@register_stage(
    "trace_stats",
    description="Fig. 4-style per-scenario trace statistics",
)
def _stage_trace_stats(experiment: Experiment, inputs, params):
    """Fig. 4-style per-scenario trace statistics (always recomputed —
    this stage exists to measure the simulator itself)."""
    config = experiment.spec.scenario_config(params["scenario"])
    handle = build_scenario(config)
    trace = handle.run()
    delays = trace.delay
    summary = percentile_summary(delays * 1e3)
    per_receiver = {
        str(receiver): float(delays[trace.receiver_id == receiver].mean() * 1e3)
        for receiver in sorted(set(trace.receiver_id.tolist()))
    }
    return False, {
        "packets": len(trace),
        "messages": int(trace.is_message_end.sum()),
        "delay_mean_ms": summary.mean,
        "delay_p50_ms": summary.p50,
        "delay_p99_ms": summary.p99,
        "delay_p999_ms": summary.p999,
        # SimStats aggregates drops as they happen (threaded through
        # every queue), so no topology walk is needed here.
        "queue_drops": handle.sim.stats.packets_dropped,
        "per_receiver_mean_delay_ms": per_receiver,
        "events_processed": handle.sim.events_processed,
    }
