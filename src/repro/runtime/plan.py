"""Campaign planning: specs → a deduplicated stage-task graph.

A campaign turns a set of :class:`~repro.api.spec.ExperimentSpec`\\ s
into :class:`StageTask`\\ s along the experiment pipeline.  The standard
pipeline::

    traces → bundle → pretrain → finetune → evaluate

is no longer hard-coded: every stage — built-in, extension or
user-registered — lives in the
:data:`~repro.api.stages.STAGE_REGISTRY`, and the planner reads stage
sets, cache kinds and keys from it: every task is keyed by its stage's
``task_key(spec, params)`` (the registered ``key_fn`` with the stage
version folded in), the same derivation the interactive
:class:`~repro.api.experiment.Experiment` paths use.  A spec may also
carry its own ``pipeline`` (any sweepable registered stages) plus
per-stage ``stage_params``; both participate in the spec's content hash.

Tasks are deduplicated by the same content-addressed keys the
:class:`~repro.api.store.ArtifactStore` uses, so two specs sharing a
pre-training environment plan *one* pretrain task, not two.  The plan
is purely declarative — executing it (serially or on a worker pool) is
the :class:`~repro.runtime.engine.CampaignEngine`'s job, and the actual
caching still happens inside the store, so a slightly conservative plan
can never cause recomputation.

Every task is assigned an independent :class:`numpy.random.SeedSequence`
via ``spawn`` at planning time (deterministic in the plan, independent
of execution order), covering engine-level randomness such as retry
backoff.  Stage-level randomness always comes from the spec itself —
that is what keys the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Importing the module registers the built-in stages.
import repro.runtime.stages  # noqa: F401
from repro.api.hashing import stable_hash
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.core.finetune import FinetuneMode
from repro.netsim.scenarios import ScenarioKind
from repro.runtime.stages import training_precision

__all__ = [
    "StageTask",
    "CampaignPlan",
    "plan_campaign",
    "plan_table",
]

#: Stage names whose planning is orchestrated as one chain by
#: :func:`_plan_spec` (conditional dependencies, ablation coupling);
#: every other registered stage plans generically via its entry.
_CHAIN_STAGES = ("traces", "bundle", "pretrain", "finetune", "evaluate", "trace_stats")


@dataclass
class StageTask:
    """One schedulable unit of campaign work."""

    id: str
    stage: str
    spec: ExperimentSpec
    params: dict = field(default_factory=dict)
    #: store kind + key backing this task (``None`` → not cacheable).
    kind: str | None = None
    key: str | None = None
    deps: tuple[str, ...] = ()
    #: hashes of every spec that contributed this task (dedup record).
    spec_hashes: tuple[str, ...] = ()
    #: ``SeedSequence`` spawn key assigned at planning time.
    spawn_key: tuple[int, ...] = ()
    #: module defining the stage's ``run`` (worker-process provenance).
    module: str = ""

    def payload(
        self,
        store_root: str | None,
        seed: int,
        attempt: int = 0,
        inputs: dict | None = None,
    ) -> dict:
        """The picklable/JSON form handed to workers.

        ``attempt`` counts prior failures; workers apply a jittered
        backoff (derived from the task's spawned seed sequence, so it is
        reproducible) before a retry executes.  ``inputs`` maps this
        task's dependency ids to their result dictionaries.
        """
        return {
            "id": self.id,
            "stage": self.stage,
            "spec": self.spec.to_dict(),
            "params": self.params,
            "key": self.key,
            "kind": self.kind,
            "store_root": store_root,
            "seed_entropy": seed,
            "spawn_key": list(self.spawn_key),
            "attempt": attempt,
            "inputs": dict(inputs or {}),
            "stage_module": self.module,
        }


class CampaignPlan:
    """An ordered, deduplicated task graph for one campaign."""

    def __init__(self, specs: list[ExperimentSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self.tasks: dict[str, StageTask] = {}
        #: the campaign-level stage selection, recorded by
        #: :func:`plan_campaign` so journals can re-plan the identical
        #: graph on resume; ``None`` for bespoke plans (tables, tests),
        #: which journal records but are not resumable.
        self.stages: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.tasks

    @property
    def campaign_id(self) -> str:
        """Content hash of the whole plan (used to key the manifest)."""
        return stable_hash({"campaign": sorted(self.tasks)})

    def add(
        self,
        stage: str,
        spec: ExperimentSpec,
        params: dict | None = None,
        kind: str | None = None,
        key: str | None = None,
        deps: tuple[str, ...] = (),
    ) -> str:
        """Add (or merge into) a task; returns its id.

        ``stage`` must be registered.  Tasks are identified by ``stage``
        + cache key — the same key planned from two specs collapses into
        one task whose ``spec_hashes`` records both.
        """
        entry = STAGE_REGISTRY.get(stage)  # raises with registered names
        params = dict(params or {})
        digest = key if key is not None else stable_hash(
            {"spec": spec.spec_hash, "params": params}
        )
        task_id = f"{stage}:{digest[:12]}"
        spec_hash = spec.spec_hash
        existing = self.tasks.get(task_id)
        if existing is not None:
            if spec_hash not in existing.spec_hashes:
                existing.spec_hashes += (spec_hash,)
            existing.deps = tuple(dict.fromkeys(existing.deps + tuple(deps)))
            return task_id
        params["key"] = key
        self.tasks[task_id] = StageTask(
            id=task_id,
            stage=stage,
            spec=spec,
            params=params,
            kind=kind,
            key=key,
            deps=tuple(dict.fromkeys(deps)),
            spec_hashes=(spec_hash,),
            module=entry.module,
        )
        return task_id

    def finalise(self) -> "CampaignPlan":
        """Assign each task an independent spawned seed sequence."""
        children = np.random.SeedSequence(self.seed).spawn(len(self.tasks))
        for task, child in zip(self.tasks.values(), children):
            task.spawn_key = tuple(int(part) for part in child.spawn_key)
        return self

    def ordered(self) -> list[StageTask]:
        """Tasks in execution order (insertion order is topological:
        dependencies are always added before their dependents)."""
        return list(self.tasks.values())

    def describe(self, store=None) -> str:
        """Human-readable plan listing (the ``--dry-run`` output)."""
        lines = [
            f"campaign {self.campaign_id}: "
            f"{len(self.specs)} spec(s) -> {len(self.tasks)} task(s)"
        ]
        for task in self.ordered():
            cached = ""
            # Bundles are deduplicated on a planning surrogate (the real
            # key embeds the data-dependent receiver index), so their
            # cache state is only knowable at execution time.
            if (
                store is not None
                and task.kind is not None
                and task.key is not None
                and task.kind != "bundles"
            ):
                cached = "  [cached]" if store.is_current(task.kind, task.key) else ""
            shared = f"  (shared by {len(task.spec_hashes)} specs)" if len(task.spec_hashes) > 1 else ""
            deps = f"  <- {', '.join(task.deps)}" if task.deps else ""
            lines.append(f"  {task.id:26s}{deps}{shared}{cached}")
        return "\n".join(lines)


# -- sweep planning ---------------------------------------------------------------


def plan_campaign(
    specs: list[ExperimentSpec],
    stages: tuple[str, ...] | None = None,
    seed: int = 0,
) -> CampaignPlan:
    """Plan the pipeline for every spec, deduplicated by key.

    ``stages`` restricts the pipeline (e.g. ``("traces",)`` plans a
    simulation-only sweep, ``("trace_stats",)`` a statistics fan-out,
    ``("federated_pretrain",)`` a registered extension stage); the
    default is the registry's standard pipeline.  A spec carrying its
    own ``pipeline`` overrides the campaign-level selection for that
    spec.
    """
    if stages is None:
        stages = STAGE_REGISTRY.default_pipeline()
    _validate_sweep_stages(tuple(stages))
    plan = CampaignPlan(specs, seed=seed)
    plan.stages = tuple(stages)
    for spec in specs:
        pipeline = tuple(spec.pipeline) if spec.pipeline is not None else tuple(stages)
        if spec.pipeline is not None:
            _validate_sweep_stages(pipeline)
        before = len(plan.tasks)
        _plan_spec(plan, spec, set(pipeline))
        shared = any(
            spec.spec_hash in task.spec_hashes for task in plan.tasks.values()
        )
        if len(plan.tasks) == before and not shared:
            # e.g. stages=("evaluate",) without the model stages: refuse
            # to "succeed" with an empty campaign.
            raise ValueError(
                f"stages {pipeline} plan no work for spec "
                f"{spec.scenario!r}; downstream stages need their "
                f"upstream stages (try the default "
                f"{STAGE_REGISTRY.default_pipeline()})"
            )
    return plan.finalise()


def _validate_sweep_stages(stages: tuple[str, ...]) -> None:
    """Reject stage names that are unregistered or table-only, listing
    the registered sweepable stages."""
    allowed = STAGE_REGISTRY.sweep_stages()
    unknown = set(stages) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown stages {sorted(unknown)}; choose from the registered "
            f"sweep stages {allowed}"
        )


def _add(
    plan: CampaignPlan,
    name: str,
    spec: ExperimentSpec,
    params: dict,
    deps: tuple[str, ...] = (),
) -> str:
    """Add one task keyed by its registered stage: kind and key both
    come from the registry entry."""
    stage = STAGE_REGISTRY.get(name)
    return plan.add(
        name, spec, params, kind=stage.kind, key=stage.task_key(spec, params), deps=deps
    )


def _with_precision(params: dict, spec: ExperimentSpec, stage: str) -> dict:
    """Record a non-default training precision in the task parameters
    (the manifest shows it; the key already folds it in)."""
    precision = training_precision(spec, stage)
    if precision != "float64":
        params["precision"] = precision
    return params


def _plan_traces(plan: CampaignPlan, spec: ExperimentSpec, scenario: str) -> str:
    return _add(plan, "traces", spec, {"scenario": scenario})


def _plan_bundle(
    plan: CampaignPlan, spec: ExperimentSpec, scenario: str, stages: set
) -> str:
    """Plan a bundle task (plus its traces and, for fine-tuning
    scenarios, the pre-training bundle that donates receiver ids).

    The real bundle key depends on the pre-training receiver index — a
    value only known once traces exist — so the bundle stage's
    ``key_fn`` is a surrogate over the same inputs; the store still
    content-addresses the artifact exactly.
    """
    deps = []
    if "traces" in stages:
        deps.append(_plan_traces(plan, spec, scenario))
    if scenario != ScenarioKind.PRETRAIN:
        deps.append(_plan_bundle(plan, spec, ScenarioKind.PRETRAIN, stages))
    return _add(plan, "bundle", spec, {"scenario": scenario}, tuple(deps))


def _plan_pretrain(
    plan: CampaignPlan,
    spec: ExperimentSpec,
    stages: set,
    features: str | None = None,
    aggregation: str | None = None,
) -> str:
    deps = []
    if "bundle" in stages:
        deps.append(_plan_bundle(plan, spec, ScenarioKind.PRETRAIN, stages))
    params = {"features": features, "aggregation": aggregation}
    if features is None and aggregation is None:
        params = _with_precision(params, spec, "pretrain")
    return _add(plan, "pretrain", spec, params, tuple(deps))


def _plan_finetune(
    plan: CampaignPlan,
    spec: ExperimentSpec,
    scenario: str,
    stages: set,
    task: str = "delay",
    mode: str = FinetuneMode.DECODER_ONLY,
    fraction: float | None = None,
    features: str | None = None,
    aggregation: str | None = None,
) -> str:
    deps = [_plan_pretrain(plan, spec, stages, features, aggregation)]
    if "bundle" in stages:
        deps.append(_plan_bundle(plan, spec, scenario, stages))
    params = {
        "scenario": scenario,
        "task": task,
        "mode": mode,
        "fraction": fraction,
        "features": features,
        "aggregation": aggregation,
    }
    params = _with_precision(params, spec, "finetune")
    return _add(plan, "finetune", spec, params, tuple(deps))


def _plan_spec(plan: CampaignPlan, spec: ExperimentSpec, stages: set) -> None:
    """Plan one spec: the built-in chain for the stages it covers, then
    every other registered stage generically."""
    scenario = spec.scenario
    if "trace_stats" in stages:
        _add(plan, "trace_stats", spec, {"scenario": scenario})
    model_task = None
    if "pretrain" in stages:
        model_task = _plan_pretrain(plan, spec, stages)
    elif "bundle" in stages:
        _plan_bundle(plan, spec, scenario, stages)
    elif "traces" in stages:
        _plan_traces(plan, spec, scenario)
    if (
        "finetune" in stages
        and model_task is not None
        and scenario != ScenarioKind.PRETRAIN
    ):
        model_task = _plan_finetune(plan, spec, scenario, stages)
    if "evaluate" in stages and model_task is not None:
        params = {"scenario": scenario, "task": "delay"}
        _add(plan, "evaluate", spec, params, (model_task,))
    # Registered non-chain stages (extensions, user plugins), planned in
    # registration order for determinism.
    for name in STAGE_REGISTRY.all_stages():
        if name in stages and name not in _CHAIN_STAGES:
            _plan_registered(plan, spec, name)


def _plan_registered(plan: CampaignPlan, spec: ExperimentSpec, name: str) -> str:
    """Generic planning for a registered stage: plan its declared
    dependencies recursively, then add one task keyed by the stage's
    versioned content address."""
    deps = tuple(_plan_dep(plan, spec, dep) for dep in STAGE_REGISTRY.get(name).deps)
    return _add(plan, name, spec, spec.params_for(name), deps)


def _plan_dep(plan: CampaignPlan, spec: ExperimentSpec, name: str) -> str:
    """Plan one dependency stage for a spec.

    Chain stages route through their bespoke planners with the full
    standard pipeline active (a custom stage depending on ``pretrain``
    gets the whole traces→bundle→pretrain chain); other registered
    stages recurse through :func:`_plan_registered`.
    """
    chain = set(STAGE_REGISTRY.default_pipeline())
    if name == "traces":
        return _plan_traces(plan, spec, spec.scenario)
    if name == "bundle":
        return _plan_bundle(plan, spec, spec.scenario, chain)
    if name == "pretrain":
        return _plan_pretrain(plan, spec, chain)
    if name == "finetune":
        return _plan_finetune(plan, spec, spec.scenario, chain)
    if name in _CHAIN_STAGES:
        raise ValueError(
            f"stage {name!r} cannot be declared as a dependency; depend on "
            "'traces', 'bundle', 'pretrain' or 'finetune' instead"
        )
    return _plan_registered(plan, spec, name)


# -- table planning ---------------------------------------------------------------


def plan_table(table: int, spec: ExperimentSpec, seed: int = 0):
    """Plan one of the paper's tables as a campaign.

    Returns ``(plan, layout)`` where ``layout`` maps logical unit names
    (used by the table assemblers in :mod:`repro.core.pipeline`) to task
    ids.
    """
    planners = {1: _plan_table1, 2: _plan_table2, 3: _plan_table3}
    try:
        planner = planners[int(table)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown table {table!r}; choose from {sorted(planners)}") from None
    plan = CampaignPlan([spec], seed=seed)
    layout = planner(plan, spec)
    return plan.finalise(), layout


def _plan_scratch(
    plan: CampaignPlan,
    spec: ExperimentSpec,
    scenario: str,
    task: str,
    fraction: float | None,
    stages: set,
) -> str:
    deps = (
        _plan_pretrain(plan, spec, stages),  # donates the fitted pipeline
        _plan_bundle(plan, spec, scenario, stages),
    )
    params = {"scenario": scenario, "task": task, "fraction": fraction}
    return _add(plan, "scratch", spec, params, deps)


def _plan_baselines(plan: CampaignPlan, spec: ExperimentSpec, scenario: str, stages: set) -> str:
    deps = (_plan_bundle(plan, spec, scenario, stages),)
    return _add(plan, "baselines", spec, {"scenario": scenario}, deps)


#: Table 1's ablation rows → symbolic variant tokens.
TABLE1_VARIANTS = {
    "no_aggregation": {"aggregation": "none"},
    "fixed_aggregation": {"aggregation": "fixed"},
    "without_packet_size": {"features": "without_size"},
    "without_delay": {"features": "without_delay"},
}


def _plan_table1(plan: CampaignPlan, spec: ExperimentSpec) -> dict:
    stages = set(STAGE_REGISTRY.default_pipeline())
    fraction = spec.to_scale().fine_fraction
    case1 = ScenarioKind.CASE1
    layout = {
        "pretrain": _plan_pretrain(plan, spec, stages),
        "ft_delay": _plan_finetune(plan, spec, case1, stages, task="delay", fraction=fraction),
        "ft_mct": _plan_finetune(plan, spec, case1, stages, task="mct", fraction=fraction),
        "scratch_delay": _plan_scratch(plan, spec, case1, "delay", fraction, stages),
        "scratch_mct": _plan_scratch(plan, spec, case1, "mct", fraction, stages),
        "baselines_pretrain": _plan_baselines(plan, spec, ScenarioKind.PRETRAIN, stages),
        "baselines_case1": _plan_baselines(plan, spec, case1, stages),
        "variants": {},
    }
    for name, tokens in TABLE1_VARIANTS.items():
        layout["variants"][name] = {
            "pretrain": _plan_pretrain(plan, spec, stages, **tokens),
            "ft_delay": _plan_finetune(
                plan, spec, case1, stages, task="delay", fraction=fraction, **tokens
            ),
            "ft_mct": _plan_finetune(
                plan, spec, case1, stages, task="mct", fraction=fraction, **tokens
            ),
        }
    return layout


def _plan_table2(plan: CampaignPlan, spec: ExperimentSpec) -> dict:
    stages = set(STAGE_REGISTRY.default_pipeline())
    fraction = spec.to_scale().fine_fraction
    case1 = ScenarioKind.CASE1
    return {
        "pretrain": _plan_pretrain(plan, spec, stages),
        "pretrained_full": _plan_finetune(plan, spec, case1, stages, fraction=None),
        "pretrained_10pct": _plan_finetune(plan, spec, case1, stages, fraction=fraction),
        "scratch_full": _plan_scratch(plan, spec, case1, "delay", None, stages),
        "scratch_10pct": _plan_scratch(plan, spec, case1, "delay", fraction, stages),
    }


def _plan_table3(plan: CampaignPlan, spec: ExperimentSpec) -> dict:
    stages = set(STAGE_REGISTRY.default_pipeline())
    fraction = spec.to_scale().fine_fraction
    case2 = ScenarioKind.CASE2
    full = FinetuneMode.FULL
    return {
        "pretrain": _plan_pretrain(plan, spec, stages),
        "pretrained_full": _plan_finetune(plan, spec, case2, stages, mode=full, fraction=None),
        "pretrained_10pct": _plan_finetune(plan, spec, case2, stages, mode=full, fraction=fraction),
        "scratch_full": _plan_scratch(plan, spec, case2, "delay", None, stages),
        "scratch_10pct": _plan_scratch(plan, spec, case2, "delay", fraction, stages),
        "baselines_case2": _plan_baselines(plan, spec, case2, stages),
        "without_receiver_id": _plan_finetune(
            plan, spec, case2, stages, mode=full, fraction=None, features="without_receiver"
        ),
    }
