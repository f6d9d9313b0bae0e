"""``repro.runtime`` — the parallel campaign engine.

The layer between the :mod:`repro.api` facade and the training
pipeline: it takes *many* experiment specs, plans them as one
deduplicated task graph (traces → bundle → pretrain → finetune →
evaluate, collapsed by artifact-store key so shared stages run once),
and executes the graph either in-process or on a worker pool, with
retries, per-task spawned seed sequences and a JSON campaign manifest.

Pipelines are composed of *registered stages*
(:data:`~repro.api.stages.STAGE_REGISTRY`): the built-in chain, the
§5 extension stages (``federated_pretrain``, ``drift_monitor``) and any
stage registered through :func:`~repro.api.stages.register_stage` all
plan, cache, parallelise and manifest identically.

Quickstart::

    from repro.runtime import expand_grid, run_campaign

    specs = expand_grid(scenarios=["pretrain", "case1"], seeds=[0, 1],
                        scales=["smoke"])
    result = run_campaign(specs, workers=2)
    print(result.format_summary())          # statuses, timings, hits
    print(result.manifest_path)             # the JSON manifest

The same engine backs ``repro sweep``, the paper's table runners and
the benchmark fan-outs.  Stage sets come from the registry:
``STAGE_REGISTRY.default_pipeline()``, ``.sweep_stages()`` and
``.all_stages()``.
"""

from repro.api.stages import STAGE_REGISTRY, Stage, register_stage
from repro.runtime.engine import CampaignEngine, CampaignResult, run_campaign
from repro.runtime.journal import CampaignJournal, JournalState, read_journal
from repro.runtime.plan import (
    CampaignPlan,
    StageTask,
    plan_campaign,
    plan_table,
)
from repro.runtime.policy import RetryPolicy
from repro.runtime.sweep import expand_grid, specs_from_file
from repro.runtime.worker import execute_stage, run_task

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "run_campaign",
    "RetryPolicy",
    "CampaignJournal",
    "JournalState",
    "read_journal",
    "CampaignPlan",
    "StageTask",
    "plan_campaign",
    "plan_table",
    "expand_grid",
    "specs_from_file",
    "execute_stage",
    "run_task",
    "Stage",
    "STAGE_REGISTRY",
    "register_stage",
]
