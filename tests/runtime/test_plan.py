"""Tests for campaign planning: dedup, dependencies, seeds, tables."""

import pytest

from repro.api import ExperimentSpec
from repro.runtime import expand_grid, plan_campaign, plan_table

SMOKE = ExperimentSpec(scenario="pretrain", scale="smoke")


def stages_of(plan):
    from collections import Counter

    return Counter(task.stage for task in plan.ordered())


class TestPlanCampaign:
    def test_single_pretrain_spec_chain(self):
        plan = plan_campaign([ExperimentSpec(scenario="pretrain", scale="smoke")])
        assert stages_of(plan) == {"traces": 1, "bundle": 1, "pretrain": 1, "evaluate": 1}

    def test_finetune_scenario_adds_both_chains(self):
        plan = plan_campaign([ExperimentSpec(scenario="case1", scale="smoke")])
        assert stages_of(plan) == {
            "traces": 2, "bundle": 2, "pretrain": 1, "finetune": 1, "evaluate": 1,
        }

    def test_shared_pretrain_deduplicates(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs)
        counts = stages_of(plan)
        assert counts["pretrain"] == 1  # shared environment plans once
        (pretrain,) = [t for t in plan.ordered() if t.stage == "pretrain"]
        assert len(pretrain.spec_hashes) == 2

    def test_different_seeds_do_not_share(self):
        specs = expand_grid(scenarios=["pretrain"], scales=["smoke"], seeds=[0, 1])
        assert stages_of(plan_campaign(specs))["pretrain"] == 2

    def test_dependencies_precede_dependents(self):
        specs = expand_grid(scenarios=["case1", "case2"], scales=["smoke"], seeds=[0, 1])
        plan = plan_campaign(specs)
        seen = set()
        for task in plan.ordered():
            assert all(dep in seen for dep in task.deps), task.id
            seen.add(task.id)

    def test_spawn_keys_distinct_and_deterministic(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs, seed=42)
        keys = [task.spawn_key for task in plan.ordered()]
        assert len(set(keys)) == len(keys)
        again = plan_campaign(specs, seed=42)
        assert [t.spawn_key for t in again.ordered()] == keys

    def test_stage_filter(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs, stages=("trace_stats",))
        assert stages_of(plan) == {"trace_stats": 2}

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            plan_campaign([ExperimentSpec(scale="smoke")], stages=("simulate",))

    def test_table_only_stages_rejected_for_sweeps(self):
        with pytest.raises(ValueError, match="unknown stages"):
            plan_campaign([ExperimentSpec(scale="smoke")], stages=("baselines",))

    def test_unproductive_stage_subset_rejected(self):
        # 'evaluate' without its model stages would plan an empty
        # campaign that "succeeds" doing nothing.
        with pytest.raises(ValueError, match="plan no work"):
            plan_campaign(
                [ExperimentSpec(scenario="case1", scale="smoke")],
                stages=("evaluate",),
            )

    def test_campaign_id_stable(self):
        specs = expand_grid(scenarios=["case1"], scales=["smoke"], seeds=[0])
        assert plan_campaign(specs).campaign_id == plan_campaign(specs).campaign_id

    def test_describe_lists_every_task(self):
        plan = plan_campaign([ExperimentSpec(scenario="case1", scale="smoke")])
        text = plan.describe()
        for task in plan.ordered():
            assert task.id in text


class TestPlanTable:
    def test_table1_layout_covers_all_rows(self):
        plan, layout = plan_table(1, SMOKE)
        assert set(layout["variants"]) == {
            "no_aggregation",
            "fixed_aggregation",
            "without_packet_size",
            "without_delay",
        }
        counts = stages_of(plan)
        assert counts["pretrain"] == 5  # base + four ablations
        assert counts["finetune"] == 10  # delay+mct for base and each variant
        assert counts["scratch"] == 2
        assert counts["baselines"] == 2

    def test_table2_layout(self):
        plan, layout = plan_table(2, SMOKE)
        assert {"pretrained_full", "pretrained_10pct", "scratch_full", "scratch_10pct"} <= set(
            layout
        )
        assert stages_of(plan)["pretrain"] == 1

    def test_table3_includes_receiver_ablation(self):
        plan, layout = plan_table(3, SMOKE)
        assert "without_receiver_id" in layout
        assert stages_of(plan)["pretrain"] == 2  # base + without_receiver

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            plan_table(9, SMOKE)
