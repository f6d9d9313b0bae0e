"""Figure 4 — the dataset-generation setup, regenerated as trace statistics.

The paper's Fig. 4 is the topology diagram behind the three datasets;
the executable equivalent is: build each scenario, run it, and report
packet counts, delay distributions, drops and (for case 2) per-receiver
delay separation.

The per-scenario fan-out goes through the ``repro.runtime`` campaign
engine (one uncached ``trace_stats`` task per scenario, run in-process),
so the benchmark exercises the same stage code as ``repro sweep``.
"""

from __future__ import annotations

from benchmarks.conftest import save_results
from repro.netsim.scenarios import ScenarioKind
from repro.runtime import CampaignEngine, expand_grid, plan_campaign


def _stats_for_scenarios(scale, kinds) -> dict:
    """Fan the per-scenario statistics out through the campaign engine."""
    specs = expand_grid(scenarios=kinds, scales=[scale.name], seeds=[0])
    plan = plan_campaign(specs, stages=("trace_stats",))
    engine = CampaignEngine(store=None)
    result = engine.run(plan)
    failures = result.failed_tasks()
    assert not failures, failures
    by_scenario = {}
    for task in plan.ordered():
        by_scenario[task.params["scenario"]] = result[task.id]
    return by_scenario


def test_fig4_trace_statistics(scale):
    """Regenerate all three Fig. 4 datasets and validate their shape."""
    stats = _stats_for_scenarios(scale, ScenarioKind.ALL)
    save_results("fig4_scenarios", {"stats": stats})

    pretrain = stats[ScenarioKind.PRETRAIN]
    case1 = stats[ScenarioKind.CASE1]
    case2 = stats[ScenarioKind.CASE2]
    # The bottleneck must actually congest: delays spread over >2x.
    assert pretrain["delay_p99_ms"] > 2 * pretrain["delay_p50_ms"]
    # Cross-traffic (case 1) increases pressure on the shared queue.
    assert case1["queue_drops"] >= pretrain["queue_drops"]
    # Case 2 has several receivers with distinct mean path delays.
    means = list(case2["per_receiver_mean_delay_ms"].values())
    assert len(means) >= 2
    assert max(means) > min(means)

    print("\nFig. 4 scenario statistics:")
    for kind, row in stats.items():
        print(
            f"  {kind:9s} packets={row['packets']:7d} messages={row['messages']:6d} "
            f"delay p50/p99 = {row['delay_p50_ms']:.1f}/{row['delay_p99_ms']:.1f} ms "
            f"drops={row['queue_drops']}"
        )
