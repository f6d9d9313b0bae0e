"""Ablation benches for the design choices DESIGN.md calls out.

Beyond Table 1's fixed ablation rows, these sweep the aggregation
granularity (the §5 open question: "which sequence sizes and aggregation
levels generalize best?") and compare encoder depths.
"""

from __future__ import annotations

from benchmarks.conftest import save_results
from repro.core.aggregation import AggregationSpec
from repro.core.pipeline import pretrain_at_scale
from repro.core.pretrain import pretrain
from repro.netsim.scenarios import ScenarioKind


def test_aggregation_granularity_sweep(scale, experiment):
    """Pre-train the NTT under different aggregation specs and compare
    delay MSE: the paper's multi-timescale spec should be competitive
    with both extremes (no history vs. no recent detail)."""
    bundle = experiment.bundle(ScenarioKind.PRETRAIN)
    results = {}
    for name, spec in experiment.scale.aggregation_variants.items():
        outcome = pretrain_at_scale(experiment.scale, bundle, aggregation=spec)
        results[name] = {
            "seq_len": spec.seq_len,
            "out_len": spec.out_len,
            "pretrain_delay_mse": outcome.test_mse_seconds2,
            "train_wall_s": outcome.history.wall_time,
        }
    save_results("ablation_aggregation", {"rows": results})
    print("\nAggregation sweep (delay MSE s^2 x1e-3):")
    for name, row in results.items():
        print(
            f"  {name:8s} seq={row['seq_len']:5d} out={row['out_len']:3d} "
            f"mse={row['pretrain_delay_mse'] * 1e3:8.4f} wall={row['train_wall_s']:.0f}s"
        )
    for row in results.values():
        assert row["pretrain_delay_mse"] > 0


def test_encoder_depth_ablation(scale, experiment):
    """One- vs two-layer encoders on the pre-training task."""
    from dataclasses import replace

    bundle = experiment.bundle(ScenarioKind.PRETRAIN)
    results = {}
    base = experiment.scale.model_config()
    for layers in (1, base.n_layers):
        config = replace(base, n_layers=layers)
        outcome = pretrain(config, bundle, settings=experiment.scale.pretrain_settings)
        results[f"layers_{layers}"] = {
            "pretrain_delay_mse": outcome.test_mse_seconds2,
            "parameters": outcome.model.num_parameters(),
            "train_wall_s": outcome.history.wall_time,
        }
    save_results("ablation_depth", {"rows": results})
    print("\nEncoder depth sweep:")
    for name, row in results.items():
        print(
            f"  {name}: mse={row['pretrain_delay_mse'] * 1e3:.4f}x1e-3 "
            f"params={row['parameters']} wall={row['train_wall_s']:.0f}s"
        )
