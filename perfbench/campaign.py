"""One campaign phase in its own process, the way a user runs one.

    python3 perfbench/campaign.py --workload table1 --variant 0 \
        --store DIR --out result.json --launched <monotonic> [--probe-dir DIR]

The process imports the program, plans the workload, runs the plan on a
2-worker engine against ``--store`` and writes what it saw to ``--out``:
set-up and wall times, the manifest's task rows and telemetry, and the
workload's outputs (Table 1 rows, packet and window counts).  The
launching process passes its ``time.monotonic()`` at launch, a clock
shared by all processes on the machine, so set-up time includes
interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import math
import time

WORKERS = 2


def table1_spec(variant: int):
    """The Table 1 spec: small-scale shapes, one run, one epoch each.

    The variant is the training seed, so every variant does the same
    amount of work on the same traces.
    """
    from repro.api import ExperimentSpec
    from repro.core.pretrain import TrainSettings

    settings = TrainSettings(epochs=1, seed=variant)
    return ExperimentSpec(
        scenario="pretrain", scale="small", seed=0, n_runs=1,
        pretrain=settings, finetune=settings,
    )


def plan(workload: str, variant: int):
    """``(plan, layout)``; the layout is ``None`` for datagen."""
    from repro.runtime import plan_campaign, plan_table

    if workload == "table1":
        return plan_table(1, table1_spec(variant))
    from repro.api import ExperimentSpec
    from repro.api.registry import SCENARIOS

    specs = [
        ExperimentSpec(scenario=name, scale="small", seed=seed, n_runs=2)
        for name in SCENARIOS.names()
        for seed in (2 * variant, 2 * variant + 1)
    ]
    return plan_campaign(specs, stages=("traces", "bundle")), None


def table1_rows(results: dict, layout: dict) -> dict:
    """The Table 1 rows, assembled as ``repro.core.pipeline.run_table1`` does."""
    rows = {
        "ntt_pretrained": [
            results[layout["pretrain"]]["test_mse_seconds2"],
            results[layout["ft_delay"]]["test_mse"],
            results[layout["ft_mct"]]["test_mse"],
        ],
        "ntt_from_scratch": [
            results[layout["scratch_delay"]]["test_mse"],
            results[layout["scratch_mct"]]["test_mse"],
        ],
    }
    pretrain_rows = results[layout["baselines_pretrain"]]["rows"]
    case1_rows = results[layout["baselines_case1"]]["rows"]
    for name in ("last_observed", "ewma"):
        rows[name] = [
            pretrain_rows[name]["delay_mse"],
            case1_rows[name]["delay_mse"],
            case1_rows[name]["mct_log_mse"],
        ]
    for name, units in layout["variants"].items():
        rows[name] = [
            results[units["pretrain"]]["test_mse_seconds2"],
            results[units["ft_delay"]]["test_mse"],
            results[units["ft_mct"]]["test_mse"],
        ]
    return rows


def outputs(workload: str, result, layout) -> dict:
    """Packet and window counts of the traces and bundles (hits included),
    plus the Table 1 rows."""
    done = [row for row in result.manifest["tasks"] if row["status"] == "done"]
    record = {
        "packets": sum(
            row["result"]["total_packets"] for row in done if row["stage"] == "traces"
        ),
        "windows": sum(
            row["result"]["n_windows"] for row in done if row["stage"] == "bundle"
        ),
    }
    if workload == "table1" and result.ok:
        record["rows"] = table1_rows(result.results, layout)
    return record


def telemetry(manifest: dict) -> dict:
    """What the manifest's observability block says about the run."""
    block = manifest.get("observability")
    if not block:
        return {}
    metrics = block["metrics"]
    steps = metrics["counters"].get("nn.train.steps_total", {}).get("value", 0)
    step_hist = metrics["histograms"].get("nn.train.step_seconds", {})
    root = block["spans"][0]
    starts = [child["start_us"] for child in root["children"]]
    return {
        "steps": steps,
        "step_seconds": step_hist.get("sum", 0.0),
        "first_task_s": (min(starts) - root["start_us"]) / 1e6 if starts else math.nan,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("table1", "datagen"), required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--probe-dir", default=None)
    args = parser.parse_args()

    from repro.api import ArtifactStore
    from repro.runtime import CampaignEngine

    imported = time.monotonic()
    campaign, layout = plan(args.workload, args.variant)
    ready = time.monotonic()
    if args.probe_dir:
        from probe import install_campaign

        install_campaign(args.probe_dir)
    engine = CampaignEngine(store=ArtifactStore(args.store), workers=WORKERS)
    started = time.perf_counter()
    result = engine.run(campaign)
    wall_s = time.perf_counter() - started
    manifest = result.manifest
    record = {
        "import_s": imported - args.launched,
        "setup_s": ready - args.launched,
        "wall_s": wall_s,
        "workers": manifest["workers"],
        "summary": manifest["summary"],
        "tasks": [
            {
                key: row.get(key)
                for key in ("id", "stage", "status", "attempts", "cache_hit", "wall_time_s")
            }
            for row in manifest["tasks"]
        ],
        "telemetry": telemetry(manifest),
        "outputs": outputs(args.workload, result, layout),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
