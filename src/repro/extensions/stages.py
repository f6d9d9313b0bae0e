"""The §5 extension workloads as registered pipeline stages.

Registration lives in this separate module (imported last by
:mod:`repro.extensions`) so that :mod:`repro.extensions.federated` and
:mod:`repro.extensions.continual` keep a core-only import surface:
``repro.api`` re-exports them, so an extension module importing
``repro.api.*`` at its top level would create a circular import for
anyone importing the extensions package first.

Each stage's parameter defaults live in one module-level dictionary
consulted by *both* its ``key_fn`` and its ``run`` body — the cache key
and the computation can never disagree about a default.

* ``federated_pretrain`` — FedAvg pre-training over private client
  datasets; the collective model is stored as a regular pre-trained
  checkpoint (``Experiment``/``Predictor`` machinery can serve it), with
  per-round telemetry in its training history.
* ``drift_monitor`` — the Page-Hinkley staleness check of the deployed
  pre-trained model on this spec's scenario, planned with a real
  ``pretrain`` dependency and cached as a JSON evaluation.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.api.experiment import Experiment
from repro.api.hashing import stable_hash
from repro.api.stages import STAGE_REGISTRY, register_stage
from repro.core.pretrain import PretrainResult
from repro.datasets.generation import generate_dataset
from repro.extensions.continual import DriftMonitor, DriftReport
from repro.extensions.federated import FederatedTrainer
from repro.netsim.scenarios import ScenarioKind
from repro.nn.trainer import TrainingHistory

__all__ = ["FEDERATED_DEFAULTS", "DRIFT_DEFAULTS"]


# -- federated_pretrain ------------------------------------------------------------

#: Stage parameters (set via ExperimentSpec.stage_params["federated_pretrain"]):
#: private organisations simulated, FedAvg rounds (settings.epochs =
#: local epochs per round) and simulation runs per client dataset.
FEDERATED_DEFAULTS = {"n_clients": 3, "rounds": 2, "client_runs": 1}


def _federated_params(params: dict) -> tuple[int, int, int]:
    return (
        int(params.get("n_clients", FEDERATED_DEFAULTS["n_clients"])),
        int(params.get("rounds", FEDERATED_DEFAULTS["rounds"])),
        int(params.get("client_runs", FEDERATED_DEFAULTS["client_runs"])),
    )


def _client_scenario(base, offset: int):
    """A client's private vantage point: the spec's pre-training
    topology under an independent seed (derived from the spec seed so
    campaigns with different seeds never share clients)."""
    return replace(base, seed=1000 * base.seed + offset)


def _federated_key(spec, params: dict) -> str:
    scale = spec.to_scale()
    n_clients, rounds, client_runs = _federated_params(params)
    return stable_hash(
        {
            "artifact": "federated_pretrain",
            "scenario": spec.scenario_config(ScenarioKind.PRETRAIN),
            "window": scale.window,
            "model": scale.model_config(),
            "settings": scale.pretrain_settings,
            "n_clients": n_clients,
            "rounds": rounds,
            "client_runs": client_runs,
        }
    )


@register_stage(
    "federated_pretrain",
    version=1,
    kind="checkpoints",
    key_fn=_federated_key,
    description="FedAvg pre-training over private client datasets (§5)",
)
def _stage_federated_pretrain(experiment: Experiment, inputs, params):
    """Run (or restore) collective pre-training; the global model is
    stored as a regular pre-trained checkpoint, so ``Experiment`` /
    ``Predictor`` machinery can serve it downstream."""
    store, key = experiment.store, params.get("key")
    n_clients, rounds, client_runs = _federated_params(params)
    if store is not None and key is not None:
        cached = store.get_pretrained(key)
        if cached is not None:
            return True, {
                "n_clients": n_clients,
                "rounds": cached.history.epochs_run,
                "global_test_mse": cached.test_mse_seconds2,
                "round_test_mse": list(cached.history.val_loss),
            }
    scale = experiment.scale
    base = experiment.spec.scenario_config(ScenarioKind.PRETRAIN)
    start = time.perf_counter()
    clients = [
        generate_dataset(
            _client_scenario(base, 100 + index),
            window_config=scale.window,
            n_runs=client_runs,
            name=f"client-{index}",
        )
        for index in range(n_clients)
    ]
    # The collective model is scored on a fresh, unseen organisation's
    # traffic — the paper's generalization pitch.
    held_out = generate_dataset(
        _client_scenario(base, 999),
        window_config=scale.window,
        n_runs=client_runs,
        name="held-out-org",
    )
    trainer = FederatedTrainer(
        scale.model_config(), clients, settings=scale.pretrain_settings
    )
    outcomes = trainer.run(rounds, evaluation_bundle=held_out)
    history = TrainingHistory(
        train_loss=[float(np.mean(outcome.client_losses)) for outcome in outcomes],
        val_loss=[float(outcome.global_test_mse) for outcome in outcomes],
        lr=[scale.pretrain_settings.lr] * rounds,
        wall_time=time.perf_counter() - start,
        epochs_run=rounds,
        stopped_early=False,
    )
    result = PretrainResult(
        model=trainer.global_model,
        pipeline=trainer.pipeline,
        history=history,
        test_mse_seconds2=float(outcomes[-1].global_test_mse),
    )
    if store is not None and key is not None:
        store.put_pretrained(key, result)
    return False, {
        "n_clients": n_clients,
        "rounds": rounds,
        "global_test_mse": result.test_mse_seconds2,
        "round_test_mse": list(history.val_loss),
        "final_client_losses": [float(loss) for loss in outcomes[-1].client_losses],
    }


# -- drift_monitor -----------------------------------------------------------------

#: Stage parameters (set via ExperimentSpec.stage_params["drift_monitor"]):
#: Page-Hinkley threshold multiple and benign-noise slack over the
#: baseline error.
DRIFT_DEFAULTS = {"sensitivity": 50.0, "tolerance": 0.5}


def _drift_params(params: dict) -> tuple[float, float]:
    return (
        float(params.get("sensitivity", DRIFT_DEFAULTS["sensitivity"])),
        float(params.get("tolerance", DRIFT_DEFAULTS["tolerance"])),
    )


def _drift_key(spec, params: dict) -> str:
    sensitivity, tolerance = _drift_params(params)
    return stable_hash(
        {
            "artifact": "drift_monitor",
            # The deployed model's own key, precision included.
            "model": STAGE_REGISTRY.get("pretrain").task_key(spec, {}),
            "scenario": spec.scenario_config(spec.scenario),
            "sensitivity": sensitivity,
            "tolerance": tolerance,
        }
    )


def _report_row(report: DriftReport) -> dict:
    return {
        "windows_seen": report.windows_seen,
        "mean_error": report.mean_error,
        "statistic": report.statistic,
        "threshold": report.threshold,
        "drifted": report.drifted,
        "degradation_ratio": report.degradation_ratio,
    }


@register_stage(
    "drift_monitor",
    deps=("pretrain",),
    version=1,
    kind="evaluations",
    key_fn=_drift_key,
    description="Page-Hinkley drift check of the deployed NTT on this spec's scenario (§5)",
)
def _stage_drift_monitor(experiment: Experiment, inputs, params):
    """Deploy the (store-backed) pre-trained model, calibrate the
    monitor on its validation windows, then feed it in-distribution
    traffic followed by the spec's scenario."""
    store, key = experiment.store, params.get("key")
    if store is not None and key is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    sensitivity, tolerance = _drift_params(params)
    pre = experiment.pretrained()
    baseline = experiment.bundle(ScenarioKind.PRETRAIN)
    monitor = DriftMonitor(
        pre.model,
        pre.pipeline,
        baseline=baseline.val,
        sensitivity=sensitivity,
        tolerance=tolerance,
    )
    in_distribution = monitor.observe(baseline.test)
    scenario = experiment.spec.scenario
    if scenario == ScenarioKind.PRETRAIN:
        fresh = in_distribution
    else:
        fresh = monitor.observe(experiment.bundle(scenario).test)
    payload = {
        "scenario": scenario,
        "sensitivity": sensitivity,
        "tolerance": tolerance,
        "baseline_error": monitor.baseline_error,
        "in_distribution": _report_row(in_distribution),
        "fresh": _report_row(fresh),
        "drifted": fresh.drifted,
    }
    if store is not None and key is not None:
        store.put_json("evaluations", key, payload)
    return False, payload
