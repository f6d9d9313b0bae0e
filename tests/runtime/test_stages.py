"""Tests for the first-class Stage API: registry semantics, golden key
stability across the redesign, and custom stages riding the engine."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ArtifactStore, ExperimentSpec, TrainSettings
from repro.api.hashing import stable_hash
from repro.api.stages import STAGE_REGISTRY, StageRegistry, inputs_by_stage
from repro.runtime import CampaignEngine, plan_campaign, plan_table, run_campaign

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)
FLOAT32 = {"pretrain": {"precision": "float32"}, "finetune": {"precision": "float32"}}
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def custom_stage():
    """Register a throwaway stage for the duration of one test."""

    registered = []

    def install(name, run, **options):
        STAGE_REGISTRY.register(name, **options)(run)
        registered.append(name)
        return STAGE_REGISTRY.get(name)

    yield install
    for name in registered:
        STAGE_REGISTRY._entries.pop(name, None)


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("traces", "bundle", "pretrain", "finetune", "evaluate",
                     "scratch", "baselines", "trace_stats"):
            assert name in STAGE_REGISTRY

    def test_extension_stages_registered(self):
        assert "federated_pretrain" in STAGE_REGISTRY
        assert "drift_monitor" in STAGE_REGISTRY
        assert "federated_pretrain" in STAGE_REGISTRY.sweep_stages()

    def test_duplicate_registration_rejected(self):
        fresh = StageRegistry()
        fresh.register("x")(lambda e, i, p: (False, {}))
        with pytest.raises(ValueError, match="already registered"):
            fresh.register("x")(lambda e, i, p: (False, {}))
        fresh.register("x", replace_existing=True)(lambda e, i, p: (True, {}))

    def test_unknown_stage_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered stages") as excinfo:
            STAGE_REGISTRY.get("bogus")
        assert "traces" in str(excinfo.value)

    def test_version_zero_is_key_identity(self):
        assert STAGE_REGISTRY.get("traces").versioned_key("abc123") == "abc123"

    def test_nonzero_version_mixes_into_key(self, custom_stage):
        entry = custom_stage("vtest", lambda e, i, p: (False, {}), version=3)
        versioned = entry.versioned_key("abc123")
        assert versioned != "abc123"
        assert versioned == stable_hash(
            {"stage": "vtest", "stage_version": 3, "base": "abc123"}
        )
        # Bumping the version moves the key again (per-stage invalidation).
        entry.version = 4
        assert entry.versioned_key("abc123") != versioned

    def test_registry_complete_after_api_import(self):
        # `import repro.api` must register built-ins AND extensions:
        # STAGE_REGISTRY is re-exported as the public plugin surface.
        import repro.api as api

        assert api.STAGE_REGISTRY.default_pipeline() == (
            "traces", "bundle", "pretrain", "finetune", "evaluate",
        )

    def test_bundle_version_bump_moves_hit_accounting_with_storage(
        self, monkeypatch, store
    ):
        # The bundle stage's manifest hit-detection recomputes its key
        # inline; after a version bump it must track the storage path
        # (a stale unversioned artifact may not read as a cache hit).
        spec = ExperimentSpec(scenario="pretrain", scale="smoke", pretrain=FAST)
        first = run_campaign([spec], stages=("traces", "bundle"), store=store)
        assert first.ok
        entry = STAGE_REGISTRY.get("bundle")
        monkeypatch.setattr(entry, "version", 1)
        second = run_campaign([spec], stages=("traces", "bundle"), store=store)
        rows = {row["stage"]: row for row in second.manifest["tasks"]}
        assert rows["traces"]["cache_hit"] is True  # untouched stage still hits
        assert rows["bundle"]["cache_hit"] is False  # invalidated by the bump
        third = run_campaign([spec], stages=("traces", "bundle"), store=store)
        assert third.summary["cache_hits"] == third.summary["total"]

    def test_inputs_by_stage_groups_task_ids(self):
        grouped = inputs_by_stage({
            "traces:aaa": {"n": 1},
            "bundle:bbb": {"m": 2},
            "bundle:ccc": {"m": 3},
        })
        assert grouped["traces"] == {"n": 1}
        assert sorted(row["m"] for row in grouped["bundle"]) == [2, 3]


class TestBundleStage:
    def test_warm_hit_reads_only_the_record(self, monkeypatch, store):
        """A warm bundle hit reports the cold run's counts from its
        records: nothing is windowed and no array under bundles/ or
        traces/ is loaded (the fine-tune bundle's key takes the
        pre-training receiver index from the pre-training record)."""
        import numpy as np

        specs = [ExperimentSpec(scenario=name, scale="smoke") for name in ("pretrain", "case1")]
        cold = run_campaign(specs, stages=("traces", "bundle"), store=store)
        assert cold.ok

        def no_windowing(*args, **kwargs):
            raise AssertionError("a bundle hit windowed the traces")

        loaded = []
        real_load = np.load

        def recording_load(file, *args, **kwargs):
            loaded.append(Path(file))
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr("repro.api.experiment.generate_dataset", no_windowing)
        monkeypatch.setattr(np, "load", recording_load)
        warm = run_campaign(specs, stages=("traces", "bundle"), store=store)

        def bundle_rows(result):
            return {
                row["id"]: row for row in result.manifest["tasks"] if row["stage"] == "bundle"
            }

        cold_rows, warm_rows = bundle_rows(cold), bundle_rows(warm)
        assert len(warm_rows) == 2 and warm_rows.keys() == cold_rows.keys()
        for task_id, row in warm_rows.items():
            assert row["cache_hit"] is True, task_id
            assert row["result"] == cold_rows[task_id]["result"], task_id
        assert [path for path in loaded if "bundles" in path.parts] == []
        assert [path for path in loaded if "traces" in path.parts] == []


class TestGoldenKeyStability:
    """The redesign must not invalidate any existing artifact: planning
    the built-in pipeline produces byte-identical store keys to the
    pre-Stage-API planner (captured from the last pre-redesign commit).
    """

    GOLDEN = {
        ("case1", "smoke"): [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:bc9889e364a3", "traces", "bc9889e364a31f73"),
            ("bundle:d987a0e30227", "bundles", "d987a0e30227fc23"),
            ("finetune:dd4463924697", "checkpoints", "dd44639246973b24"),
            ("evaluate:084946ccc135", "evaluations", "084946ccc1352f1a"),
        ],
        ("pretrain", "small"): [
            ("traces:982437d1bef7", "traces", "982437d1bef7f194"),
            ("bundle:54d60887c6eb", "bundles", "54d60887c6eba5a4"),
            ("pretrain:ff4ba8fdb16d", "checkpoints", "ff4ba8fdb16d2e22"),
            ("evaluate:75ce60998ab3", "evaluations", "75ce60998ab39767"),
        ],
        ("case2", "smoke"): [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:cdc439674535", "traces", "cdc4396745350d9c"),
            ("bundle:0de5c536e010", "bundles", "0de5c536e01027bc"),
            ("finetune:2ff081a2039c", "checkpoints", "2ff081a2039c327f"),
            ("evaluate:d3a534e02a51", "evaluations", "d3a534e02a518384"),
        ],
    }

    SPEC_HASHES = {
        ("case1", "smoke"): "c5aeb216d8cdf1b9",
        ("pretrain", "small"): "0ea78f1590f66fc4",
        ("case2", "smoke"): "5ef79c9d663a6011",
    }

    #: Plans beyond the default float64 pipeline (see :func:`_golden_plan`),
    #: captured before the built-in keys moved into registered key_fns:
    #: the table plans (scratch, baselines and the ablation variants),
    #: a float32 spec and the extension stages.
    PLAN_GOLDEN = {
        "table1": [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:bc9889e364a3", "traces", "bc9889e364a31f73"),
            ("bundle:d987a0e30227", "bundles", "d987a0e30227fc23"),
            ("finetune:cad3a811b4f1", "checkpoints", "cad3a811b4f15262"),
            ("finetune:ce9d31309f0e", "checkpoints", "ce9d31309f0e4cac"),
            ("scratch:69aef14a5455", "checkpoints", "69aef14a5455fcaa"),
            ("scratch:1f514232da18", "checkpoints", "1f514232da18ac3e"),
            ("baselines:6460c914b070", "evaluations", "6460c914b070fd3b"),
            ("baselines:158ae932b2a8", "evaluations", "158ae932b2a8eb0a"),
            ("pretrain:046e1e8815ad", "checkpoints", "046e1e8815adfb03"),
            ("finetune:cdf60390bf15", "checkpoints", "cdf60390bf15c1a2"),
            ("finetune:9dfe9f562650", "checkpoints", "9dfe9f5626504fcf"),
            ("pretrain:045a1696f9f5", "checkpoints", "045a1696f9f57db6"),
            ("finetune:b9014d2a9f07", "checkpoints", "b9014d2a9f07522f"),
            ("finetune:15c8b3ba339f", "checkpoints", "15c8b3ba339f7bd5"),
            ("pretrain:52c02f391cdf", "checkpoints", "52c02f391cdfc328"),
            ("finetune:6b96e0145415", "checkpoints", "6b96e014541576c9"),
            ("finetune:ae17d8c0df43", "checkpoints", "ae17d8c0df43830b"),
            ("pretrain:fc2d1cfe7ba0", "checkpoints", "fc2d1cfe7ba081cf"),
            ("finetune:2588cc468cfa", "checkpoints", "2588cc468cfaf1bf"),
            ("finetune:75c38fa1f3e6", "checkpoints", "75c38fa1f3e6cc9d"),
        ],
        "table2": [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:bc9889e364a3", "traces", "bc9889e364a31f73"),
            ("bundle:d987a0e30227", "bundles", "d987a0e30227fc23"),
            ("finetune:dd4463924697", "checkpoints", "dd44639246973b24"),
            ("finetune:cad3a811b4f1", "checkpoints", "cad3a811b4f15262"),
            ("scratch:91f538e4745f", "checkpoints", "91f538e4745fea45"),
            ("scratch:69aef14a5455", "checkpoints", "69aef14a5455fcaa"),
        ],
        "table3": [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:cdc439674535", "traces", "cdc4396745350d9c"),
            ("bundle:0de5c536e010", "bundles", "0de5c536e01027bc"),
            ("finetune:80add2b14b5c", "checkpoints", "80add2b14b5c67f9"),
            ("finetune:46c63ce2d3d4", "checkpoints", "46c63ce2d3d4dac8"),
            ("scratch:8b74eea0bb11", "checkpoints", "8b74eea0bb1101fa"),
            ("scratch:82945ffa8a9c", "checkpoints", "82945ffa8a9c8de9"),
            ("baselines:5d3b76f3a881", "evaluations", "5d3b76f3a881cf8c"),
            ("pretrain:9a7af0a4910b", "checkpoints", "9a7af0a4910b84b8"),
            ("finetune:b8c5d1167f5b", "checkpoints", "b8c5d1167f5b5ed7"),
        ],
        "float32": [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:cf8609ba4e3c", "checkpoints", "cf8609ba4e3c1698"),
            ("traces:bc9889e364a3", "traces", "bc9889e364a31f73"),
            ("bundle:d987a0e30227", "bundles", "d987a0e30227fc23"),
            ("finetune:ebe397b9a4c8", "checkpoints", "ebe397b9a4c82f7c"),
            ("evaluate:4b39ea6251b3", "evaluations", "4b39ea6251b37d58"),
        ],
        "federated_pretrain": [
            ("federated_pretrain:d1ea1c4cd85a", "checkpoints", "d1ea1c4cd85a1ea6"),
        ],
        "drift_monitor": [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("drift_monitor:ad1c6316fa8f", "evaluations", "ad1c6316fa8fc1e5"),
        ],
    }

    @pytest.mark.parametrize("scenario,scale", sorted(GOLDEN))
    def test_default_pipeline_keys_unchanged(self, scenario, scale):
        plan = plan_campaign([ExperimentSpec(scenario=scenario, scale=scale, seed=0)])
        got = [(task.id, task.kind, task.key) for task in plan.ordered()]
        assert got == self.GOLDEN[(scenario, scale)]

    @pytest.mark.parametrize("name", sorted(PLAN_GOLDEN))
    def test_plan_keys_unchanged(self, name):
        got = [(task.id, task.kind, task.key) for task in _golden_plan(name).ordered()]
        assert got == self.PLAN_GOLDEN[name]

    @pytest.mark.parametrize("scenario,scale", sorted(SPEC_HASHES))
    def test_spec_hashes_unchanged(self, scenario, scale):
        spec = ExperimentSpec(scenario=scenario, scale=scale, seed=0)
        assert spec.spec_hash == self.SPEC_HASHES[(scenario, scale)]


def _golden_plan(name):
    """The plan behind one ``PLAN_GOLDEN`` entry."""
    if name.startswith("table"):
        plan, _layout = plan_table(int(name[-1]), ExperimentSpec(scale="smoke", seed=0))
        return plan
    case1 = ExperimentSpec(scenario="case1", scale="smoke", seed=0)
    if name == "float32":
        return plan_campaign([case1.with_overrides(stage_params=FLOAT32)])
    return plan_campaign([case1], stages=(name,))


#: Prints every planned (id, kind, key) of every sweepable stage over
#: every registered scenario, then of the three table plans.
_PLAN_EVERYTHING = """
from repro.api import SCENARIOS, ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.runtime import plan_campaign, plan_table

specs = [
    ExperimentSpec(scenario=name, scale="smoke", stage_params=params)
    for name in SCENARIOS.names()
    for params in (None, %r)
]
plans = [plan_campaign(specs, stages=STAGE_REGISTRY.sweep_stages())]
plans += [plan_table(table, specs[0])[0] for table in (1, 2, 3)]
for plan in plans:
    for task in plan.ordered():
        print(task.id, task.kind, task.key)
""" % (FLOAT32,)


class TestKeyDerivation:
    """Every built-in key has one derivation, the registered key_fn;
    these check it from outside: stable across processes that differ in
    everything a key must not read, and the keys a campaign planned are
    the ones the interactive facade reads back."""

    def _planned_keys(self, hash_seed, cwd, **extra_env):
        env = {
            **os.environ,
            "PYTHONHASHSEED": str(hash_seed),
            "PYTHONPATH": str(REPO_ROOT / "src"),
            **extra_env,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _PLAN_EVERYTHING],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_keys_independent_of_hash_seed(self, tmp_path):
        # Besides the hash seed, the two planners differ in working
        # directory, store root, an unrelated environment variable, pid
        # and wall clock: none of these may reach a cache key.
        first = self._planned_keys(
            0, REPO_ROOT, REPRO_CACHE_DIR=str(tmp_path / "store-a")
        )
        second = self._planned_keys(
            4242, tmp_path,
            REPRO_CACHE_DIR=str(tmp_path / "store-b"),
            REPRO_UNRELATED_SETTING="1",
        )
        assert first == second
        planned = {line.split(":", 1)[0] for line in first}
        assert set(STAGE_REGISTRY.sweep_stages()) - {"trace_stats"} <= planned
        assert {"scratch", "baselines"} <= planned

    #: The training entry points the facade must reach by module
    #: attribute (profilers wrap them there).
    TRAINING_NAMES = (
        "repro.core.pipeline.pretrain",
        "repro.api.experiment.finetune_delay",
        "repro.api.experiment.finetune_mct",
    )

    def test_campaign_keys_serve_the_facade(self, store, monkeypatch):
        from repro.api import Experiment

        spec = ExperimentSpec(scale="smoke", pretrain=FAST, finetune=FAST)

        class Trained(Exception):
            """A patched training entry point was reached."""

        def trains(*args, **kwargs):
            raise Trained

        # Positive control on the cold store: pre-training goes through
        # the patched name, so the served-from-store checks below are
        # not vacuous.
        with monkeypatch.context() as patch:
            patch.setattr(self.TRAINING_NAMES[0], trains)
            with pytest.raises(Trained):
                Experiment(spec, store=store).pretrained()

        plan, layout = plan_table(1, spec)
        outcome = CampaignEngine(store=store).run(plan)
        assert outcome.ok
        for task in plan.ordered():
            if task.kind not in (None, "bundles"):
                assert store.is_current(task.kind, task.key), task.id

        for name in self.TRAINING_NAMES:
            monkeypatch.setattr(name, trains)
        experiment = Experiment(spec, store=store)
        fraction = spec.to_scale().fine_fraction
        pre = experiment.pretrained()
        assert pre.test_mse_seconds2 == outcome[layout["pretrain"]]["test_mse_seconds2"]
        for task, unit in (("delay", "ft_delay"), ("mct", "ft_mct")):
            result = experiment.finetuned(scenario="case1", task=task, fraction=fraction)
            assert result.test_mse == outcome[layout[unit]]["test_mse"]
        for kind in ("pretrain", "case1"):
            key = experiment.bundle_store_key(kind)
            assert store.is_current("bundles", key)
        # Positive control: a fine-tune the campaign never ran goes
        # through the patched names.
        for task in ("delay", "mct"):
            with pytest.raises(Trained):
                experiment.finetuned(scenario="case1", task=task)


def _digest_key(spec, params):
    return stable_hash(
        {
            "artifact": "trace_digest",
            "scenario": spec.scenario_config(),
            "n_runs": spec.to_scale().n_runs,
            "quantile": float(params.get("quantile", 0.99)),
        }
    )


def _run_digest(experiment, inputs, params):
    store, key = experiment.store, params.get("key")
    if store is not None and key is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    import numpy as np

    traces = experiment.traces()
    delays = np.concatenate([trace.delay for trace in traces])
    payload = {
        "packets": int(sum(len(trace) for trace in traces)),
        "quantile": float(params.get("quantile", 0.99)),
        "delay_quantile_ms": float(
            np.quantile(delays, float(params.get("quantile", 0.99))) * 1e3
        ),
        "upstream": inputs_by_stage(inputs).get("traces"),
    }
    if store is not None and key is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


class TestCustomStageThroughEngine:
    def _spec(self, **kwargs):
        return ExperimentSpec(
            scenario="pretrain", scale="smoke", pretrain=FAST, finetune=FAST, **kwargs
        )

    def test_plans_with_declared_deps_and_versioned_key(self, custom_stage):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        spec = self._spec()
        plan = plan_campaign([spec], stages=("trace_digest",))
        stages = {task.stage for task in plan.ordered()}
        assert stages == {"traces", "trace_digest"}
        (digest,) = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert digest.deps and digest.deps[0].startswith("traces:")
        # The planned key is the versioned form of the stage's key_fn.
        entry = STAGE_REGISTRY.get("trace_digest")
        assert digest.key == entry.versioned_key(_digest_key(spec, {}))

    def test_caches_and_receives_inputs(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        first = run_campaign([self._spec()], stages=("trace_digest",), store=store)
        assert first.ok and first.summary["cache_hits"] == 0
        (digest_id,) = [t for t in first.results if t.startswith("trace_digest:")]
        # Dependency results flowed in through the stage's inputs.
        assert first.results[digest_id]["upstream"]["n_runs"] == 1
        assert first.results[digest_id]["delay_quantile_ms"] > 0
        second = run_campaign([self._spec()], stages=("trace_digest",), store=store)
        assert second.summary["cache_hits"] == second.summary["total"]
        assert second.results[digest_id]["packets"] == first.results[digest_id]["packets"]

    def test_dedupes_across_specs_sharing_a_key(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        # Same scenario, different fine_fraction: spec hashes differ but
        # the digest key (scenario + n_runs + params) is shared.
        specs = [self._spec(), self._spec(fine_fraction=0.5)]
        assert specs[0].spec_hash != specs[1].spec_hash
        plan = plan_campaign(specs, stages=("trace_digest",))
        digests = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert len(digests) == 1
        assert len(digests[0].spec_hashes) == 2

    def test_stage_params_split_tasks_and_flow_through(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        specs = [
            self._spec(stage_params={"trace_digest": {"quantile": 0.5}}),
            self._spec(stage_params={"trace_digest": {"quantile": 0.999}}),
        ]
        plan = plan_campaign(specs, stages=("trace_digest",))
        digests = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert len(digests) == 2  # distinct params → distinct keys
        result = run_campaign(specs, stages=("trace_digest",), store=store)
        assert result.ok
        quantiles = sorted(
            row["quantile"] for tid, row in result.results.items()
            if tid.startswith("trace_digest:")
        )
        assert quantiles == [0.5, 0.999]

    def test_retries_through_engine(self, custom_stage, tmp_path, store):
        marker = tmp_path / "failures-left"
        marker.write_text("1")

        def flaky(experiment, inputs, params):
            remaining = int(marker.read_text())
            if remaining > 0:
                marker.write_text(str(remaining - 1))
                raise RuntimeError("synthetic custom-stage failure")
            return _run_digest(experiment, inputs, params)

        custom_stage(
            "trace_digest", flaky, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        result = run_campaign(
            [self._spec()], stages=("trace_digest",), store=store, retries=1
        )
        assert result.ok
        (row,) = [r for r in result.manifest["tasks"] if r["stage"] == "trace_digest"]
        assert row["attempts"] == 2

    def test_spec_pipeline_overrides_campaign_stages(self, custom_stage):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        spec = self._spec(pipeline=("trace_digest",))
        plan = plan_campaign([spec])  # default stages ignored for this spec
        assert {task.stage for task in plan.ordered()} == {"traces", "trace_digest"}

    def test_unknown_pipeline_stage_rejected_with_registered_names(self):
        spec = self._spec(pipeline=("not_a_stage",))
        with pytest.raises(ValueError, match="unknown stages") as excinfo:
            plan_campaign([spec])
        assert "traces" in str(excinfo.value)

    def test_unsweepable_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            plan_campaign([self._spec()], stages=("scratch",))


class TestExecuteStageErrors:
    def test_unknown_stage_lists_registered_names(self):
        from repro.api import Experiment
        from repro.runtime import execute_stage

        experiment = Experiment.uncached(
            ExperimentSpec(scenario="pretrain", scale="smoke")
        )
        with pytest.raises(ValueError, match="registered stages") as excinfo:
            execute_stage("warp_drive", experiment, {})
        assert "pretrain" in str(excinfo.value)
