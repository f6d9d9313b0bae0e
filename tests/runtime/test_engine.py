"""Tests for the campaign engine: execution, retries, skips, manifest."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.obs as obs
from repro.api import ArtifactStore, ExperimentSpec, TrainSettings
from repro.api.stages import STAGE_REGISTRY
from repro.runtime import (
    CampaignEngine,
    CampaignPlan,
    expand_grid,
    plan_campaign,
    run_campaign,
)
from repro.testing import FAULT_SPEC_ENV
from repro.utils import blas

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)

#: Run a test on the in-process executor and on a 2-worker pool.
BOTH_EXECUTORS = pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])


def fast_specs(scenarios=("pretrain",), seeds=(0,)):
    return expand_grid(
        scenarios=scenarios, scales=["smoke"], seeds=seeds, pretrain=FAST, finetune=FAST
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestSerialExecution:
    def test_full_chain_without_store(self):
        result = run_campaign(fast_specs(["case1"]), store=None)
        assert result.ok
        assert result.summary == {
            "total": 7, "done": 7, "failed": 0, "skipped": 0,
            "cache_hits": 0, "executed": 7,
        }
        assert result.manifest_path is None

    def test_manifest_written_through_store(self, store):
        result = run_campaign(fast_specs(), store=store)
        assert result.manifest_path is not None
        stored = store.get_manifest(result.manifest["campaign_id"])
        assert stored["summary"] == result.summary
        assert {row["stage"] for row in stored["tasks"]} == {
            "traces", "bundle", "pretrain", "evaluate",
        }

    def test_rerun_serves_everything_from_store(self, store):
        first = run_campaign(fast_specs(["case1"]), store=store)
        assert first.summary["cache_hits"] == 0
        second = run_campaign(fast_specs(["case1"]), store=store)
        assert second.summary["cache_hits"] == second.summary["total"]
        assert second.summary["executed"] == 0
        # Cached metrics match the freshly computed ones exactly.
        for task_id, payload in first.results.items():
            if "test_mse" in payload:
                assert second.results[task_id]["test_mse"] == payload["test_mse"]

    def test_evaluate_results_include_baselines(self, store):
        result = run_campaign(fast_specs(["case1"]), store=store)
        evaluations = [
            payload for task_id, payload in result.results.items()
            if task_id.startswith("evaluate:")
        ]
        assert evaluations
        for row in evaluations:
            assert row["model_mse"] >= 0
            assert "ewma" in row["baselines"]


class TestFailureHandling:
    @pytest.fixture
    def flaky_stage(self, monkeypatch, tmp_path):
        """A trace_stats stage that fails on its first N calls."""
        marker = tmp_path / "failures-left"

        def install(failures: int):
            marker.write_text(str(failures))
            entry = STAGE_REGISTRY.get("trace_stats")
            original = entry.run

            def stage(experiment, inputs, params):
                remaining = int(marker.read_text())
                if remaining > 0:
                    marker.write_text(str(remaining - 1))
                    raise RuntimeError("synthetic stage failure")
                return original(experiment, inputs, params)

            monkeypatch.setattr(entry, "run", stage)

        return install

    def test_retry_recovers(self, flaky_stage):
        flaky_stage(1)
        result = run_campaign(fast_specs(), stages=("trace_stats",), store=None, retries=1)
        assert result.ok
        (row,) = result.manifest["tasks"]
        assert row["attempts"] == 2

    def test_exhausted_retries_fail(self, flaky_stage):
        flaky_stage(5)
        result = run_campaign(fast_specs(), stages=("trace_stats",), store=None, retries=1)
        assert not result.ok
        (row,) = result.manifest["tasks"]
        assert row["status"] == "error"
        assert "synthetic stage failure" in row["error"]
        assert row["attempts"] == 2

    def test_failed_dependency_skips_downstream(self, monkeypatch, store):
        def broken(experiment, inputs, params):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(STAGE_REGISTRY.get("traces"), "run", broken)
        result = run_campaign(fast_specs(), store=store, retries=0)
        statuses = {row["id"]: row["status"] for row in result.manifest["tasks"]}
        assert sorted(statuses.values()) == ["error", "skipped", "skipped", "skipped"]
        skipped = [row for row in result.manifest["tasks"] if row["status"] == "skipped"]
        assert all("skipped_because" in row for row in skipped)
        assert not result.ok

    def test_failure_manifest_same_on_both_executors(self, monkeypatch, tmp_path):
        """A fatal mid-graph failure settles, skips and journals the same
        task rows whichever executor runs the plan."""

        def broken(experiment, inputs, params):
            raise ValueError("pretrain contract violated")

        monkeypatch.setattr(STAGE_REGISTRY.get("pretrain"), "run", broken)
        fields = ("id", "status", "attempts", "failures", "error_class", "skipped_because")
        rows = {}
        for workers in (1, 2):
            store = ArtifactStore(tmp_path / f"workers{workers}")
            plan = plan_campaign(fast_specs(seeds=(0, 1)))
            result = CampaignEngine(store=store, workers=workers, retries=1).run(plan)
            assert result.manifest["workers"] == workers
            rows[workers] = [
                {name: row.get(name) for name in fields} for row in result.manifest["tasks"]
            ]
        assert rows[1] == rows[2]
        by_stage = {}
        for row in rows[1]:
            by_stage.setdefault(row["id"].split(":")[0], []).append(row)
        assert [row["status"] for row in by_stage["bundle"]] == ["done", "done"]
        for row in by_stage["pretrain"]:
            assert (row["status"], row["attempts"], row["error_class"]) == ("error", 1, "fatal")
            assert row["failures"] == [
                {"attempt": 0, "error_class": "fatal", "error_type": "ValueError"}
            ]
        pretrain_ids = {row["id"] for row in by_stage["pretrain"]}
        for row in by_stage["evaluate"]:
            assert row["status"] == "skipped"
            assert row["skipped_because"] in pretrain_ids

    def test_failed_table_campaign_raises(self, monkeypatch, store):
        from repro.api import Experiment
        from repro.core.pipeline import run_table2

        def broken(experiment, inputs, params):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(STAGE_REGISTRY.get("traces"), "run", broken)
        with pytest.raises(RuntimeError, match="campaign failed"):
            run_table2(Experiment(scale="smoke", store=store))


class TestGraphValidation:
    """Plans that cannot run are rejected before anything is written."""

    @staticmethod
    def hand_built(deps_of: dict) -> CampaignPlan:
        spec = fast_specs()[0]
        plan = CampaignPlan([spec])
        for name, deps in deps_of.items():
            plan.add("trace_stats", spec, key=name, deps=deps)
        return plan.finalise()

    @BOTH_EXECUTORS
    @pytest.mark.parametrize(
        "deps_of, message",
        [
            (
                {"a" * 12: ("trace_stats:" + "b" * 12,), "b" * 12: ("trace_stats:" + "a" * 12,)},
                "dependency cycle",
            ),
            ({"a" * 12: ("traces:missing",), "b" * 12: ()}, "unknown task"),
        ],
        ids=["cycle", "unknown-dep"],
    )
    def test_rejected_before_journal(self, store, workers, deps_of, message):
        plan = self.hand_built(deps_of)
        engine = CampaignEngine(store=store, workers=workers)
        assert engine.effective_workers(plan.ordered()) == workers
        with pytest.raises(ValueError, match=message):
            engine.run(plan)
        assert not store.journal_path(plan.campaign_id).exists()
        assert store.get_manifest(plan.campaign_id) is None


class TestEngineConfiguration:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(store=None, workers=0)

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(store=None, retries=-1)

    def test_storeless_pool_downgrades_to_serial(self):
        engine = CampaignEngine(store=None, workers=4)
        plan = plan_campaign(fast_specs(["case1"]))
        assert engine.effective_workers(plan.ordered()) == 1

    def test_storeless_downgrade_warns_and_lands_in_manifest(self):
        engine = CampaignEngine(store=None, workers=4)
        plan = plan_campaign(fast_specs(["case1"]))
        with pytest.warns(RuntimeWarning, match="runs serially"):
            result = engine.run(plan)
        assert result.ok
        assert result.manifest["downgraded_to_serial"] is True
        assert result.manifest["workers"] == 1

    def test_no_downgrade_flag_when_store_present(self, store):
        result = run_campaign(fast_specs(), store=store)
        assert result.manifest["downgraded_to_serial"] is False

    def test_storeless_trace_stats_pool_does_not_warn(self, recwarn):
        engine = CampaignEngine(store=None, workers=2)
        plan = plan_campaign(fast_specs(["pretrain", "case1"]), stages=("trace_stats",))
        result = engine.run(plan)
        assert result.ok
        assert result.manifest["downgraded_to_serial"] is False
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_storeless_independent_tasks_keep_pool(self):
        engine = CampaignEngine(store=None, workers=2)
        plan = plan_campaign(fast_specs(["pretrain", "case1"]), stages=("trace_stats",))
        assert engine.effective_workers(plan.ordered()) == 2

    def test_workers_capped_by_plan_size(self, store):
        engine = CampaignEngine(store=store, workers=32)
        plan = plan_campaign(fast_specs())
        assert engine.effective_workers(plan.ordered()) == len(plan)

    def test_experiment_serves_its_own_spec_only(self):
        # The caller's experiment runs its spec's tasks on its in-memory
        # caches; a task of any other spec builds its own experiment.
        from repro.api import Experiment

        specs = fast_specs(seeds=(0, 1))
        plan = plan_campaign(specs, stages=("traces", "bundle"))
        experiment = Experiment.uncached(specs[0])
        result = CampaignEngine(store=None).run(plan, experiment=experiment)
        assert result.ok
        packets = {
            task.spec.seed: result.results[task.id]["n_packets"]
            for task in plan.ordered()
            if task.stage == "bundle"
        }
        assert packets[0] == experiment._bundles["pretrain"].n_packets
        assert packets[1] != packets[0]


def _report_blas_threads(experiment, inputs, params):
    return False, {"blas_threads": blas.get_threads()}


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


class TestBlasThreads:
    """Pool workers compute with their share of the cores' BLAS threads."""

    @pytest.fixture(autouse=True)
    def probe_stage(self, monkeypatch):
        """A stage reporting its process's OpenBLAS thread count, on a
        plan of two independent tasks (so a 2-worker pool is used)."""
        for name in blas.THREAD_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        STAGE_REGISTRY.register("blas_probe")(_report_blas_threads)
        with obs.scope(True):
            yield
        STAGE_REGISTRY._entries.pop("blas_probe", None)

    @pytest.fixture
    def openblas(self):
        threads = blas.get_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS build")
        return threads

    @staticmethod
    def run_probe(store, workers, retries=0):
        plan = plan_campaign(fast_specs(seeds=(0, 1)), stages=("blas_probe",))
        result = CampaignEngine(store=store, workers=workers, retries=retries).run(plan)
        assert result.ok
        assert result.manifest["workers"] == workers
        reported = [payload["blas_threads"] for payload in result.results.values()]
        return result.manifest, reported

    @staticmethod
    def share_of_cores(workers):
        return max(1, len(os.sched_getaffinity(0)) // workers)

    def test_pool_workers_sized_and_parent_untouched(self, store, openblas):
        manifest, reported = self.run_probe(store, workers=1)
        assert reported == [openblas, openblas]
        assert manifest["observability"]["blas_threads"] == {
            "per_worker": openblas, "source": "inherited",
        }
        assert blas.get_threads() == openblas

        manifest, reported = self.run_probe(store, workers=2)
        expected = self.share_of_cores(2)
        assert reported == [expected, expected]
        assert manifest["observability"]["blas_threads"] == {
            "per_worker": expected, "source": "sized",
        }
        assert blas.get_threads() == openblas

    def test_sized_worker_starts_no_blas_threads(self, openblas):
        # Setting the count starts OpenBLAS's thread pool in a forked
        # child; left running, its threads spin on the cores the other
        # workers need.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc to count threads")
        with ProcessPoolExecutor(1, initializer=blas.set_threads, initargs=(1,)) as pool:
            assert pool.submit(_os_threads).result(timeout=60) == 1
            assert pool.submit(blas.get_threads).result(timeout=60) == 1

    def test_respawned_pool_is_sized(self, store, openblas, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "blas_probe@0:exit")
        manifest, reported = self.run_probe(store, workers=2, retries=1)
        events = [event["event"] for event in manifest["events"]]
        assert "runtime.pool_respawned" in events
        for row in manifest["tasks"]:
            assert [f["error_class"] for f in row["failures"]] == ["worker-lost"]
        expected = self.share_of_cores(2)
        assert reported == [expected, expected]

    def test_explicit_thread_variable_wins(self, store, openblas, monkeypatch):
        # Workers inherit the count OpenBLAS took from the variable at
        # start-up; the engine must not resize it.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(openblas))
        manifest, reported = self.run_probe(store, workers=2)
        assert reported == [openblas, openblas]
        assert manifest["observability"]["blas_threads"] == {
            "per_worker": openblas, "source": "env",
        }

    def test_missing_thread_control_recorded(self, store, monkeypatch):
        monkeypatch.setattr(blas, "_controls", lambda: blas._Controls(None, None, None))
        manifest, reported = self.run_probe(store, workers=2)
        assert reported == [None, None]
        assert manifest["observability"]["blas_threads"] == {
            "per_worker": None, "source": "unavailable",
        }
        events = [event["event"] for event in manifest["events"]]
        assert events.count("runtime.blas_threads_unavailable") == 1
        assert blas.set_threads(1) is False
