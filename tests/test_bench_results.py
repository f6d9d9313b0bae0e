"""Benchmark result-artifact hygiene.

Smoke-scale benchmark runs must never overwrite the committed
small/paper-scale ``bench_results/*.json``, and every saved payload must
carry its scale so downstream readers can tell paper-grade numbers from
CI smoke output.
"""

import json

import pytest

import benchmarks.conftest as bench_conftest


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
    return tmp_path


def test_smoke_results_routed_to_subdir(results_dir, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    path = bench_conftest.save_results("fig4_scenarios", {"stats": {}})
    assert path == results_dir / "smoke" / "fig4_scenarios.json"
    assert not (results_dir / "fig4_scenarios.json").exists()


def test_small_results_written_in_place(results_dir, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    path = bench_conftest.save_results("table1", {"rows": {}})
    assert path == results_dir / "table1.json"


def test_payload_stamped_with_scale(results_dir, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    path = bench_conftest.save_results("fig4_scenarios", {"stats": {}})
    data = json.loads(path.read_text())
    assert data == {"scale": "smoke", "stats": {}}


def test_throughput_smoke_results_never_overwrite_committed(results_dir, monkeypatch):
    """Smoke-scale runs must not clobber the committed small-scale
    numbers."""
    committed = results_dir / "ablation_depth.json"
    committed.write_text(json.dumps({"scale": "small", "rows": {"a": 3.0}}))
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    path = bench_conftest.save_results("ablation_depth", {"rows": {"a": 2.5}})
    assert path == results_dir / "smoke" / "ablation_depth.json"
    assert json.loads(committed.read_text())["rows"]["a"] == 3.0
