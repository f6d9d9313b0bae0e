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
    path = bench_conftest.save_results("attention_scaling", {"ratio": 1.0})
    assert path == results_dir / "smoke" / "attention_scaling.json"
    assert not (results_dir / "attention_scaling.json").exists()


def test_small_results_written_in_place(results_dir, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    path = bench_conftest.save_results("table1", {"rows": {}})
    assert path == results_dir / "table1.json"


def test_payload_stamped_with_scale(results_dir, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    path = bench_conftest.save_results("attention_scaling", {"ratio": 1.0})
    data = json.loads(path.read_text())
    assert data == {"scale": "smoke", "ratio": 1.0}


def test_throughput_smoke_results_never_overwrite_committed(results_dir, monkeypatch):
    """CI's smoke-scale netsim throughput runs must not clobber the
    committed small-scale numbers."""
    committed = results_dir / "netsim_throughput.json"
    committed.write_text(json.dumps({"scale": "small", "speedup": 3.0}))
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    path = bench_conftest.save_results("netsim_throughput", {"speedup": 2.5})
    assert path == results_dir / "smoke" / "netsim_throughput.json"
    assert json.loads(committed.read_text())["speedup"] == 3.0
