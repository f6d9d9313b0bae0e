"""The benchmark's own tests: names, output checks, seeds, lateness.

Fast: nothing here trains a model or launches the program.
"""

from __future__ import annotations

import asyncio
import copy
import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import campaign  # noqa: E402
import loadgen  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(trace: bool = False, seed: int = 0) -> bench.Run:
    return bench.Run(Path("."), seed=seed, seconds=1.0, trace=trace)


def _phase(wall: float, tasks: int = 3, hits: int = 0, windows: int = 100) -> dict:
    return {
        "setup_s": 0.5, "import_s": 0.4, "wall_s": wall, "cpu_s": 2 * wall,
        "rss_mb": 200.0, "workers": 2, "traced": False,
        "summary": {"total": tasks, "done": tasks, "failed": 0, "skipped": 0,
                    "cache_hits": hits, "executed": tasks - hits},
        "tasks": [{"id": f"t{i}", "stage": "bundle", "status": "done", "attempts": 1,
                   "cache_hit": bool(hits), "wall_time_s": wall / tasks} for i in range(tasks)],
        "telemetry": {"steps": 0, "step_seconds": 0.0, "first_task_s": 0.01},
        "outputs": {"packets": 1000, "windows": windows},
    }


def test_printed_metrics_match_benchmark_json():
    end_names, layer_names = bench.metric_names()
    assert end_names == {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    cold, warm = _phase(10.0), [_phase(1.0, hits=3) for _ in range(3)]
    values = bench.campaign_metrics("datagen", [cold], warm)
    assert set(values) == set(end_names)
    line = bench.result_line(values, end_names, _run())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"]
    for name, unit in end_names.items():
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0
    layers = bench.result_line({}, layer_names, _run(trace=True))["metrics"]
    assert set(layers) == {entry["name"] for entry in SPEC["per_layer"]}


def test_campaign_layers_are_declared():
    _end, layer_names = bench.metric_names()
    cold = _phase(10.0)
    cold["probe"] = {"netsim.sim": [2, 1.0, 5000.0], "store.put.traces": [2, 0.1, 3.0]}
    warm = [dict(_phase(1.0, hits=3), traced=index % 2 == 0, probe={}) for index in range(3)]
    layers = bench.campaign_layers(_run(trace=True), [cold], warm)
    assert set(layers) <= set(layer_names)
    assert layers["netsim.pps"] == 5000.0
    assert layers["store.hit_ratio"] == 1.0


def test_non_finite_end_to_end_value_fails_the_run():
    end_names, _layers = bench.metric_names()
    line = bench.result_line({"setup_s": float("nan")}, end_names, _run())
    assert not line["correct"]
    assert json.dumps(line)  # still valid JSON


def _checked(run, *args):
    bench.check_outputs(run, *args)
    return run.checks[-1][1]


def test_table1_check_rejects_corrupted_rows():
    expected = bench.reference("table1", 0)
    assert expected is not None, "reference.json lacks table1 variant 0"
    rows = copy.deepcopy(expected["rows"])
    assert _checked(_run(), "table1", "cold", {"rows": rows})
    rows["ntt_pretrained"][1] *= 1 + 1e-4
    assert not _checked(_run(), "table1", "cold", {"rows": rows})
    rows = copy.deepcopy(expected["rows"])
    rows["ewma"][0] = float("nan")
    assert not _checked(_run(), "table1", "cold", {"rows": rows})
    assert not _checked(_run(), "table1", "cold", {})


def test_datagen_check_rejects_corrupted_counts():
    expected = bench.reference("datagen", 0)
    assert expected is not None, "reference.json lacks datagen variant 0"
    good = dict(expected)
    run = _run()
    bench.check_outputs(run, "datagen", "cold", good)
    assert all(ok for _name, ok, _detail in run.checks)
    run = _run()
    bench.check_outputs(run, "datagen", "cold", dict(good, windows=good["windows"] - 1))
    assert not all(ok for _name, ok, _detail in run.checks)


def test_warm_check_rejects_executed_tasks():
    record = _phase(1.0, hits=3)
    record["outputs"] = dict(bench.reference("datagen", 0))
    run = _run()
    bench.check_campaign(run, "datagen", "warm0", record, cold=False)
    assert all(ok for _name, ok, _detail in run.checks)
    record["summary"].update(cache_hits=2, executed=1)
    run = _run()
    bench.check_campaign(run, "datagen", "warm0", record, cold=False)
    assert not all(ok for _name, ok, _detail in run.checks)


def test_serve_check_rejects_perturbed_predictions():
    expect = [[0.0125, 0.02], [0.5]]

    def result(values):
        sample = loadgen.Sample(0, 0.0, 0.0, 0.001, 200, json.dumps({"predictions": values}).encode())
        return loadgen.LoopResult(samples=[sample])

    run = _run()
    bench.check_predictions(run, "lo", result([0.0125, 0.02]), expect)
    assert run.checks[-1][1]
    bench.check_predictions(run, "lo", result([0.0125 * (1 + 1e-10), 0.02]), expect)
    assert not run.checks[-1][1]
    bench.check_predictions(run, "lo", result([0.0125]), expect)
    assert not run.checks[-1][1]


def test_seed_changes_inputs_not_metric_names():
    pytest.importorskip("repro")
    ids = {campaign.plan(workload, variant)[0].campaign_id
           for workload in ("table1", "datagen") for variant in (0, 1)}
    assert len(ids) == 4
    assert _run(seed=0).variant != _run(seed=1).variant
    end_names, _layers = bench.metric_names()
    assert bench.metric_names()[0] == end_names  # names never depend on the seed


class _SlowServer:
    """A keep-alive HTTP server answering each request after ``delay_s``."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.port = None
        self._loop = asyncio.new_event_loop()
        threading.Thread(target=self._loop.run_forever, daemon=True).start()
        asyncio.run_coroutine_threadsafe(self._start(), self._loop).result(5)

    async def _start(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while (header := await reader.readline()) not in (b"\r\n", b""):
                if header.lower().startswith(b"content-length"):
                    length = int(header.split(b":")[1])
            await reader.readexactly(length)
            await asyncio.sleep(self.delay_s)
            body = b'{"predictions": [1.0]}'
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()
        writer.close()

    def close(self):
        self._loop.call_soon_threadsafe(self._server.close)
        self._loop.call_soon_threadsafe(self._loop.stop)


def test_open_loop_reports_lateness():
    # Two connections that each take 50 ms cannot keep up with 100 req/s:
    # the generator falls behind, reports it, and latency counts from due.
    server = _SlowServer(0.05)
    try:
        started = time.perf_counter()
        result = loadgen.open_loop("127.0.0.1", server.port, [b"{}"], [0] * 20, rate=100.0)
    finally:
        server.close()
    assert len(result.samples) == 20 and result.failed == 0
    late = [sample.late_s for sample in result.samples]
    assert max(late) > 0.05
    assert all(sample.latency_s >= sample.done - sample.sent for sample in result.samples)
    assert time.perf_counter() - started < 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert loadgen.tail_fraction(1000, 0.99) == 0.99
    assert loadgen.tail_fraction(200, 0.99) == pytest.approx(0.95)
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.5) == 50
    assert loadgen.percentile(values, 0.9) == 90
