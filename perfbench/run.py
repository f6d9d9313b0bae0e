"""End-to-end benchmark of the NTT pipeline: campaigns and serving.

    python3 perfbench/run.py --workload {table1,datagen,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program runs the way a user runs
it (``PYTHONPATH=src``, every other variable inherited; no thread
variable is set and no CPU is pinned), each phase in processes of its
own, and the benchmark times it from outside.  The last line of
standard output is one JSON object: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Output checks run on every run; a failed check makes
``correct`` false.  The lines before it are a readable report and the
machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import probe  # noqa: E402

#: Seeds map onto this many input variants, each with a recorded reference.
VARIANTS = 4
#: Warm campaign phases run at least this often (and until --seconds).
MIN_WARM = {"table1": 10, "datagen": 3}
#: Cold campaign phases per run (each on an empty store).
COLD_REPS = {"table1": 1, "datagen": 2}
#: The stage whose task latencies are a campaign's ``lo``/``bulk`` latencies.
LATENCY_STAGE = {"table1": "finetune", "datagen": "bundle"}
#: Extra server launches that only measure set-up time.
SERVE_SETUP_REPS = 3
#: Open-loop rates (requests/s) and shares of --seconds per serving phase.
#: Both stay under half of the capacity measured on a contended 2-vCPU box
#: (240 windows/s, against 1000 when it is quiet), so queueing does not
#: dominate.  The phases are long (1800 lo and 240 bulk requests at 34 s)
#: because stalls of the box come in bursts that a short phase's tail
#: samples only a few of.
LO_RATE, BULK_RATE = 100.0, 15.0
LO_SHARE, BULK_SHARE = 0.53, 0.47
#: The closed-loop ``sat`` phase: fixed blocks of 8-window requests.
SAT_BLOCKS, SAT_BLOCK_REQUESTS = 5, 48
#: Tolerances of the output checks.
TABLE1_RTOL = 1e-6
SERVE_RTOL = 1e-12
PHASE_TIMEOUT_S = 150.0
KINDS = ("traces", "bundles", "checkpoints", "evaluations")
STAGES = ("traces", "bundle", "pretrain", "finetune", "scratch", "baselines")
SERVE_PHASES = ("lo", "bulk", "sat")


def metric_names() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    )


class Run:
    """Everything one invocation shares: paths, seed, accounting."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.variant = seed % VARIANTS
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.report: list[str] = []
        self.live: list[subprocess.Popen] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def launch(self, argv: list[str], log_name: str, env=None, **kwargs) -> subprocess.Popen:
        log = open(self.work / log_name, "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env={**self.env, **(env or {})},
                stderr=log, start_new_session=True, **kwargs,
            )
        finally:
            log.close()
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = PHASE_TIMEOUT_S):
        """Wait for a child; returns ``(exit code, rusage)``.

        The rusage covers the child and every descendant it waited for,
        so pool workers count towards their campaign process.
        """
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                kill_group(proc)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage

    def kill_all(self) -> None:
        """Stop every child still running (after a failure) and wait for it."""
        for proc in list(self.live):
            kill_group(proc)
            self.reap(proc)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a child and everything it started (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


# -- campaigns -------------------------------------------------------------------


def reference(workload: str, variant: int):
    table = json.loads((HERE / "reference.json").read_text())
    return table.get(workload, {}).get(str(variant))


def run_phase(run: Run, workload: str, phase: str, store: Path, traced: bool) -> dict:
    out = run.work / f"{phase}.json"
    argv = [
        str(HERE / "campaign.py"), "--workload", workload,
        "--variant", str(run.variant), "--store", str(store), "--out", str(out),
    ]
    probe_dir = run.work / f"probe-{phase}"
    if traced:
        argv += ["--probe-dir", str(probe_dir)]
    argv += ["--launched", repr(time.monotonic())]
    code, usage = run.reap(run.launch(argv, f"{phase}.log"))
    if code != 0 or not out.exists():
        log = (run.work / f"{phase}.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{workload} {phase} phase exited {code}:\n{log}")
    record = json.loads(out.read_text())
    record.update(cpu_s=cpu_s(usage), rss_mb=rss_mb(usage), traced=traced)
    if traced:
        record["probe"] = probe.collect(probe_dir)
    for task in record["tasks"]:
        attempts = max(1, task["attempts"] or 0)
        run.attempted += attempts
        run.failed += attempts - (1 if task["status"] == "done" else 0)
    return record


def check_campaign(run: Run, workload: str, phase: str, record: dict, cold: bool) -> None:
    summary = record["summary"]
    run.check(
        f"{phase}: every task done",
        summary["done"] == summary["total"],
        f"{summary['done']}/{summary['total']}",
    )
    if not cold:
        run.check(
            f"{phase}: all hits, nothing executed",
            summary["cache_hits"] == summary["total"] and summary["executed"] == 0,
            f"hits {summary['cache_hits']}/{summary['total']}, executed {summary['executed']}",
        )
    check_outputs(run, workload, phase, record["outputs"])


def check_outputs(run: Run, workload: str, phase: str, outputs: dict) -> None:
    expected = reference(workload, run.variant)
    if expected is None:
        run.check(f"{phase}: reference recorded", False, f"variant {run.variant}")
        return
    if workload == "datagen":
        for key in ("packets", "windows"):
            run.check(
                f"{phase}: {key} equal the reference",
                outputs.get(key) == expected[key],
                f"{outputs.get(key)} vs {expected[key]}",
            )
        return
    rows = outputs.get("rows") or {}
    worst = table1_error(rows, expected["rows"])
    run.check(
        f"{phase}: Table 1 rows finite and equal the reference",
        worst <= TABLE1_RTOL,
        f"worst relative error {worst:.3g} (tolerance {TABLE1_RTOL:g})",
    )


def table1_error(rows: dict, expected: dict) -> float:
    """Worst relative error of the rows against the reference (inf when a
    row is missing or a value is not finite)."""
    if set(rows) != set(expected):
        return math.inf
    worst = 0.0
    for name, values in expected.items():
        got = rows[name]
        if len(got) != len(values):
            return math.inf
        for value, want in zip(got, values):
            if value is None or not math.isfinite(value):
                return math.inf
            worst = max(worst, abs(value - want) / max(abs(want), 1e-300))
    return worst


def campaign_workload(run: Run, workload: str) -> tuple[dict, dict]:
    started = time.monotonic()
    colds: list[dict] = []
    for index in range(COLD_REPS[workload]):
        store = run.work / f"store{index}"
        shutil.rmtree(run.work / f"store{index - 1}", ignore_errors=True)
        # A traced run traces its first cold phase only.
        traced = run.trace and index == 0
        colds.append(run_phase(run, workload, f"cold{index}", store, traced))
        check_campaign(run, workload, f"cold{index}", colds[-1], cold=True)
    warm: list[dict] = []
    while len(warm) < MIN_WARM[workload] or time.monotonic() - started < run.seconds:
        # Traced runs alternate traced and untraced warm phases, so the
        # difference of their medians is the tracing overhead.
        traced = run.trace and len(warm) % 2 == 0
        record = run_phase(run, workload, f"warm{len(warm)}", store, traced)
        check_campaign(run, workload, f"warm{len(warm)}", record, cold=False)
        warm.append(record)
    end_to_end = campaign_metrics(workload, colds, warm)
    run.report.append(
        f"{workload}: cold x{len(colds)} median {end_to_end['cold_wall_s']:.2f}s "
        f"({colds[0]['summary']['executed']} executed), "
        f"warm x{len(warm)} median {end_to_end['warm_wall_s']:.3f}s, "
        f"cpu {end_to_end['cpu_s']:.1f}s over {colds[0]['workers']} workers, "
        f"setup median of {len(colds) + len(warm)}; "
        f"{LATENCY_STAGE[workload]} task latency over "
        f"{len(stage_walls(workload, warm))} warm and "
        f"{len(stage_walls(workload, colds))} cold tasks"
    )
    layers = campaign_layers(run, colds, warm) if run.trace else {}
    return end_to_end, layers


def campaign_metrics(workload: str, colds: list[dict], warm: list[dict]) -> dict:
    """The end-to-end metrics of a campaign workload (medians over phases).

    The campaign's operations are its tasks; latencies are the median
    wall times of the workload's ``LATENCY_STAGE`` tasks, on the filled
    store (``lo``) and on an empty one (``bulk``).  The saturated
    throughput is the windows of the campaign's bundles per second of
    cold wall time.
    """
    phases = [*colds, *warm]
    cold_wall = median(phase["wall_s"] for phase in colds)
    return {
        "setup_s": median(phase["setup_s"] for phase in phases),
        "cold_wall_s": cold_wall,
        "warm_wall_s": median(phase["wall_s"] for phase in warm),
        "cpu_s": median(phase["cpu_s"] for phase in colds),
        "peak_rss_mb": max(phase["rss_mb"] for phase in phases),
        "lo_p50_ms": 1e3 * loadgen.percentile(stage_walls(workload, warm), 0.5),
        "bulk_p50_ms": 1e3 * loadgen.percentile(stage_walls(workload, colds), 0.5),
        "sat_windows_per_s": colds[0]["outputs"]["windows"] / cold_wall,
    }


def stage_walls(workload: str, records: list[dict]) -> list[float]:
    stage = LATENCY_STAGE[workload]
    return [
        task["wall_time_s"]
        for record in records
        for task in record["tasks"]
        if task["stage"] == stage
    ]


def campaign_layers(run: Run, colds: list[dict], warm: list[dict]) -> dict:
    cold = colds[0]  # the traced one
    spans = cold["probe"]
    traced_warm = [record for record in warm if record["traced"]]
    gets = traced_warm[0]["probe"]

    def seconds(name, totals=spans):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def amount(name, totals=spans):
        return totals.get(name, [0, 0.0, 0.0])[2]

    layers = {
        "setup.import_s": median(record["import_s"] for record in [*colds, *warm]),
        "netsim.sim_s": seconds("netsim.sim"),
        "netsim.packets": amount("netsim.sim"),
        "netsim.pps": amount("netsim.sim") / seconds("netsim.sim") if seconds("netsim.sim") else 0.0,
        "datasets.window_s": seconds("datasets.window"),
        "datasets.windows": amount("datasets.window"),
    }
    for kind in KINDS:
        layers[f"store.put_s.{kind}"] = seconds(f"store.put.{kind}")
        layers[f"store.put_mb.{kind}"] = amount(f"store.put.{kind}")
        layers[f"store.get_s.{kind}"] = seconds(f"store.get.{kind}", gets)
        layers[f"store.get_mb.{kind}"] = amount(f"store.get.{kind}", gets)
    hits = traced_warm[0]["summary"]["cache_hits"]
    total = traced_warm[0]["summary"]["total"]
    layers.update({
        "store.hits": hits,
        "store.misses": total - hits,
        "store.hit_ratio": hits / total,
    })
    telemetry = cold["telemetry"]
    steps = telemetry.get("steps", 0)
    layers.update({
        "train.pretrain_s": seconds("train.pretrain"),
        "train.finetune_s": seconds("train.finetune"),
        "train.scratch_s": seconds("train.scratch"),
        "train.steps": steps,
        "train.step_ms": 1e3 * telemetry.get("step_seconds", 0.0) / steps if steps else 0.0,
        "train.forward_s": seconds("train.forward"),
        "train.backward_s": seconds("train.backward"),
        "train.optim_s": seconds("train.optim"),
        "train.data_s": seconds("train.data"),
        "eval.predict_s": seconds("eval.predict"),
    })
    busy = 0.0
    for stage in STAGES:
        stage_s = sum(task["wall_time_s"] for task in cold["tasks"] if task["stage"] == stage)
        layers[f"runtime.stage_s.{stage}"] = stage_s
        busy += stage_s
    summary = cold["summary"]
    layers.update({
        "runtime.busy_frac": busy / (cold["wall_s"] * cold["workers"]),
        "runtime.first_task_s": median(
            record["telemetry"].get("first_task_s", math.nan) for record in warm
        ),
        "runtime.tasks": summary["total"],
        "runtime.executed": summary["executed"],
        "runtime.cache_hits": summary["cache_hits"],
        "runtime.retries": sum(max(0, (task["attempts"] or 1) - 1) for task in cold["tasks"]),
        "runtime.failed": summary["failed"],
    })
    untraced = [record["wall_s"] for record in warm if not record["traced"]]
    traced = [record["wall_s"] for record in traced_warm]
    layers["trace.untraced_s"] = median(untraced)
    layers["trace.overhead_s"] = median(traced) - median(untraced)
    layers["trace.cold_wall_s"] = cold["wall_s"]
    return layers


# -- serving ---------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, run: Run, model: str, name: str, probe_dir: Path | None = None):
        argv = ["serve", model, "--port", "0", "--no-cache"]
        if probe_dir is None:
            argv = ["-m", "repro", *argv]
        else:
            argv = [str(HERE / "serve_probe.py"), str(probe_dir), *argv]
        self.run = run
        self.probe_dir = probe_dir
        self.launched = time.monotonic()
        self.proc = run.launch(
            argv, f"{name}.log", env={"PERFBENCH_LAUNCHED": repr(self.launched)},
            stdout=subprocess.PIPE,
        )
        self.port = self._port()
        # Keep draining the server's stdout so its last lines never block.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        self.setup_s = self._wait_healthy() - self.launched

    def _port(self) -> int:
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if " on http://" in line:
                return int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(self.url("/healthz"), timeout=5) as response:
                    if response.status == 200:
                        return time.monotonic()
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve never answered /healthz")

    def first_prediction(self, body: bytes) -> float:
        """Seconds from launch until the first prediction is answered."""
        result = loadgen.closed_loop("127.0.0.1", self.port, [body], [0])
        if result.failed:
            raise RuntimeError("the first prediction failed")
        return time.monotonic() - self.launched

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url("/metrics"), timeout=10) as response:
            return json.loads(response.read())

    def spans(self) -> dict:
        """Ask the traced server to flush its totals; returns them."""
        path = self.probe_dir / f"{self.proc.pid}.json"
        path.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return probe.collect(self.probe_dir)

    def stop(self):
        """SIGTERM, wait; returns the rusage of the server process."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        code, usage = self.run.reap(self.proc, timeout=30)
        return usage


def serve_workload(run: Run) -> tuple[dict, dict]:
    prep = run.work / "serve"
    argv = [
        str(HERE / "serve_prep.py"), "--variant", str(run.variant),
        "--seed", str(run.seed), "--store", str(run.root / ".perfbench" / "serve-store"),
        "--out", str(prep),
    ]
    # The first run of a variant in a checkout trains its checkpoint
    # into the persistent store; later runs load it.
    code, _usage = run.reap(run.launch(argv, "prep.log"), timeout=600)
    if code != 0:
        log = (run.work / "prep.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"serve preparation exited {code}:\n{log}")
    prepared = json.loads((prep / "requests.json").read_text())
    model = prepared["model"]
    bodies = {phase: [r["body"].encode() for r in rows] for phase, rows in prepared["requests"].items()}
    expect = {phase: [r["expect"] for r in rows] for phase, rows in prepared["requests"].items()}

    setups, colds = [], []
    untraced_lo = None
    for index in range(SERVE_SETUP_REPS):
        server = Server(run, model, f"setup{index}")
        setups.append(server.setup_s)
        colds.append(server.first_prediction(bodies["lo"][0]))
        if run.trace and index == 0:
            # The untraced base of the tracing overhead: a short lo phase.
            result = phase_lo(server, bodies, run.seed, 0.3 * run.seconds * LO_SHARE)
            untraced_lo = median(sample.latency_s for sample in result.ok)
        server.stop()

    probe_dir = run.work / "probe-serve" if run.trace else None
    server = Server(run, model, "server", probe_dir)
    setups.append(server.setup_s)
    colds.append(server.first_prediction(bodies["lo"][0]))
    results, server_metrics, server_spans = {}, {}, {}
    before = server.metrics()
    spans_before = server.spans() if run.trace else {}
    offset = run.seed * 7919
    sat_blocks = []
    for phase in SERVE_PHASES:
        if phase == "lo":
            results[phase] = phase_lo(server, bodies, run.seed, run.seconds * LO_SHARE)
        elif phase == "bulk":
            count = int(BULK_RATE * run.seconds * BULK_SHARE)
            order = [(offset + i) % len(bodies["bulk"]) for i in range(count)]
            results[phase] = loadgen.open_loop(
                "127.0.0.1", server.port, bodies["bulk"], order, BULK_RATE
            )
        else:
            # Fixed work in blocks; the median block resists short stalls.
            results[phase] = loadgen.LoopResult()
            for block in range(SAT_BLOCKS):
                order = [
                    (offset + 3 * (block * SAT_BLOCK_REQUESTS + i)) % len(bodies["bulk"])
                    for i in range(SAT_BLOCK_REQUESTS)
                ]
                part = loadgen.closed_loop("127.0.0.1", server.port, bodies["bulk"], order)
                windows = sum(len(expect["bulk"][sample.body]) for sample in part.ok)
                sat_blocks.append((part.wall_s, windows / part.wall_s))
                results[phase].samples.extend(part.samples)
                results[phase].wall_s += part.wall_s
        after = server.metrics()
        server_metrics[phase] = diff_metrics(before, after)
        before = after
        if run.trace:
            spans_after = server.spans()
            server_spans[phase] = diff_spans(spans_before, spans_after)
            spans_before = spans_after
    load_spans = probe.collect(probe_dir) if run.trace else {}
    usage = server.stop()

    for phase, result in results.items():
        check_predictions(run, phase, result, expect["lo" if phase == "lo" else "bulk"])
        run.attempted += len(result.samples)
        run.failed += result.failed
    lo, bulk = results["lo"], results["bulk"]
    end_to_end = {
        "setup_s": median(setups),
        "cold_wall_s": median(colds),
        "warm_wall_s": median(wall for wall, _rate in sat_blocks),
        "cpu_s": cpu_s(usage),
        "peak_rss_mb": rss_mb(usage),
        "lo_p50_ms": 1e3 * latency(lo, 0.5),
        "bulk_p50_ms": 1e3 * latency(bulk, 0.5),
        "sat_windows_per_s": median(rate for _wall, rate in sat_blocks),
    }
    for phase, result in results.items():
        late = [sample.late_s for sample in result.samples]
        run.report.append(
            f"serve {phase}: {len(result.samples)} requests, {result.failed} failed, "
            f"p50 {1e3 * latency(result, 0.5):.2f}ms, "
            f"tail p{100 * loadgen.tail_fraction(len(result.ok), 0.99):.1f} "
            f"{1e3 * latency(result, 0.99):.2f}ms over {len(result.ok)} samples, "
            f"generator late p99 {1e3 * loadgen.percentile(late, 0.99):.2f}ms"
        )
    layers = {}
    if run.trace:
        layers = serve_layers(run, results, server_metrics, server_spans, load_spans, expect)
        layers["trace.untraced_s"] = untraced_lo
        layers["trace.overhead_s"] = latency(lo, 0.5) - untraced_lo
        layers["setup.import_s"] = load_spans.get("setup.import", [0, 0.0])[1]
    return end_to_end, layers


def phase_lo(server: Server, bodies: dict, seed: int, seconds: float):
    count = int(LO_RATE * seconds)
    order = [(seed * 7919 + i) % len(bodies["lo"]) for i in range(count)]
    return loadgen.open_loop("127.0.0.1", server.port, bodies["lo"], order, LO_RATE)


def latency(result, wanted: float) -> float:
    """Percentile of request latency; failed requests count as infinite."""
    values = [
        sample.latency_s if sample.status == 200 else math.inf for sample in result.samples
    ]
    return loadgen.percentile(values, loadgen.tail_fraction(len(values), wanted))


def check_predictions(run: Run, phase: str, result, expect: list) -> None:
    worst = 0.0
    for sample in result.ok:
        got = json.loads(sample.response)["predictions"]
        want = expect[sample.body]
        if len(got) != len(want):
            worst = math.inf
            break
        for value, reference_value in zip(got, want):
            worst = max(worst, abs(value - reference_value) / max(abs(reference_value), 1e-300))
    run.check(
        f"serve {phase}: predictions equal Predictor.predict",
        worst <= SERVE_RTOL and result.ok,
        f"worst relative error {worst:.3g} over {len(result.ok)} answers",
    )


def diff_metrics(before: dict, after: dict) -> dict:
    keys = ("requests_total", "predictions_total", "batches_total", "errors_total", "rejected_total")
    return {key: after[key] - before[key] for key in keys}


def diff_spans(before: dict, after: dict) -> dict:
    out = {}
    for name, values in after.items():
        base = before.get(name, [0, 0.0, 0.0])
        out[name] = [value - previous for value, previous in zip(values, base)]
    return out


def serve_layers(run, results, server_metrics, server_spans, load_spans, expect) -> dict:
    layers = {"serve.load_s": load_spans.get("serve.load", [0, 0.0])[1]}
    late = []
    rejected = errors = 0
    for phase in SERVE_PHASES:
        result, counters, spans = results[phase], server_metrics[phase], server_spans[phase]
        submit = spans.get("serve.submit", [0, 0.0, 0.0])
        forward = spans.get("serve.forward", [0, 0.0, 0.0])
        submit_ms = 1e3 * submit[1] / submit[0] if submit[0] else 0.0
        forward_ms = 1e3 * forward[1] / forward[0] if forward[0] else 0.0
        client_ms = 1e3 * median(sample.done - sample.sent for sample in result.ok)
        layers[f"serve.{phase}.submit_ms"] = submit_ms
        layers[f"serve.{phase}.queue_ms"] = submit_ms - forward_ms
        layers[f"serve.{phase}.forward_ms"] = forward_ms
        layers[f"serve.{phase}.front_ms"] = client_ms - submit_ms
        layers[f"serve.{phase}.batch_windows"] = (
            counters["predictions_total"] / counters["batches_total"]
            if counters["batches_total"] else 0.0
        )
        layers[f"serve.{phase}.samples"] = len(result.samples)
        if phase != "sat":
            late.extend(sample.late_s for sample in result.samples)
        rejected += counters["rejected_total"]
        errors += counters["errors_total"] + result.failed
    # Tails are reported here, not bounded end to end: see README.md.
    layers["serve.lo_p99_ms"] = 1e3 * latency(results["lo"], 0.99)
    layers["serve.bulk_p95_ms"] = 1e3 * latency(results["bulk"], 0.95)
    layers["serve.late_ms"] = 1e3 * loadgen.percentile(late, 0.99)
    layers["serve.rejected"] = rejected
    layers["serve.errors"] = errors
    return layers


# -- fingerprint and main --------------------------------------------------------


def fingerprint() -> dict:
    """The machine as found: cores, CPU, BLAS, thread variables, versions."""
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: config.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    blas.update(blas_runtime())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "thread_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS") or key.startswith(("OPENBLAS", "GOTO", "MKL_", "OMP_"))
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def blas_runtime() -> dict:
    """OpenBLAS's thread count and kernel, read from the loaded library."""
    import ctypes

    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    for path in sorted(site.glob("numpy.libs/*openblas*.so*")) + sorted(
        site.glob("*openblas*/lib/*openblas*.so*")
    ):
        library = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            if threads is None:
                continue
            corename = getattr(library, f"{prefix}_get_corename{suffix}")
            corename.restype = ctypes.c_char_p
            return {"threads": int(threads()), "core": corename().decode()}
    return {}


def result_line(values: dict, units: dict, run: Run) -> dict:
    """The last line: every named metric with its unit, plus accounting.

    A value that is missing or not finite is written as 0 and makes the
    run incorrect when the metric is end to end (never 0 by design).
    """
    metrics, finite = {}, True
    for name, unit in units.items():
        value = values.get(name, 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            value, finite = 0.0, False
        metrics[name] = {"value": value, "unit": unit}
    if run.trace:
        finite = True  # a layer the workload never reaches reads 0
    return {
        "correct": finite and run.failed == 0 and all(ok for _n, ok, _d in run.checks),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        fields = [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def machine_speed_ms() -> float:
    """Best of 5 timings of a fixed pure-Python loop: how fast this
    machine runs right now (reported only, never folded into a metric)."""
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        sum(index * index for index in range(100_000))
        best = min(best, time.perf_counter() - started)
    return 1e3 * best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("table1", "datagen", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    end_names, layer_names = metric_names()
    # Unwind (and stop every child) on SIGTERM too, not only on errors.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(root, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    speed_before, ticks_before = machine_speed_ms(), cpu_ticks()
    try:
        if args.workload == "serve":
            end_to_end, layers = serve_workload(run)
        else:
            end_to_end, layers = campaign_workload(run, args.workload)
    finally:
        run.kill_all()
        shutil.rmtree(run.work, ignore_errors=True)
    steal, total = (after - before for after, before in zip(cpu_ticks(), ticks_before))
    run.report.append(
        f"machine: reference loop {speed_before:.2f}ms before, {machine_speed_ms():.2f}ms "
        f"after; CPU steal {100 * steal / max(total, 1):.1f}% of machine time"
    )
    chosen, units = (layers, layer_names) if run.trace else (end_to_end, end_names)
    result = result_line(chosen, units, run)
    for line in run.report:
        print(line)
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({"fingerprint": fingerprint(), "variant": run.variant}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
