"""Timing wrappers installed around the program's public calls.

The benchmark never edits the program: in a traced run it replaces a
few module attributes with wrappers that time each call and count the
work it did.  Every process keeps its totals in memory and rewrites
``<out_dir>/<pid>.json`` after each outermost call, so forked pool
workers and the server process report without any help from the
program.  :func:`collect` sums the files of all processes.

A span name counts only its outermost call: a name that is already
open on the current thread (``eval.predict`` inside ``eval.predict``)
is not counted again.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path

_LOCAL = threading.local()
_LOCK = threading.Lock()
_STATS: dict[str, list[float]] = {}  # name -> [calls, seconds, amount]
_OUT_DIR: Path | None = None


def _open() -> list[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _record(name: str, seconds: float, amount: float = 0.0) -> None:
    with _LOCK:
        entry = _STATS.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += amount


def dump() -> None:
    """Rewrite this process's totals file (atomically)."""
    if _OUT_DIR is None:
        return
    with _LOCK:
        payload = {name: list(values) for name, values in _STATS.items()}
    path = _OUT_DIR / f"{os.getpid()}.json"
    temp = path.with_suffix(".tmp")
    temp.write_text(json.dumps(payload))
    os.replace(temp, path)


def add(name: str, seconds: float, amount: float = 0.0) -> None:
    """Record one externally timed span (and flush)."""
    _record(name, seconds, amount)
    dump()


def timed(name: str, fn, amount=None, when=None):
    """``fn`` wrapped so each outermost call adds to span ``name``.

    ``amount(result, args, kwargs)`` gives the work the call did (packets,
    windows, megabytes); ``when(args)`` returning false skips recording.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = await fn(*args, **kwargs)
            _record(name, time.perf_counter() - started)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _open()
        if name in stack or (when is not None and not when(args)):
            return fn(*args, **kwargs)
        stack.append(name)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            stack.pop()
        _record(name, seconds, amount(result, args, kwargs) if amount else 0.0)
        if not stack:
            dump()
        return result

    return wrapper


def patch(owners, attr: str, name: str, amount=None, when=None) -> None:
    """Replace ``attr`` on every owner (module or class) by one wrapper.

    Use sites that imported the function by name are owners too; they
    all get the same wrapper object so pickling by reference still works.
    """
    original = getattr(owners[0], attr)
    wrapper = timed(name, original, amount, when)
    for owner in owners:
        setattr(owner, attr, wrapper)


def in_training(args=()) -> bool:
    return "train.epoch" in _open()


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


def install_campaign(out_dir) -> None:
    """Wrap the layers a campaign passes through."""
    global _OUT_DIR
    _OUT_DIR = Path(out_dir)
    _OUT_DIR.mkdir(parents=True, exist_ok=True)

    import repro.api.experiment as experiment
    import repro.core.evaluation as evaluation
    import repro.core.pipeline as pipeline
    import repro.datasets.generation as generation
    import repro.netsim.scenarios as scenarios
    import repro.nn.trainer as trainer
    import repro.runtime.engine as engine
    import repro.runtime.stages as stages
    import repro.runtime.worker as worker
    from repro.api.predictor import Predictor
    from repro.api.store import ArtifactStore
    from repro.nn.data import DataLoader
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor

    # Each task is a worker's outermost call, so its totals are flushed
    # after every task even though pool workers never exit cleanly.
    patch([worker, engine], "run_task", "runtime.task")
    patch([scenarios, stages], "run_scenario", "netsim.sim", lambda r, a, k: len(r))
    patch([generation], "windows_from_trace", "datasets.window", lambda r, a, k: len(r))

    put_mb = lambda r, a, k: _file_mb(r)  # noqa: E731 - puts return the written path
    # JSON puts and gets also carry campaign manifests; count evaluations only.
    evaluations = lambda args: args[1] == "evaluations"  # noqa: E731
    for method, kind in (
        ("put_trace_run", "traces"),
        ("put_bundle", "bundles"),
        ("put_pretrained", "checkpoints"),
        ("put_finetuned", "checkpoints"),
        ("put_json", "evaluations"),
    ):
        when = evaluations if kind == "evaluations" else None
        patch([ArtifactStore], method, f"store.put.{kind}", put_mb, when)

    def get_mb(kind):
        def amount(result, args, kwargs):
            if result is None:
                return 0.0
            store = args[0]
            if kind == "traces":
                return sum(_file_mb(path) for path in store.trace_paths(args[1], args[2]))
            key = args[2] if kind == "evaluations" else args[1]  # get_json(kind, key)
            return _file_mb(store.path(kind, key))

        return amount

    for method, kind in (
        ("get_traces", "traces"),
        ("get_bundle", "bundles"),
        ("get_pretrained", "checkpoints"),
        ("get_finetuned", "checkpoints"),
        ("get_json", "evaluations"),
    ):
        when = evaluations if kind == "evaluations" else None
        patch([ArtifactStore], method, f"store.get.{kind}", get_mb(kind), when)

    patch([pipeline], "pretrain", "train.pretrain")
    patch([experiment], "finetune_delay", "train.finetune")
    patch([experiment], "finetune_mct", "train.finetune")
    patch([stages], "train_delay_from_scratch", "train.scratch")
    patch([stages], "train_mct_from_scratch", "train.scratch")

    # The train step split: forward (model + loss), backward, optimizer
    # (zero_grad, clipping, step) and data (batch assembly), counted only
    # inside a training epoch so validation passes stay out of it.
    patch([trainer.Trainer], "train_epoch", "train.epoch")
    patch([Tensor], "backward", "train.backward", when=in_training)
    patch([Optimizer], "step", "train.optim", when=in_training)
    patch([Optimizer], "zero_grad", "train.optim", when=in_training)
    patch([trainer], "clip_grad_norm", "train.optim", when=in_training)
    original_init = trainer.Trainer.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.forward_fn = timed("train.forward", self.forward_fn, when=in_training)
        self.loss_fn = timed("train.forward", self.loss_fn, when=in_training)

    trainer.Trainer.__init__ = init
    original_iter = DataLoader.__iter__

    def timed_iter(self):
        iterator = original_iter(self)
        while True:
            started = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            if in_training():
                _record("train.data", time.perf_counter() - started)
            yield batch

    DataLoader.__iter__ = timed_iter

    patch([trainer.Trainer], "evaluate", "eval.predict")
    patch([evaluation], "predict_delay", "eval.predict")
    patch([evaluation], "predict_mct", "eval.predict")
    patch([Predictor], "predict", "eval.predict")


def install_serve(out_dir) -> None:
    """Wrap the serving layers; the totals are flushed on ``SIGUSR1``."""
    global _OUT_DIR
    _OUT_DIR = Path(out_dir)
    _OUT_DIR.mkdir(parents=True, exist_ok=True)
    import signal

    from repro.api.predictor import Predictor
    from repro.serve.batcher import MicroBatcher
    from repro.serve.manager import ModelManager

    patch([ModelManager], "_load", "serve.load")
    patch([MicroBatcher], "submit", "serve.submit")
    patch([Predictor], "predict", "serve.forward", lambda r, a, k: len(r))
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump())


def collect(out_dir) -> dict[str, list[float]]:
    """Sum the totals files every process wrote under ``out_dir``."""
    totals: dict[str, list[float]] = {}
    for path in sorted(Path(out_dir).glob("*.json")):
        for name, values in json.loads(path.read_text()).items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                entry[index] += value
    return totals
