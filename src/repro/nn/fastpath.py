"""Runtime switches for the nn hot loop: fused kernels and precision.

Mirrors :mod:`repro.netsim.reference`'s ``legacy_path()`` pattern for the
neural-network engine.  Two independent policies live here:

* **Fused ops** — the default.  Composite operator chains (LayerNorm,
  masked softmax, the attention core, ``Linear``'s matmul+bias, the MSE
  loss, the optimizer updates) collapse into single autograd nodes whose
  analytic backwards replay the exact numpy arithmetic of the composite
  graph, so results — forward values *and* gradients — are
  bit-identical to the pre-fusion engine.  :func:`composite_ops`
  restores the original many-node graphs (the ``fused=False`` escape
  hatch; the throughput benchmark measures one against the other).

* **Precision** — the default compute dtype is ``float64`` (finite
  difference gradchecks stay meaningful, and cached artifacts keep their
  bytes).  ``precision("float32")`` halves matmul memory bandwidth for
  exploratory sweeps; it is opt-in per training run and never the
  default, so float64 cache keys are untouched (see
  ``repro.api.store.precision_key``).
"""

# This module runs inside every fused forward/backward step; the
# hot-loop-alloc lint rule holds the whole file to the no-allocation
# discipline the scratch pool exists to provide.
# repro: hot

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "fused_ops_enabled",
    "set_fused_ops",
    "composite_ops",
    "default_dtype",
    "resolve_dtype",
    "precision",
    "PRECISIONS",
    "scratch",
    "clear_scratch",
]

_FUSED = True

#: Supported precision names (the ``precision=`` knob on training APIs).
PRECISIONS = ("float64", "float32")


class _ThreadState(threading.local):
    """Per-thread autograd mode and default dtype.

    ``no_grad()`` and ``precision(...)`` save and restore these on the
    calling thread only, so blocks overlapping on two threads (a serving
    batcher next to a training loop) can never leave each other's
    setting behind.  The class attributes are every thread's defaults.
    """

    grad_enabled = True
    dtype = np.float64


#: The one home of both per-thread switches (read by ``repro.nn.tensor``).
THREAD_STATE = _ThreadState()

#: (shape, dtype, slot) → reusable buffer for *transient* backward
#: intermediates (batched gradient matmuls before their reductions).
#: Only values that die inside a single op's backward call may live
#: here — anything handed to the autograd engine must be fresh.
_SCRATCH: dict[tuple, np.ndarray] = {}


def scratch(shape: tuple, dtype, slot: int = 0) -> np.ndarray:
    """A reusable uninitialised buffer for one op-internal temporary.

    The pool turns the hot loop's largest allocations (tens of MB of
    batched-matmul gradient intermediates per step) into warm buffer
    reuse.  Distinct ``slot`` values guarantee two simultaneously-live
    temporaries of the same shape never collide.
    """
    key = (shape, np.dtype(dtype).str, slot)
    buffer = _SCRATCH.get(key)
    if buffer is None:
        buffer = np.empty(shape, dtype=dtype)  # repro: allow(hot-loop-alloc): pool miss — the one allocation warm steps exist to avoid
        _SCRATCH[key] = buffer
    return buffer


def clear_scratch() -> None:
    """Release every pooled scratch buffer (tests / memory pressure)."""
    _SCRATCH.clear()


def fused_ops_enabled() -> bool:
    """True when ops build fused single-node graphs (the default)."""
    return _FUSED


def set_fused_ops(enabled: bool) -> None:
    """Globally enable/disable the fused kernels."""
    global _FUSED
    _FUSED = bool(enabled)


@contextlib.contextmanager
def composite_ops():
    """Run the block on the pre-fusion composite operator graphs.

    This is the benchmark/debugging escape hatch: the composite path is
    the original implementation, kept callable so equivalence is always
    one context manager away.
    """
    global _FUSED
    previous = _FUSED
    _FUSED = False
    try:
        yield
    finally:
        _FUSED = previous


def default_dtype() -> np.dtype:
    """The dtype new tensors are stored in (float64 unless overridden)."""
    return THREAD_STATE.dtype


def resolve_dtype(precision_name) -> np.dtype:
    """Map a precision name (or dtype) to a numpy dtype, validating it."""
    if precision_name is None:
        return np.dtype(np.float64)
    if isinstance(precision_name, str):
        if precision_name not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision_name!r}; choose from {PRECISIONS}"
            )
        return np.dtype(precision_name)
    dtype = np.dtype(precision_name)
    if dtype.name not in PRECISIONS:
        raise ValueError(f"unsupported compute dtype {dtype}; choose from {PRECISIONS}")
    return dtype


@contextlib.contextmanager
def precision(precision_name):
    """Set the calling thread's default tensor dtype within the block.

    ``precision("float32")`` makes every tensor (parameters created
    inside the block included) store float32; gradients and optimizer
    state follow the parameter dtype automatically.
    """
    dtype = resolve_dtype(precision_name)
    previous = THREAD_STATE.dtype
    THREAD_STATE.dtype = dtype
    try:
        yield
    finally:
        THREAD_STATE.dtype = previous
