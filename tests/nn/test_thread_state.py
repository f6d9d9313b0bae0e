"""Grad mode and default dtype are per-thread.

Serving runs forwards under ``no_grad()``/``precision(...)`` on worker
threads while other threads train or predict.  Each block must only
affect its own thread: overlapping blocks on two threads must neither
see each other's setting nor leave the process in a mode nobody asked
for once both have exited.
"""

import threading

import numpy as np

from repro.nn import fastpath
from repro.nn.tensor import is_grad_enabled, no_grad


def _overlapping_blocks(make_block, probe):
    """Thread A enters a block, thread B enters one, A exits, B exits.

    Returns what ``probe()`` read in the main thread while A was inside
    its block, and in B after A had already left.
    """
    a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with make_block():
            a_entered.set()
            b_entered.wait(5)
        a_exited.set()

    def second():
        a_entered.wait(5)
        with make_block():
            b_entered.set()
            a_exited.wait(5)
            seen["b_after_a_exit"] = probe()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    threads[0].start()
    a_entered.wait(5)
    seen["main_during_a"] = probe()
    threads[1].start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    return seen


def test_overlapping_no_grad_blocks_restore_grad_mode():
    seen = _overlapping_blocks(no_grad, is_grad_enabled)
    assert seen["main_during_a"] is True
    assert seen["b_after_a_exit"] is False
    assert is_grad_enabled()


def test_overlapping_precision_blocks_restore_default_dtype():
    seen = _overlapping_blocks(
        lambda: fastpath.precision("float32"), fastpath.default_dtype
    )
    assert seen["main_during_a"] == np.float64
    assert seen["b_after_a_exit"] == np.float32
    assert fastpath.default_dtype() == np.float64


def test_new_threads_start_from_the_defaults():
    seen = []

    def probe():
        seen.append((is_grad_enabled(), fastpath.default_dtype()))

    with no_grad(), fastpath.precision("float32"):
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(10)
    assert seen == [(True, np.float64)]
