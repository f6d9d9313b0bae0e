"""Read and set the thread count of numpy's bundled OpenBLAS.

numpy's wheels ship OpenBLAS as a private shared library (for example
``numpy.libs/libscipy_openblas64_-*.so``) whose thread pool is sized
once, from ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/
``GOTO_NUM_THREADS`` or the core count, when numpy is imported.  A
forked worker inherits that count, and setting an environment variable
after the fact changes nothing, so the count is set through the
library's own ``*_set_num_threads`` entry point via :mod:`ctypes`.

The library and its symbols are resolved once, lazily, and cached in
this module; a process that resolves them before forking hands its
children a ready cache, so a pool worker's :func:`set_threads` is two
foreign calls and never searches for the library.  When numpy's BLAS is not
an OpenBLAS build (or the library cannot be found) every function here
degrades to a no-op: :func:`set_threads` returns ``False`` and
:func:`get_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["THREAD_ENV_VARS", "get_threads", "pool_threads", "set_threads"]

#: Variables OpenBLAS reads at start-up; a user who sets one has chosen
#: the thread count, and pool sizing leaves it alone.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

# numpy >= 2 wheels (scipy-openblas, ILP64 suffix) first, then the
# suffixed and classic names of older and distribution builds.
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
# OpenBLAS's own fork handler: joins its worker threads, which the next
# call needing more than one thread starts again.
_STOP_SYMBOLS = ("blas_thread_shutdown_",)
# Where wheels put the bundled library, relative to site-packages:
# manylinux (new and old layout) and macOS.
_LIBRARY_GLOBS = (
    "numpy.libs/*openblas*",
    "numpy/.libs/*openblas*",
    "numpy/.dylibs/*openblas*",
)


@dataclass(frozen=True)
class _Controls:
    """The resolved entry points (``None`` where a symbol is missing)."""

    set_num_threads: Callable[[int], None] | None
    get_num_threads: Callable[[], int] | None
    stop_thread_pool: Callable[[], int] | None


@functools.cache
def _controls() -> _Controls:
    """Find numpy's OpenBLAS and its thread-control symbols (once)."""
    import glob

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for pattern in _LIBRARY_GLOBS:
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            setter = _symbol(library, _SET_SYMBOLS, [ctypes.c_int], None)
            getter = _symbol(library, _GET_SYMBOLS, [], ctypes.c_int)
            if setter is not None or getter is not None:
                stopper = _symbol(library, _STOP_SYMBOLS, [], ctypes.c_int)
                return _Controls(setter, getter, stopper)
    return _Controls(None, None, None)


def _symbol(
    library: ctypes.CDLL,
    names: tuple[str, ...],
    argtypes: list[type[ctypes.c_int]],
    restype: type[ctypes.c_int] | None,
) -> ctypes._NamedFuncPointer | None:
    """The first of ``names`` the library exports, with its C signature."""
    for name in names:
        try:
            function = library[name]
        except AttributeError:
            continue
        function.argtypes = argtypes
        function.restype = restype
        return function
    return None


def get_threads() -> int | None:
    """This process's OpenBLAS thread count (``None`` if unknown)."""
    getter = _controls().get_num_threads
    return None if getter is None else int(getter())


def set_threads(n: int) -> bool:
    """Set this process's OpenBLAS thread count; ``False`` if impossible.

    Meant for a pool initializer: call it while no other thread of the
    process is inside BLAS.  In a freshly forked process, setting the
    count starts OpenBLAS's thread pool, whose threads then spin for
    ~0.1 s of CPU each waiting for work that a worker serving cache hits
    never sends; the pool is stopped again right away, and OpenBLAS
    restarts it on the first call that needs more than one thread.
    """
    controls = _controls()
    if controls.set_num_threads is None:
        return False
    controls.set_num_threads(max(1, n))
    if controls.stop_thread_pool is not None:
        controls.stop_thread_pool()
    return True


def pool_threads(workers: int) -> tuple[int | None, str]:
    """The BLAS threads each of ``workers`` pool processes should use.

    Returns ``(per_worker, source)``:

    * ``"env"`` — the user set a ``*_NUM_THREADS`` variable; workers keep
      the inherited count (``per_worker`` is that count, when readable).
    * ``"sized"`` — each worker gets its share of the cores this process
      may run on, ``max(1, cores // workers)``.
    * ``"unavailable"`` — no thread-control symbol was found; workers
      keep the inherited count and ``per_worker`` is ``None``.

    Resolves the library in the calling process, so call it before the
    pool forks.
    """
    if any(os.environ.get(name, "").strip() for name in THREAD_ENV_VARS):
        return get_threads(), "env"
    if _controls().set_num_threads is None:
        return None, "unavailable"
    return max(1, _usable_cores() // max(1, workers)), "sized"


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
