"""Shared plumbing: deterministic seeding, reductions, complex and strict
JSON encoding, the number check of config values, the one rule for how many
processes run a task list, and the one process runner, whose pool is kept
and reused for the life of the process.

All randomness in the package flows through :func:`rng_from`, which derives
independent numpy Generators from a master seed plus an arbitrary tag tuple.
Tags may mix ints and strings; strings are hashed with SHA-256 so streams are
stable across processes and Python versions (no salted ``hash()``).
:func:`stable_key` is the package's one SHA-256 user: ``sweep.cell_seed``
takes its per-cell seed from it too.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import multiprocessing
import numbers
import os
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

import numpy as np


def stable_key(*parts: int | str) -> list[int]:
    """Map a tag tuple to a list of non-negative ints usable as SeedSequence entropy."""
    out: list[int] = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(p).encode("utf-8")).digest()
            out.append(int.from_bytes(digest[:8], "little"))
    return out


def rng_from(*parts: int | str) -> np.random.Generator:
    """Deterministic Generator keyed by (master seed, tags...)."""
    return np.random.default_rng(np.random.SeedSequence(stable_key(*parts)))


# Largest stack of independent draws evaluated in one call, counted in
# entries of its dim x dim matrices: all 50 draws of a sweep cell at n <= 4,
# 32 at n = 5 and 8 at n = 6.  It bounds the extra memory a stack holds.
STACK_ENTRIES = 2 ** 15


def stack_size(dim: int) -> int:
    """Draws per stack of dim x dim matrices, at least one."""
    return max(1, STACK_ENTRIES // (dim * dim))


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by recursive pairing.

    The reduction tree depends only on the number of summands, so results are
    bit-identical no matter how the per-sample work was scheduled.
    """
    arr = np.asarray(values)
    m = arr.shape[0]
    if m == 0:
        raise ValueError("pairwise_sum of empty collection")
    while m > 1:
        half = m // 2
        head = arr[: 2 * half : 2] + arr[1 : 2 * half : 2]
        if m % 2:
            arr = np.concatenate([head, arr[2 * half : m]], axis=0)
        else:
            arr = head
        m = arr.shape[0]
    return arr[0]


def pairwise_mean(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    return pairwise_sum(arr) / arr.shape[0]


# ---------------------------------------------------------------------------
# JSON: every complex entry becomes a [re, im] pair, every non-finite float null
# ---------------------------------------------------------------------------


def complex_to_json(a: np.ndarray) -> list:
    """Encode a complex vector or matrix as nested [re, im] pairs."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    if arr.ndim == 2:
        return [[[float(z.real), float(z.imag)] for z in row] for row in arr]
    raise ValueError(f"unsupported ndim {arr.ndim}")


def complex_from_json(data: list) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError("expected nested [re, im] pairs")


def json_text(doc) -> str:
    """``doc`` as strict JSON text, indented by 2: the one encoder of every
    document the package writes.

    A non-finite float, the ``kappa`` of a rank-0 metric say, is written as
    ``null``, where ``json.dumps`` would write the non-JSON token
    ``Infinity`` or ``NaN``.  Finite floats keep their exact text.
    """
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)


def _finite_or_null(value):
    """``value`` with each non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Config values
# ---------------------------------------------------------------------------


def _is_number(value, kind=numbers.Real) -> bool:
    """An instance of ``kind`` that is not a bool (JSON ``true`` must not pass
    as 1) and, unless an integer, finite."""
    return (
        isinstance(value, kind) and not isinstance(value, bool)
        and (isinstance(value, numbers.Integral) or math.isfinite(value))
    )


# ---------------------------------------------------------------------------
# Process runner
# ---------------------------------------------------------------------------


# The pool :func:`run_tasks` reuses, as (workers, executor); None until the
# first pooled call and after a failed one.
_pool: tuple[int, ProcessPoolExecutor] | None = None


def worker_count(workers: int, at_most: int) -> int:
    """The processes a task list runs on: the one rule for that count.

    In a process that multiprocessing started, a pool's process say, it is
    1 whatever ``workers`` is: such a process would inherit its parent's
    pool as a copy that reaches the parent's queues, and a pool kept there
    would keep it from exiting, since multiprocessing joins a process's
    children before ``concurrent.futures`` shuts its pools down.  Elsewhere
    a nonzero ``workers`` is used as given, and the automatic 0 gives
    ``at_most``, capped at the CPUs this process may run on (its affinity
    mask, else the CPU count, else 1).
    """
    if multiprocessing.parent_process() is not None:
        return 1
    if workers:
        return workers
    affinity = getattr(os, "sched_getaffinity", None)   # missing on some platforms
    return min(at_most, len(affinity(0)) if affinity else os.cpu_count() or 1)


def run_tasks(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, here or on a pool of processes.

    The tasks run on ``worker_count(workers, len(tasks))`` processes
    (:func:`worker_count`; 0 asks for one per task, up to the CPUs).  With
    one they run in this process, in order, as they always do in a process
    that multiprocessing started.  With more a process pool, its workers
    running BLAS on one thread, is handed the tasks in order; a failed task
    raises here, the first in task order.  ``fn`` and the tasks must pickle.

    The pool stays up for later calls with the same worker count, so its
    processes are forked once, at the first pooled call: they do not see
    what this process patches or configures after that.  A call with
    another count closes the pool before it forks the new one.  A pool
    already marked broken, by a process that died while it sat idle,
    raises as the tasks are submitted, before any result is read; it is
    closed and the tasks go to a fresh pool of the same count.  Whatever
    else raises out of a pooled call, a task's error or a broken pool,
    closes the pool first, so the next call starts on a fresh one; a death
    the pool has not yet noticed therefore still raises, once.
    """
    global _pool
    workers = worker_count(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    if _pool is None or _pool[0] != workers:
        _open_pool(workers)
    try:
        try:
            # map submits every task before it returns, and submitting to a
            # broken pool raises at once
            results = _pool[1].map(fn, tasks)
        except BrokenProcessPool:
            _open_pool(workers)
            results = _pool[1].map(fn, tasks)
        return list(results)
    except BaseException:
        _close_pool()
        raise


def _open_pool(workers: int) -> None:
    """Close the reused pool, then fork a new one of ``workers`` processes."""
    global _pool
    _close_pool()
    _pool = workers, ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)


def _close_pool() -> None:
    """Shut the reused pool down, its queued tasks cancelled, and wait for
    its processes to exit.  At interpreter exit ``concurrent.futures``
    joins them on its own."""
    global _pool
    if _pool is not None:
        pool = _pool[1]
        _pool = None
        pool.shutdown(wait=True, cancel_futures=True)


# Setters of a loaded BLAS's thread count: OpenBLAS under its plain, 64-bit
# integer and scipy-openblas (numpy's wheels) names, and MKL.
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "MKL_Set_Num_Threads",
)


def _one_blas_thread() -> None:
    """Run the BLAS loaded in this process on one thread.

    The initializer of :func:`run_tasks`'s pool: the pool's processes
    already fill the cores.  A BLAS that also threads each product spins its
    helper threads against the other processes' work; on a two-core host,
    with BLAS threads left at their default, that made the verify suite two
    to three times slower than the serial one, and a ``workers=2`` default
    sweep about twice as slow as with BLAS pinned.  Libraries are found
    through ``/proc/self/maps``; where it does not exist this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return
    for path in {f[5].strip() for f in fields if len(f) == 6}:
        if "blas" not in path.lower() and "mkl_rt" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
