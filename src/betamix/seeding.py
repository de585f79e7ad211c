"""Keyed random streams and the replication driver for parallel Monte Carlo.

Every random draw of a suite comes from a named stream keyed by
np.random.SeedSequence(seed, spawn_key=(stream, grid_value, block)), NumPy's
scheme for independent parallel streams. Results depend on the fixed block
sizes, never on execution order or worker count.

A run executes its blocks in one context: BLAS on one thread (from the import
of betamix, see `one_blas_thread`) and, inside a `parallel(workers)` block, at
most one process pool. The block opens the pool (and imports its machinery) at
the first parallel map, reuses it for every later one and shuts it down when
it exits; outside any block every map runs inline.
`replicate` is the driver of every Monte Carlo section: it checks each grid
point's query index against its path length and sends all the blocks of the
section's points through one map, longest path first.
"""

import contextlib
import contextvars
import ctypes
import os
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

# thread-count setters exported by the OpenBLAS builds numpy links, in order of
# preference; each has a getter named with "_get_" for "_set_"
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


class Stream(IntEnum):
    """Named random streams: the first word of every spawn key; 2 and 3 are retired."""

    CHAIN_TAIL = 0        # chain paths of the tail estimator, per (n, block)
    CHAIN_LAPLACE = 1     # chain paths of the Laplace estimator, per (floor A, block)
    FAR_PATH = 4          # FAR(1) training paths, per (n, block)
    REGRESSION_NOISE = 5  # regression response noise, per (n, block)
    REFERENCE_SAMPLE = 6  # independent FAR(1) reference paths, per (n, block)
    TRUNCATE_SAMPLE = 7   # verify-all's truncation sample


def keyed_rng(
    seed: int, stream: Stream, grid_value: int = 0, block: int = 0
) -> np.random.Generator:
    """Generator of `stream` for one grid value and one replication block of a
    run seeded with `seed`. The key holds the grid value itself (n, or
    floor(A)), so a grid point's sample does not depend on the rest of the grid."""
    key = (int(stream), grid_value, block)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _openblas_thread_calls():
    """(setter, getter) of the thread count of the OpenBLAS mapped into this
    process, or None when no mapped OpenBLAS exports one (another OS, an MKL
    build)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = {f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                setter, getter = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def one_blas_thread() -> Optional[int]:
    """Pin the OpenBLAS that numpy loaded to one thread for the rest of the
    process and return the count read back; None, with nothing changed, when
    no OpenBLAS is found. Importing betamix before numpy loads it on one
    thread; one loaded first keeps the server thread it started, idle after
    this call. The package's small products gain nothing from a second one."""
    calls = _openblas_thread_calls()
    if calls is None:
        return None
    setter, getter = calls
    setter(1)
    return getter()


# the pool map of the innermost open `parallel` block; None runs maps inline
_pool_map = contextvars.ContextVar("pool_map", default=None)


@contextlib.contextmanager
def parallel(workers: int):
    """Run every `replicate` inside the block on one pool of `workers` worker
    processes, capped at the CPUs this process may run on; yield a dict of
    `pools_opened` and `pool_workers`, filled in when the pool opens.

    The pool opens, and its machinery (`concurrent.futures.process`,
    `multiprocessing`) is imported, at the first map of more than one block;
    later maps reuse it. Its workers inherit OPENBLAS_NUM_THREADS=1, or pin
    their own BLAS for a parent that imported numpy first. Leaving the block,
    also on an exception, shuts the pool down. Results do not depend on
    `workers`."""
    facts = {"pools_opened": 0, "pool_workers": 0}
    pool = None

    def pool_map(fn, items):
        nonlocal pool
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            facts.update(pools_opened=1, pool_workers=min(workers, cpus))
            pool = ProcessPoolExecutor(facts["pool_workers"], initializer=one_blas_thread)
        return list(pool.map(fn, items))

    token = _pool_map.set(pool_map if workers > 1 else None)
    try:
        yield facts
    finally:
        _pool_map.reset(token)
        if pool is not None:
            pool.shutdown()


def replicate(block_fn, shared: tuple, points: Sequence[tuple[int, int]], reps: int,
              block_size: int) -> list[np.ndarray]:
    """Run `block_fn((*shared, length, t, indices))` over fixed blocks of
    replications 0..reps-1 at every (path length, t) point of `points`, and
    return one array per point, in the order of `points`: its blocks' results
    concatenated in replication order. Raises ValidationError, before any
    block runs, when a t lies outside [1, length].

    The blocks are range(s, min(s + block_size, reps)) whatever the worker
    count, and each block keys its generators by its own position, so the
    result is identical for any worker count and any order of the points.
    All the blocks of all the points go through one map, longest path first,
    so the last blocks of the map are short: over the pool of the enclosing
    `parallel` block, or here outside one, at one worker or for one block.
    The sort is stable: points of equal length keep their order.
    """
    for length, t in points:
        if not 1 <= t <= length:
            raise ValidationError(f"t = {t} must lie in [1, path length] = [1, {length}]")
    order = sorted(range(len(points)), key=lambda i: -points[i][0])
    starts = range(0, reps, block_size)
    blocks = [(*shared, *points[i], range(s, min(s + block_size, reps)))
              for i in order for s in starts]
    pool_map = _pool_map.get()
    if pool_map is not None and len(blocks) > 1:
        parts = pool_map(block_fn, blocks)
    else:
        parts = [block_fn(b) for b in blocks]
    k = len(starts)
    by_point = dict(zip(order, (np.concatenate(parts[j:j + k]) for j in range(0, len(parts), k))))
    return [by_point[i] for i in range(len(points))]
