"""Keyed random streams and the replication driver for parallel Monte Carlo.

Every random draw of a suite comes from a named stream keyed by
np.random.SeedSequence(seed, spawn_key=(stream, grid_value, block)), NumPy's
scheme for independent parallel streams. Results depend on the fixed block
sizes, never on execution order or worker count.

A run executes its blocks in one context: BLAS on one thread (from the import
of betamix, see `one_blas_thread`) and, inside a `parallel(workers)` block,
each map of more than one block, one per Monte Carlo section (`replicate`),
on forked children that end with the map.
"""

import contextlib
import contextvars
import ctypes
import os
import pickle
import sys
from enum import IntEnum
from typing import NoReturn, Optional, Sequence

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


# the fork map of the innermost open `parallel` block; None runs maps inline
_block_map = contextvars.ContextVar("block_map", default=None)


@contextlib.contextmanager
def parallel(workers: int):
    """Run each `replicate` of more than one block inside the block on
    min(workers, usable CPUs, blocks) forked children, or inline without
    os.fork; yield a dict of `parallel_maps`, the maps run on children, and
    `pool_workers`, the most children one map forked."""
    facts = {"parallel_maps": 0, "pool_workers": 0}

    def fork_map(fn, items, costs):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        loads = [0] * min(workers, cpus, len(items))
        shares = [[] for _ in loads]
        for i, cost in enumerate(costs):  # each to the child with the least cost so far
            child = loads.index(min(loads))
            loads[child] += cost
            shares[child].append(i)
        facts["parallel_maps"] += 1
        facts["pool_workers"] = max(facts["pool_workers"], len(shares))
        return _fork_map(fn, items, shares)

    token = _block_map.set(fork_map if workers > 1 and hasattr(os, "fork") else None)
    try:
        yield facts
    finally:
        _block_map.reset(token)


def _fork_map(fn, items: Sequence, shares: Sequence[Sequence[int]]) -> list:
    """[fn(item) for item in items], each share of item indices run by its own
    forked child (`_run_share`). Stdout and stderr are flushed first, so no
    child writes their text again. A child's exception is re-raised with its
    own type, caused by its traceback in the child; a child without a whole
    message raises ChildProcessError; and the children still running are
    killed and reaped when the parent raises."""
    import signal  # here, so that a run that never maps does not import it

    sys.stdout.flush()
    sys.stderr.flush()
    pipes, pids, results = [], [], {}
    try:
        for share in shares:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:  # the parent's write end closes after the fork
                pids.append(os.fork())
                if pids[-1] == 0:
                    _run_share(fn, [items[i] for i in share], sink)
        for share, pipe in zip(shares, pipes):
            message = pipe.read()
            pid, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                raise ChildProcessError(f"worker {pid} ended without a result, exit code "
                                        f"{os.waitstatus_to_exitcode(status)}")
            value, error, trace = pickle.loads(message)
            if error is not None:
                raise error from ChildProcessError(f"worker {pid} raised:\n{trace}")
            results.update(zip(share, value))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(items))]


def _run_share(fn, items: list, sink) -> NoReturn:
    """A forked child of `_fork_map`: pickle its results, or the exception it
    raised and its traceback, into `sink` and leave by os._exit, with 0 once
    all is sent."""
    try:
        try:
            one_blas_thread()
            message = ([fn(item) for item in items], None, "")
        except BaseException as exc:  # the parent re-raises it
            import traceback

            message = (None, exc, traceback.format_exc())
        sys.stdout.flush()
        sys.stderr.flush()
        sink.write(pickle.dumps(message))
        sink.flush()
        os._exit(0)
    finally:
        os._exit(1)


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
    each to the worker with the fewest path steps (length times replications)
    so far: on the children of the enclosing `parallel` block, or here
    outside one, at one worker or for one block.
    The sort is stable: points of equal length keep their order.
    """
    for length, t in points:
        if not 1 <= t <= length:
            raise ValidationError(f"t = {t} must lie in [1, path length] = [1, {length}]")
    order = sorted(range(len(points)), key=lambda i: -points[i][0])
    starts = range(0, reps, block_size)
    blocks = [(*shared, *points[i], range(s, min(s + block_size, reps)))
              for i in order for s in starts]
    fork_map = _block_map.get()
    if fork_map is not None and len(blocks) > 1:
        parts = fork_map(block_fn, blocks, [b[-3] * len(b[-1]) for b in blocks])
    else:
        parts = [block_fn(b) for b in blocks]
    k = len(starts)
    by_point = dict(zip(order, (np.concatenate(parts[j:j + k]) for j in range(0, len(parts), k))))
    return [by_point[i] for i in range(len(points))]
