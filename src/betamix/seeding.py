"""Keyed random streams and the replication driver for parallel Monte Carlo.

Every random draw of a suite comes from a named stream keyed by
np.random.SeedSequence(seed, spawn_key=(stream, grid_value, block)), NumPy's
scheme for independent parallel streams. Results depend on the fixed block
sizes, never on execution order or worker count.
"""

from concurrent.futures import ProcessPoolExecutor
from enum import IntEnum

import numpy as np


class Stream(IntEnum):
    """Named random streams: the first word of every spawn key."""

    CHAIN_TAIL = 0        # chain paths of the tail estimator, per (n, block)
    CHAIN_LAPLACE = 1     # chain paths of the Laplace estimator, per (floor A, block)
    PILOT = 2             # pilot path of a pilot-centered fspec
    MIXING_FIT = 3        # long path of the Laplace section's mixing fit
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


def replicate(block_fn, args: tuple, reps: int, block_size: int, workers: int) -> np.ndarray:
    """Run `block_fn((*args, indices))` over fixed blocks of replications
    0..reps-1 and concatenate the results in replication order.

    The blocks are range(s, min(s + block_size, reps)) whatever the worker
    count, and each block keys its generators by its own position, so the
    result is identical for any `workers`. A process pool is used only when
    workers > 1 and there is more than one block.
    """
    blocks = [
        (*args, range(start, min(start + block_size, reps)))
        for start in range(0, reps, block_size)
    ]
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block_fn, blocks))
    else:
        parts = [block_fn(b) for b in blocks]
    return np.concatenate(parts)
