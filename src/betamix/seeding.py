"""Deterministic seed derivation and the replication driver for parallel
Monte Carlo replications.

Replication r of a run with master seed s always uses ``derive_seed(s, r)``,
so results do not depend on execution order, chunking, or worker count.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1
# Fixed salt separating auxiliary streams (reference samples, noise) from the
# main replication stream.
AUX_STREAM_SALT = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int, salt: int = 0) -> int:
    """Seed for replication `index` of a run seeded with `master`."""
    if master < 0 or index < 0:
        raise ValueError("seeds and replication indices must be non-negative")
    return (master ^ index ^ salt) & _MASK64


def rng_for(master: int, index: int = 0, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, index, salt))


def replicate(block_fn, args: tuple, reps: int, block_size: int, workers: int) -> np.ndarray:
    """Run `block_fn((*args, indices))` over fixed blocks of replications
    0..reps-1 and concatenate the results in replication order.

    The blocks are range(s, min(s + block_size, reps)) whatever the worker
    count, and each block seeds its replications from their indices, so the
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
