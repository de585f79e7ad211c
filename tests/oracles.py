"""Independent brute-force oracles used by the test suite only.

These deliberately avoid the library's own computation paths: dependence
coefficients are recomputed by exhaustive enumeration of partitions, events,
and subset pairs on small alphabets.
"""

import functools
import itertools

import numpy as np
from sympy.utilities.iterables import multiset_partitions


@functools.lru_cache(maxsize=None)
def _partition_indicators(size: int) -> list[np.ndarray]:
    """One 0/1 block-membership matrix (n_blocks x size) per set partition."""
    out = []
    for parts in multiset_partitions(list(range(size))):
        ind = np.zeros((len(parts), size))
        for row, block in enumerate(parts):
            ind[row, block] = 1.0
        out.append(ind)
    return out


def partition_beta(joint: np.ndarray) -> float:
    """sup over partition pairs of half the summed dependence gap."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    best = 0.0
    for rows in _partition_indicators(joint.shape[0]):
        row_joint = rows @ joint
        row_mass = rows @ px
        for cols in _partition_indicators(joint.shape[1]):
            block = row_joint @ cols.T
            gap = np.abs(block - np.outer(row_mass, cols @ py)).sum()
            best = max(best, 0.5 * gap)
    return best


def event_beta(joint: np.ndarray) -> float:
    """sup over all events in the product space of the measure gap (TV form)."""
    joint = np.asarray(joint, dtype=float)
    dev = (joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))).ravel()
    n_cells = dev.size
    if n_cells > 16:
        raise ValueError("event enumeration limited to 16 cells")
    best = 0.0
    for mask in range(1 << n_cells):
        s = sum(dev[i] for i in range(n_cells) if mask >> i & 1)
        best = max(best, abs(s))
    return best


def alpha_bruteforce(joint: np.ndarray) -> float:
    """max over all rectangle events A x B of |P(A x B) - P(A) P(B)|."""
    joint = np.asarray(joint, dtype=float)
    m, ell = joint.shape
    if m > 5 or ell > 5:
        raise ValueError("brute force limited to 5x5")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    best = 0.0
    for rows in itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(m + 1)
    ):
        for cols in itertools.chain.from_iterable(
            itertools.combinations(range(ell), k) for k in range(ell + 1)
        ):
            p_ab = joint[np.ix_(rows, cols)].sum() if rows and cols else 0.0
            best = max(best, abs(p_ab - px[list(rows)].sum() * py[list(cols)].sum()))
    return best


def product_expectation_bruteforce(transition, stationary, funcs, lags) -> float:
    """E[prod_i funcs[i](X_{lags[i]})] for a stationary chain, summed over every
    one-step state path from time lags[0] to lags[-1]."""
    m, start = len(stationary), lags[0]
    span = lags[-1] - start
    if m ** (span + 1) > 100_000:
        raise ValueError("path enumeration limited to 100000 paths")
    total = 0.0
    for path in itertools.product(range(m), repeat=span + 1):
        weight = stationary[path[0]]
        for a, b in zip(path, path[1:]):
            weight *= transition[a][b]
        for f, t in zip(funcs, lags):
            weight *= f[path[t - start]]
        total += weight
    return total


def random_joint(rng: np.random.Generator, m: int, ell: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m * ell)).reshape(m, ell)


def random_transition(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=m)
