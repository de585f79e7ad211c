"""Independent brute-force oracles used by the test suite only.

These deliberately avoid the library's own computation paths: dependence
coefficients are recomputed by exhaustive enumeration of partitions, events,
and subset pairs on small alphabets; truncation is the per-value scalar rule.
The mean of n i.i.d. U(-1, 1) draws has an exact tail (Irwin-Hall, in
rationals) and an exact Laplace transform, the ground truth of the MC
estimators on the chain with a = 0, uniform halfwidth 1 and f = first. At
any a, the sum of a linear uniform chain's kept states is a weighted sum of
its innovations, whose Laplace transform is a product of closed forms.
"""

import functools
import itertools
import math
from fractions import Fraction

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
    if m + ell > 15:
        raise ValueError("brute force limited to 2^15 event pairs")
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


def truncate_scalar(value: float, B: float) -> tuple[float, float, float]:
    """(plus, zero, minus) of one finite value at one level B > 0, by branches
    on the sign of the excess and a `math.nextafter` shift of it."""
    if value > B:
        plus = value - B
        zero = value - plus
        if zero > B:
            plus = math.nextafter(plus, math.inf)
            zero = value - plus
        return plus, zero, 0.0
    if value < -B:
        minus = value + B
        zero = value - minus
        if zero < -B:
            minus = math.nextafter(minus, -math.inf)
            zero = value - minus
        return 0.0, zero, minus
    return 0.0, value, 0.0


def irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= x) for i.i.d. U(0, 1), exactly:
    sum_{k <= floor(x)} (-1)^k C(n, k) (x - k)^n / n!."""
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    total = sum((-1) ** k * math.comb(n, k) * (x - k) ** n for k in range(math.floor(x) + 1))
    return total / math.factorial(n)


def uniform_mean_tail(n: int, epsilon: float) -> Fraction:
    """P(|mean of n i.i.d. U(-1, 1)| >= epsilon) = 2 (1 - IH_n(n (1 + epsilon) / 2)),
    exact in the binary value of epsilon."""
    return 2 * (1 - irwin_hall_cdf(n, n * (1 + Fraction(epsilon)) / 2))


def uniform_sum_laplace(length: int, gamma: float) -> float:
    """E exp(gamma (V_1 + ... + V_length)) for i.i.d. V ~ U(-1, 1): (sinh gamma / gamma)^length."""
    return (math.sinh(gamma) / gamma) ** length if gamma else 1.0


def linear_uniform_sum_laplace(a: float, halfwidth: float, burn_in: int, n: int,
                               gamma: float) -> float:
    """E exp(gamma S) for S = x_burn_in + ... + x_{burn_in + n - 1} of the chain
    x_t = a x_{t-1} + U_t from x_0 = 0, U_t i.i.d. U(-h, h), h = halfwidth.

    S = sum_j c_j U_j over j = 1 .. hi = burn_in + n - 1, with c_j = a^(lo - j)
    (1 - a^(hi - lo + 1)) / (1 - a) and lo = max(j, burn_in), so E exp(gamma S)
    = prod_j sinh(gamma h c_j) / (gamma h c_j), summed here in logs; a factor
    whose argument underflows to 0 is 1."""
    hi = burn_in + n - 1
    log_value = 0.0
    for j in range(1, hi + 1):
        lo = max(j, burn_in)
        x = gamma * halfwidth * a ** (lo - j) * (1.0 - a ** (hi - lo + 1)) / (1.0 - a)
        if x:
            log_value += math.log(math.sinh(x) / x)
    return math.exp(log_value)


def allocating_truncated_gaussian(sigma, trunc, rng, shape):
    """The rejection sampler as one fresh draw of `shape`: the oracle of the
    in-place fill."""
    normal = trunc / sigma >= math.sqrt(math.pi / 2.0)
    if normal:
        flat = rng.standard_normal(math.prod(shape))
        flat *= sigma
        todo = np.flatnonzero((flat > trunc) | (flat < -trunc))
    else:
        flat = rng.uniform(-trunc, trunc, math.prod(shape))
        todo = np.flatnonzero(rng.random(flat.size) >= np.exp(-0.5 * (flat / sigma) ** 2))
    while todo.size:
        if normal:
            x = sigma * rng.standard_normal(todo.size)
            keep = np.abs(x) <= trunc
        else:
            x = rng.uniform(-trunc, trunc, todo.size)
            keep = rng.random(todo.size) < np.exp(-0.5 * (x / sigma) ** 2)
        flat[todo[keep]] = x[keep]
        todo = todo[~keep]
    return flat.reshape(shape)


def reference_draw(spec, rng, shape):
    """The innovations of `shape` as NumPy's own allocating draws give them."""
    if spec.innovation == "uniform":
        return rng.uniform(-spec.halfwidth, spec.halfwidth, shape)
    return allocating_truncated_gaussian(spec.sigma, spec.trunc, rng, shape)


def chunked_draw(spec, n, width, rng, rows):
    """The innovations in a chain block's draw order: the burn_in - 1 steps
    before the kept rows, then the n rows of x_burn_in onwards, each part in
    `rows`-row draws."""
    burn = spec.burn_in - 1
    sizes = [rows] * (burn // rows) + [burn % rows] + [rows] * (n // rows) + [n % rows]
    return np.concatenate([reference_draw(spec, rng, (size, width)) for size in sizes])


def chain_states(spec, eps):
    """The kept states of x_t = psi(x_{t-1}) + eps_t from x_0 = 0 over all
    rows of `eps`, each state row written into a second array."""
    total, width = eps.shape[0] + 1, eps.shape[1]
    full = np.empty((total, width))
    x = np.zeros(width)
    full[0] = x
    for t in range(1, total):
        x = spec.apply_map(x) + eps[t - 1]
        full[t] = x
    return full[spec.burn_in:]


def block_sums(f, rows):
    """sum_k f_k over the rows of `f`, as a block of replications sums them:
    in `rows`-row pieces, each piece's first row taking the running sum."""
    sums = np.zeros(f.shape[1])
    for start in range(0, len(f), rows):
        piece = f[start:start + rows]
        piece[0] += sums
        sums = piece.sum(axis=0)
    return sums


def allocating_transfer_rows(spec, cells, points):
    """Ulam's transition rows of `spec`'s chain on all `cells` equal cells of
    [-S, S], each point's CDF term a fresh array and the rows by np.diff: the
    oracle of transfer_chain's in-place build."""
    span = spec.state_bound()
    edges = np.linspace(-span, span, cells + 1)
    x = np.linspace(-span, span, 2 * cells * points + 1)[1::2]
    below = np.zeros((cells, cells - 1))
    for point in x.reshape(cells, points).T:
        t = edges[1:-1] - spec.apply_map(point)[:, None]
        if spec.innovation == "uniform":
            below += np.clip(t / (2.0 * spec.halfwidth) + 0.5, 0.0, 1.0)
        else:
            scale = spec.sigma * math.sqrt(2.0)
            erf = np.frompyfunc(math.erf, 1, 1)(np.clip(t, -spec.trunc, spec.trunc) / scale)
            below += 0.5 + 0.5 * erf.astype(float) / math.erf(spec.trunc / scale)
    return np.diff(below / points, prepend=0.0, append=1.0)


def allocating_stationary(p):
    """pi of the transition matrix p, solving the generator system built out of
    place: the oracle of FiniteChain's in-place build."""
    off = p - np.diag(np.diag(p))
    system = (off - np.diag(off.sum(axis=1))).T
    system[-1] = 1.0
    return np.linalg.solve(system, np.eye(len(p))[-1])


def allocating_beta_lag(p, pi, n):
    """sum_x pi(x) TV(P^n(x, .), pi), |P^n - pi| a fresh array: the oracle of
    markov_beta_lag."""
    return float(pi @ (0.5 * np.abs(np.linalg.matrix_power(p, n) - pi[None, :]).sum(axis=1)))


def warshall_closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix, by Warshall's
    algorithm: the oracle of _reachable, whose search from i is row i."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach
