"""Exact dependence coefficients on finite probability models.

Everything in this module is exact up to double-precision roundoff: mixing
coefficients of finite joint distributions, lag coefficients of finite-state
Markov chains (stationary law from one linear solve), and both sides of the
Davydov-type and product (Ibragimov) inequalities. These serve as
ground-truth oracles for the Monte Carlo layers. Tables with a negative or
non-finite entry are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FitError, SizeError, ValidationError

MASS_TOL = 1e-12      # distribution validation
INEQ_TOL = 1e-10      # inequality verdicts
TABLE_SIDE_CAP = 16   # longest shorter side of a table _alpha_table enumerates
BLOCK_FLOATS = 1 << 16  # subset sums held at once by _alpha_table (512 KiB)


class CheckResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Joint law of two finite-valued random variables as a probability table.

    `joint[i, j] = P(X = i, Y = j)`; the marginals are its row and column
    sums, `product` the product measure's table P_X(i) P_Y(j), and
    `deviation` = joint - product, the signed dependence gap per cell.
    """

    joint: np.ndarray
    marginal_x: np.ndarray = field(init=False)
    marginal_y: np.ndarray = field(init=False)
    product: np.ndarray = field(init=False)
    deviation: np.ndarray = field(init=False)

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        if joint.ndim != 2:
            raise ValidationError("joint table must be a 2-d matrix")
        if not np.all((joint >= 0) & np.isfinite(joint)):
            raise ValidationError("joint table has a negative or non-finite entry")
        total = float(joint.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"joint mass is {total!r}, not 1 within {MASS_TOL}")
        self.__dict__.update(FiniteJointDistribution._derive(joint).__dict__)

    @classmethod
    def _derive(cls, joint: np.ndarray) -> "FiniteJointDistribution":
        """The law of `joint`, a float table of a law already checked (a
        validated chain's pi P^n), built without running the checks again."""
        law, marginal_x, marginal_y = object.__new__(cls), joint.sum(axis=1), joint.sum(axis=0)
        product = np.outer(marginal_x, marginal_y)
        law.__dict__.update(joint=joint, marginal_x=marginal_x, marginal_y=marginal_y,
                            product=product, deviation=joint - product)
        return law

    @property
    def shape(self) -> tuple[int, int]:
        return self.joint.shape


@dataclass(frozen=True)
class FiniteChain:
    """Row-stochastic transition matrix with its unique stationary law.

    `stationary` is derived: pi solves pi Q = 0 with the last equation
    replaced by sum(pi) = 1, where Q is the generator of the off-diagonal
    entries (Q[x, y] = P[x, y] for x != y, Q[x, x] = -sum_{y != x} P[x, y]);
    Q never forms 1 - P[x, x], so a nearly decomposable chain loses no
    digits. Reducible chains (non-unique pi, a singular system) are rejected
    before the solve.
    """

    transition: np.ndarray
    stationary: np.ndarray = field(init=False)

    def __post_init__(self):
        p = _transition_matrix(self.transition)
        if not _reachable(p > 0).all():
            raise ValidationError(
                "transition graph is not irreducible; stationary law not unique"
            )
        system = p.copy()  # Q, built in place, transposed
        np.fill_diagonal(system, 0.0)
        np.fill_diagonal(system, -system.sum(axis=1))
        system = system.T
        system[-1] = 1.0
        pi = np.linalg.solve(system, np.eye(len(p))[-1])
        if not np.all(np.isfinite(pi)) or np.max(np.abs(pi @ p - pi)) > 1e-10:
            raise ValidationError("stationary vector is not finite or fails pi @ P = pi within 1e-10")
        # the tolerance admits the roundoff of the solve
        if np.min(pi) < -1e-10 or abs(pi.sum() - 1.0) > 1e-10:
            raise ValidationError(
                "stationary vector is not a probability law: an entry below -1e-10 "
                "or a sum off 1 by more than 1e-10"
            )
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def from_transition(cls, transition: np.ndarray) -> "FiniteChain":
        """The chain of `transition`, the same as cls(transition)."""
        return cls(transition)

    def lag_joint(self, n: int) -> FiniteJointDistribution:
        """Exact joint law of (X_0, X_n) under stationarity: pi(x) P^n(x, y),
        of the chain's checked P and pi, so it is not checked again."""
        if n < 1:
            raise ValidationError("lag must be >= 1")
        pn = np.linalg.matrix_power(self.transition, n)
        return FiniteJointDistribution._derive(self.stationary[:, None] * pn)


@dataclass(frozen=True)
class MixingDecayFit:
    """Exponential-decay fit beta(n) ~ kappa0 * exp(-kappa1 * n)."""

    kappa0: float
    kappa1: float
    r_squared: float


def _transition_matrix(transition: np.ndarray) -> np.ndarray:
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValidationError("transition matrix must be square")
    if not np.all((p >= 0) & np.isfinite(p)):
        raise ValidationError("transition matrix has a negative or non-finite entry")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > MASS_TOL):
        raise ValidationError("a transition row does not sum to 1")
    return p


def _reachable(adj: np.ndarray) -> np.ndarray:
    """reach[i, j]: the graph of `adj` has a path of 0 or more steps from i to j."""
    # k squarings of adj | I cover every path of length <= 2^k; 2^bit_length(m) > m.
    # The squares are float 0/1 matrices clamped at 1: BLAS sums at most m
    # ones exactly, and it is faster than NumPy's boolean matmul.
    reach = (adj | np.eye(adj.shape[0], dtype=bool)).astype(float)
    for _ in range(adj.shape[0].bit_length()):
        np.minimum(reach @ reach, 1.0, out=reach)
    return reach > 0


def beta_exact(j: FiniteJointDistribution) -> float:
    """Absolute-regularity coefficient of a finite joint law.

    Equals half the summed absolute dependence gap, which is the total
    variation distance between the joint law and the product of marginals;
    the finest coordinate partitions attain the supremum in the partition
    form of the coefficient.
    """
    return 0.5 * float(np.abs(j.deviation).sum())


def alpha_exact(j: FiniteJointDistribution) -> float:
    """Strong-mixing coefficient by exhaustive enumeration of event pairs.

    max over A subset of the X-alphabet and B subset of the Y-alphabet of
    |P(A x B) - P(A) P(B)|. For fixed A the optimal B is the set of columns
    where the row-aggregated gap is positive (or negative), so enumerating
    the 2^m subsets of one alphabet, the shorter, is exhaustive over both.
    The shorter has at most TABLE_SIDE_CAP values (a SizeError above).
    """
    return _alpha_table(j.deviation)


def _alpha_table(dev: np.ndarray) -> float:
    """max_{A, B} |sum_{A x B} dev| for a signed table with zero row/col sums.

    The table is turned so that its rows are the shorter side, and the row
    sets A are enumerated through their column sums, in blocks of at most
    BLOCK_FLOATS floats (512 KiB): a block holds the 2^low row sets that share
    one set of high rows, low = min(m, floor(log2(BLOCK_FLOATS / cols))).
    `_double_subset_sums` first grows the small table of the high rows' sums
    from a zero row; each of those sums then seeds one block, which it grows
    over the low rows. Rows wider than BLOCK_FLOATS make one-row blocks.

    Every sum adds its rows to +0.0 in descending index order, the high rows
    before the low ones, which is the association of the per-mask recursion
    sums[mask] = sums[mask without its lowest set bit] + dev[lowest set bit].
    Each positive part is summed over one contiguous row of `cols` floats, as
    in a table of all 2^m row sets, and the maximum does not depend on the
    order of the blocks, so the result is the same to the bit; only where a
    row set's sums sit in memory changes.

    For each row set A the best B takes the columns of one sign, so the
    maximum is max(pos, neg) of A's positive and negative column-sum parts.
    A's column sums add up to the total of A's row sums, which is zero, so
    pos = neg up to rounding: the positive part alone is taken, clipped in
    place.
    """
    if dev.shape[0] > dev.shape[1]:
        dev = dev.T
    m, cols = dev.shape
    if m > TABLE_SIDE_CAP:
        raise SizeError(f"enumeration side {m} exceeds internal cap {TABLE_SIDE_CAP}")
    low = min(m, max((BLOCK_FLOATS // max(cols, 1)).bit_length() - 1, 0))
    bases = _double_subset_sums(np.zeros((1 << (m - low), cols)), dev[low:])
    block = np.empty((1 << low, cols))
    best = 0.0
    for base in bases:
        block[0] = base
        _double_subset_sums(block, dev[:low])
        best = max(best, float(np.maximum(block, 0.0, out=block).sum(axis=1).max()))
    return best


def _double_subset_sums(out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill out[1:] with out[0] plus each subset of `rows`, in place.

    The rows are taken in descending index order, each one doubling the
    filled part: out[2^k : 2^(k+1)] = out[:2^k] + row. So out[j] adds, to
    out[0], the rows of the set bits of j, bit 0 being the last row, in
    descending index order.
    """
    for k, row in enumerate(rows[::-1]):
        np.add(out[:1 << k], row, out=out[1 << k:2 << k])
    return out


def markov_beta_lag(c: FiniteChain, n: int) -> float:
    """Lag-n absolute-regularity coefficient of a stationary finite chain.

    Computes sum_x pi(x) * TV(P^n(x, .), pi), which equals the coefficient of
    the exact joint law pi(x) P^n(x, y) of (X_0, X_n).
    """
    if n < 1:
        raise ValidationError("lag must be >= 1")
    # matrix_power(P, 1) is P itself, which the in-place |P^n - pi| must not write
    pn = c.transition.copy() if n == 1 else np.linalg.matrix_power(c.transition, n)
    pn -= c.stationary
    tv_rows = 0.5 * np.abs(pn, out=pn).sum(axis=1)
    return float(c.stationary @ tv_rows)


def line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, R^2) of the least-squares line through (xs, ys), R^2 = 1
    for constant ys. Raises FitError when the fit fails or its slope is not finite."""
    # polyfit divides the xs by their norm: one that underflows hands LAPACK NaNs
    with np.errstate(over="ignore"):  # an overflowing sum is refused, not warned about
        if not 0.0 < float((xs * xs).sum()) < np.inf:
            raise FitError("cannot fit a line: the sum of squares of the xs is 0 or not finite")
    try:
        slope, intercept = np.polyfit(xs, ys, 1)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"least-squares line fit failed: {exc}") from exc
    if not np.isfinite(slope):
        raise FitError(f"fitted slope {slope} is not finite")
    ss_res = float(((ys - (intercept + slope * xs)) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return slope, intercept, 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot


def fit_geometric_decay(lags: Sequence[int], betas: Sequence[float]) -> MixingDecayFit:
    """Least-squares fit of log beta(n) against n.

    Lags with beta = 0 are dropped; at least 3 positive values must remain.
    """
    lags_arr = np.asarray(lags, dtype=float)
    betas_arr = np.asarray(betas, dtype=float)
    if lags_arr.shape != betas_arr.shape:
        raise ValidationError("lags and betas must have equal length")
    if np.any(betas_arr < 0) or np.any(betas_arr > 1 + MASS_TOL):
        raise ValidationError("beta values must lie in [0, 1]")
    keep = betas_arr > 0
    lags_arr, betas_arr = lags_arr[keep], betas_arr[keep]
    if lags_arr.size < 3:
        raise FitError(f"need >= 3 positive beta values, have {lags_arr.size}")
    slope, intercept, r2 = line_fit(lags_arr, np.log(betas_arr))
    kappa1 = -float(slope)
    if kappa1 < -1e-9:
        raise FitError(f"fitted decay rate is negative ({kappa1:.3e}); not a decay")
    kappa1 = max(kappa1, 0.0)
    return MixingDecayFit(kappa0=float(np.exp(intercept)), kappa1=kappa1, r_squared=r2)


def _holder_conjugate(p: float) -> float:
    if p < 1:
        raise ValidationError("Hoelder exponent p must be >= 1")
    if np.isinf(p):
        return 1.0
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def davydov_check(
    j: FiniteJointDistribution, h: np.ndarray, p: float
) -> CheckResult:
    """Verify the integration gap bound |E_joint h - E_prod h| <= rhs.

    For finite p:  rhs = 2^(1/q) (1 + ||g||_inf)^(1/p) ||h||_p beta^(1/q)
    with g the joint/product density ratio and q the conjugate of p.
    For p = inf the bounded form rhs = 2 ||h||_inf beta applies; the lhs never
    depends on p.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != j.shape:
        raise ValidationError(f"h table shape {h.shape} != joint shape {j.shape}")
    q = _holder_conjugate(p)
    lhs = abs(float((h * j.joint).sum()) - float((h * j.product).sum()))
    beta = beta_exact(j)
    if np.isinf(p):
        rhs = 2.0 * float(np.abs(h).max()) * beta
    else:
        support = j.product > 0
        if np.any(j.joint[~support] > 0):
            raise ValidationError(
                "joint mass on a cell with zero product mass; "
                "joint law not absolutely continuous w.r.t. the product"
            )
        g_sup = float((j.joint[support] / j.product[support]).max()) if support.any() else 0.0
        h_norm = float((np.abs(h) ** p * j.product).sum()) ** (1.0 / p)
        beta_pow = 1.0 if np.isinf(q) else beta ** (1.0 / q)
        two_pow = 1.0 if np.isinf(q) else 2.0 ** (1.0 / q)
        rhs = two_pow * (1.0 + g_sup) ** (1.0 / p) * h_norm * beta_pow
    return CheckResult(lhs, rhs, lhs <= rhs + INEQ_TOL)


def _lag_path_tensor(c: FiniteChain, lags: Sequence[int]) -> np.ndarray:
    """Exact joint probabilities of (X_{lags[0]}, ..., X_{lags[-1]}).

    Returns a tensor of shape (m,) * len(lags).
    """
    m = c.n_states
    if m ** len(lags) > 200_000:
        raise SizeError("state-path enumeration too large")
    tensor = c.stationary.copy()
    for prev, nxt in zip(lags[:-1], lags[1:]):
        step = np.linalg.matrix_power(c.transition, nxt - prev)
        tensor = tensor[..., None] * step
    return tensor


def _grouped_joint(
    tensor: np.ndarray, funcs: Sequence[np.ndarray], k: int
) -> np.ndarray:
    """Joint table of the value tuples (Z_1..Z_k) vs (Z_{k+1}..Z_n); each
    side's tuples are numbered in order of first appearance along its state
    paths, in the row-major order of the tensor's axes."""
    m = tensor.shape[0]
    flat = tensor.reshape(m**k, -1)

    def group(axis_funcs):
        paths = np.indices((m,) * len(axis_funcs)).reshape(len(axis_funcs), -1)
        keys = {}
        values = zip(*(f[states].tolist() for f, states in zip(axis_funcs, paths)))
        return np.array([keys.setdefault(key, len(keys)) for key in values]), len(keys)

    row_idx, n_rows = group(funcs[:k])
    col_idx, n_cols = group(funcs[k:])
    table = np.zeros((n_rows, n_cols))
    np.add.at(table, (row_idx[:, None], col_idx[None, :]), flat)
    return table


def ibragimov_check(
    chain: FiniteChain, funcs: Sequence[np.ndarray], lags: Sequence[int]
) -> CheckResult:
    """Verify |E[prod Z_i] - prod E[Z_i]| <= (n-1) alpha prod ||Z_i||_inf.

    Z_i = funcs[i](X_{lags[i]}) for non-negative bounded funcs on the state
    space; alpha is the largest exact strong-mixing coefficient between the
    value blocks (Z_1..Z_k) and (Z_{k+1}..Z_n) over split points k.
    """
    funcs = [np.asarray(f, dtype=float) for f in funcs]
    lags = [int(t) for t in lags]
    n = len(funcs)
    if n != len(lags) or n < 1:
        raise ValidationError("need equally many funcs and lags, at least one")
    if any(b <= a for a, b in zip(lags[:-1], lags[1:])):
        raise ValidationError("lags must be strictly increasing")
    for f in funcs:
        if f.shape != (chain.n_states,):
            raise ValidationError("each func must assign a value to every state")
        if np.any(f < 0):
            raise ValidationError("funcs must be non-negative")

    pi = chain.stationary
    tensor = _lag_path_tensor(chain, lags)
    joint_expectation = tensor
    for f in reversed(funcs):  # contract the last axis, Z_n first
        joint_expectation = joint_expectation @ f
    marginal_product = float(np.prod([float(pi @ f) for f in funcs]))
    lhs = abs(float(joint_expectation) - marginal_product)

    alpha = 0.0
    for k in range(1, n):
        table = _grouped_joint(tensor, funcs, k)
        dev = table - np.outer(table.sum(axis=1), table.sum(axis=0))
        alpha = max(alpha, _alpha_table(dev))
    support = pi > 0
    sup_product = float(np.prod([f[support].max() for f in funcs]))
    rhs = (n - 1) * alpha * sup_product
    return CheckResult(lhs, rhs, lhs <= rhs + INEQ_TOL)
