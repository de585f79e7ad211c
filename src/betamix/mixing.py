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
ALPHABET_CAP = 12     # exhaustive subset enumeration limit per alphabet


class CheckResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Joint law of two finite-valued random variables as a probability table.

    `joint[i, j] = P(X = i, Y = j)`; marginals are derived row/column sums.
    """

    joint: np.ndarray
    marginal_x: np.ndarray = field(init=False)
    marginal_y: np.ndarray = field(init=False)

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        if joint.ndim != 2:
            raise ValidationError("joint table must be a 2-d matrix")
        if not np.all((joint >= 0) & np.isfinite(joint)):
            raise ValidationError("joint table has a negative or non-finite entry")
        total = float(joint.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"joint mass is {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marginal_x", joint.sum(axis=1))
        object.__setattr__(self, "marginal_y", joint.sum(axis=0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.joint.shape

    def product_table(self) -> np.ndarray:
        """Table of the product measure P_X(i) * P_Y(j)."""
        return np.outer(self.marginal_x, self.marginal_y)

    def deviation_table(self) -> np.ndarray:
        """joint - product, the signed dependence gap per cell."""
        return self.joint - self.product_table()


@dataclass(frozen=True)
class FiniteChain:
    """Row-stochastic transition matrix with its unique stationary law."""

    transition: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        p = _transition_matrix(self.transition)
        pi = np.asarray(self.stationary, dtype=float)
        if not np.all(np.isfinite(pi)) or np.max(np.abs(pi @ p - pi)) > 1e-10:
            raise ValidationError("stationary vector is not finite or fails pi @ P = pi within 1e-10")
        # the tolerance admits the roundoff of a solved pi
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
        """Build a chain, computing pi from one linear solve.

        pi solves pi Q = 0 with the last equation replaced by sum(pi) = 1, where
        Q is the generator of the off-diagonal entries (Q[x, y] = P[x, y] for
        x != y, Q[x, x] = -sum_{y != x} P[x, y]); Q never forms 1 - P[x, x], so a
        nearly decomposable chain loses no digits. Reducible chains (non-unique
        pi, a singular system) are rejected before the solve.
        """
        p = _transition_matrix(transition)
        if not _strongly_connected(p > 0):
            raise ValidationError(
                "transition graph is not irreducible; stationary law not unique"
            )
        off = p - np.diag(np.diag(p))
        system = (off - np.diag(off.sum(axis=1))).T
        system[-1] = 1.0
        return cls(transition=p, stationary=np.linalg.solve(system, np.eye(len(p))[-1]))

    def lag_joint(self, n: int) -> FiniteJointDistribution:
        """Exact joint law of (X_0, X_n) under stationarity: pi(x) P^n(x, y)."""
        if n < 1:
            raise ValidationError("lag must be >= 1")
        pn = np.linalg.matrix_power(self.transition, n)
        return FiniteJointDistribution(self.stationary[:, None] * pn)


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


def _strongly_connected(adj: np.ndarray) -> bool:
    # k squarings of adj | I cover every path of length <= 2^k; 2^bit_length(m) > m.
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for _ in range(adj.shape[0].bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def beta_exact(j: FiniteJointDistribution) -> float:
    """Absolute-regularity coefficient of a finite joint law.

    Equals half the summed absolute dependence gap, which is the total
    variation distance between the joint law and the product of marginals;
    the finest coordinate partitions attain the supremum in the partition
    form of the coefficient.
    """
    return 0.5 * float(np.abs(j.deviation_table()).sum())


def alpha_exact(j: FiniteJointDistribution) -> float:
    """Strong-mixing coefficient by exhaustive enumeration of event pairs.

    max over A subset of the X-alphabet and B subset of the Y-alphabet of
    |P(A x B) - P(A) P(B)|. For fixed A the optimal B is the set of columns
    where the row-aggregated gap is positive (or negative), so enumerating
    the 2^m subsets of one alphabet is exhaustive over both.
    """
    m, ell = j.shape
    if m > ALPHABET_CAP or ell > ALPHABET_CAP:
        raise SizeError(
            f"alphabets ({m}, {ell}) exceed enumeration cap {ALPHABET_CAP}"
        )
    return _alpha_table(j.deviation_table())


def _alpha_table(dev: np.ndarray, cap: int = 16) -> float:
    """max_{A, B} |sum_{A x B} dev| for a signed table with zero row/col sums.

    subset_sums[mask] holds the column sums of dev over the rows in `mask`,
    built by the recursion sums[mask] = sums[mask ^ (1 << i)] + dev[i], with
    i the lowest set bit of mask. The fill runs one bit plane at a time, from
    the highest bit down: the masks whose lowest set bit is i are
    k * 2^(i+1) + 2^i, and each one's source k * 2^(i+1) is 0 or has its
    lowest set bit above i, so it is already filled. In the
    (-1, 2^(i+1), cols) view of the table the whole plane is one add of
    slot 0 into slot 2^i. Every entry gets the same single addition from the
    same source as in a loop over the masks in increasing order, so the table
    is the same to the bit; `out=` writes in place and adds no temporary
    array.

    For each row set A the best B takes the columns of one sign, so the
    maximum is max(pos, neg) of A's positive and negative column-sum parts.
    A's column sums add up to the total of A's row sums, which is zero, so
    pos = neg up to rounding: the positive part alone is taken, clipped in
    place.
    """
    if dev.shape[0] > dev.shape[1]:
        dev = dev.T
    m, cols = dev.shape
    if m > cap:
        raise SizeError(f"enumeration side {m} exceeds internal cap {cap}")
    subset_sums = np.zeros((1 << m, cols))
    for i in reversed(range(m)):
        view = subset_sums.reshape(-1, 1 << (i + 1), cols)
        np.add(view[:, 0], dev[i], out=view[:, 1 << i])
    return float(np.maximum(subset_sums, 0.0, out=subset_sums).sum(axis=1).max())


def markov_beta_lag(c: FiniteChain, n: int) -> float:
    """Lag-n absolute-regularity coefficient of a stationary finite chain.

    Computes sum_x pi(x) * TV(P^n(x, .), pi), which equals the coefficient of
    the exact joint law pi(x) P^n(x, y) of (X_0, X_n).
    """
    if n < 1:
        raise ValidationError("lag must be >= 1")
    pn = np.linalg.matrix_power(c.transition, n)
    tv_rows = 0.5 * np.abs(pn - c.stationary[None, :]).sum(axis=1)
    return float(c.stationary @ tv_rows)


def line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, R^2) of the least-squares line through (xs, ys), R^2 = 1
    for constant ys. Raises FitError when the fit fails or its slope is not finite."""
    # polyfit divides the xs by their norm: one that underflows hands LAPACK NaNs
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
    prod = j.product_table()
    lhs = abs(float((h * j.joint).sum()) - float((h * prod).sum()))
    beta = beta_exact(j)
    if np.isinf(p):
        rhs = 2.0 * float(np.abs(h).max()) * beta
    else:
        support = prod > 0
        if np.any(j.joint[~support] > 0):
            raise ValidationError(
                "joint mass on a cell with zero product mass; "
                "joint law not absolutely continuous w.r.t. the product"
            )
        g_sup = float((j.joint[support] / prod[support]).max()) if support.any() else 0.0
        h_norm = float((np.abs(h) ** p * prod).sum()) ** (1.0 / p)
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
    """Joint table of the value tuples (Z_1..Z_k) vs (Z_{k+1}..Z_n)."""
    n = tensor.ndim
    m = tensor.shape[0]
    flat = tensor.reshape(m**k, m ** (n - k))

    def group(axis_funcs, size):
        keys = {}
        index = np.empty(size, dtype=int)
        for flat_idx in range(size):
            rest, states = flat_idx, []
            for _ in axis_funcs:
                states.append(rest % m)
                rest //= m
            states.reverse()
            key = tuple(float(f[s]) for f, s in zip(axis_funcs, states))
            index[flat_idx] = keys.setdefault(key, len(keys))
        return index, len(keys)

    row_idx, n_rows = group(funcs[:k], flat.shape[0])
    col_idx, n_cols = group(funcs[k:], flat.shape[1])
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
