"""Exponential bound formulas and their Monte Carlo counterparts.

The bound evaluators reproduce three closed-form expressions exactly as
displayed: a Laplace-transform bound for centered bounded aggregates over a
geometrically mixing chain, the derived tail bound with the
n / (log n log log n) rate, and its extension to unbounded aggregates via a
truncation decomposition and an infimum over the truncation level. The MC
side estimates the matching tail probabilities and Laplace transforms on
simulated chains, and calibration helpers pick the bounds' free constants on
a log grid so the functional form can be falsified against the estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FitError, MomentError, ValidationError
from .mixing import MixingDecayFit, line_fit
from .processes import ContractiveChainSpec, estimate_chain_mixing, simulate_contractive_chain
from .processes import _simulate_chain_columns
from .seeding import Stream, keyed_rng, replicate

REP_BLOCK = 1000          # replications per keyed generator; results depend
                          # on it, never on the worker count
SUM_ROWS = 64             # path rows per evaluation of f in _centered_sums
B_GRID_POINTS = 240
B_GRID_LO = 1.0 + 1e-3
B_GRID_HI = 1e6
GOLDEN_REL_TOL = 1e-6


class TailEstimate(NamedTuple):
    epsilon: float
    n: int
    p_hat: float
    ci_half_width: float


class LaplaceEstimate(NamedTuple):
    value: float
    std_error: float

    @property
    def overflowed(self) -> bool:
        return self.value == math.inf


class LaplaceSection(NamedTuple):
    mixing_fit: MixingDecayFit
    gamma: float
    C: float
    estimates: list[LaplaceEstimate]
    bounds: list[float]


class TruncationTriple(NamedTuple):
    plus: float
    zero: float
    minus: float


class RateFit(NamedTuple):
    a1_hat: float
    a2_hat: float
    r_squared: float


@dataclass(frozen=True)
class MomentInputs:
    """Moments of the aggregate under the independent-copy product law.

    m_pr is E[f^(p r)]^(1/(p r)) (already rooted), m_k is E[f^k] (raw).
    """

    m_pr: float
    m_k: float

    def __post_init__(self):
        if not (math.isfinite(self.m_pr) and math.isfinite(self.m_k)):
            raise MomentError("moments must be finite")
        if self.m_pr <= 0 or self.m_k <= 0:
            raise MomentError("moments must be positive")


def laplace_gamma_cap(kappa1: float, A: float) -> float:
    """Largest gamma * B the Laplace bound admits at interval length A:
    min((1 and kappa1)/2, kappa1/(4 log A))."""
    return min(min(1.0, kappa1) / 2.0, kappa1 / (4.0 * math.log(A)))


def _require_above(floor: float, **constants: float) -> None:
    """ValidationError naming the first constant that is not above `floor`;
    `not value > floor` also rejects NaN."""
    for name, value in constants.items():
        if not value > floor:
            raise ValidationError(f"{name} must exceed {floor:g}, got {value!r}")


def rate_argument(n, epsilon: float, B: float):
    """x_n = eps n / (B log n log log n) in Python floats, for n >= 3 (so that
    log log n > 0), B > 0 and eps >= 0, else a ValidationError (NaN fails
    each); a sequence of n gives the array of its x_n."""
    _require_above(0.0, B=B)
    if not epsilon >= 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon!r}")
    if np.ndim(n):
        return np.array([rate_argument(m, epsilon, B) for m in n])
    if not n >= 3:
        raise ValidationError(f"n must be >= 3 so log log n > 0, got {n!r}")
    return epsilon * n / (B * math.log(n) * math.log(math.log(n)))


def laplace_bound_terms(
    *, kappa0: float, kappa1: float, C: float, gamma: float, B: float, A: float
) -> tuple[float, float]:
    """Both summands of the Laplace-transform bound, preconditions enforced."""
    _require_above(0.0, kappa0=kappa0, kappa1=kappa1, C=C, B=B, A=A)
    if not A >= max(14.0, 2.0 * kappa1):
        raise DomainError(f"A = {A} violates A >= max(14, 2*kappa1) = {max(14.0, 2.0 * kappa1)}")
    log_a = math.log(A)
    gamma_cap = laplace_gamma_cap(kappa1, A)
    if not 0.0 < gamma * B <= gamma_cap:
        raise DomainError(
            f"gamma*B = {gamma * B} violates 0 < gamma*B <= "
            f"min((1 and kappa1)/2, kappa1/(4 log A)) = {gamma_cap}"
        )
    term1 = 3.0 * kappa0 * math.exp(-kappa1 * A / (4.0 * log_a))
    term2 = math.exp(C * gamma**2 * B**2 * A * log_a + gamma * B * A / log_a)
    return term1, term2


def laplace_bound(*, kappa0: float, kappa1: float, C: float, gamma: float, B: float,
                  A: float) -> float:
    """3 k0 exp(-k1 A / (4 log A)) + exp(C g^2 B^2 A log A + g B A / log A)."""
    term1, term2 = laplace_bound_terms(kappa0=kappa0, kappa1=kappa1, C=C, gamma=gamma, B=B, A=A)
    return term1 + term2


def corollary_bound(*, a1: float, a2: float, B: float, epsilon: float, n: int) -> float:
    """a1 exp(-a2 eps n / (B log n log log n)), for eps >= 0 and n >= 3."""
    _require_above(0.0, a1=a1, a2=a2)
    return a1 * math.exp(-a2 * rate_argument(n, epsilon, B))


def truncate(value, B) -> TruncationTriple:
    """Split value into upper excess + clamped core + lower excess, entrywise.

    plus = value - min(value, B) >= 0, zero = clamp(value, -B, B),
    minus = value - max(value, -B) <= 0, each to one rounding of the exact
    decomposition, arranged so plus + zero + minus reconstructs value
    bit-for-bit: value - fl(value -+ B) is always exactly representable, and
    a one-ulp shift of the excess keeps the core inside [-B, B].

    value and B broadcast against each other, and each part has their
    broadcast shape; two scalars give a triple of floats.
    """
    value, B = np.asarray(value, dtype=float), np.asarray(B, dtype=float)
    if not np.all(B > 0):
        raise DomainError("truncation level B must be positive")
    if not np.all(np.isfinite(value)):
        raise DomainError("value must be finite")
    shape = np.broadcast_shapes(value.shape, B.shape)
    # value -+ B is formed only where |value| > B, so it never overflows
    plus = np.subtract(value, B, out=np.zeros(shape), where=value > B)
    minus = np.add(value, B, out=np.zeros(shape), where=value < -B)
    plus = np.where(value - plus > B, np.nextafter(plus, np.inf), plus)
    minus = np.where(value - minus < -B, np.nextafter(minus, -np.inf), minus)
    zero = value - plus - minus
    if shape == ():
        return TruncationTriple(float(plus), float(zero), float(minus))
    return TruncationTriple(plus, zero, minus)


def unbounded_bound_terms(
    *, a1: float, a2: float, epsilon: float, n: int, p: float, u: float, k: float,
    moments: MomentInputs, B: float,
) -> tuple[float, float, float]:
    """The three summands of the unbounded-aggregate tail bound at level B,
    with Hoelder exponents p and u and moment order k."""
    _require_above(0.0, a1=a1, a2=a2, epsilon=epsilon)
    _require_above(1.0, p=p, u=u, k=k)
    t1 = a1 / epsilon * math.exp(-a2 * rate_argument(n, epsilon, B))
    t2 = 4.0 / (epsilon * (k - 1.0)) * B ** (-(k - 1.0)) * moments.m_k
    t3 = a1 / (n * epsilon) * moments.m_pr * B ** (-k / (p * u)) * moments.m_k ** (1.0 / (p * u))
    return t1, t2, t3


def unbounded_bound(
    *, a1: float, a2: float, epsilon: float, n: int, p: float, u: float, k: float,
    moments: MomentInputs, grid_points: int = B_GRID_POINTS,
) -> tuple[float, float]:
    """Minimize the three-term expression over the truncation level B > 1.

    Scans a log-uniform grid on [1 + 1e-3, 1e6], then refines the best point
    with golden-section search to 1e-6 relative tolerance. Returns
    (minimal value, minimizing B).
    """

    def objective(b: float) -> float:
        return sum(unbounded_bound_terms(a1=a1, a2=a2, epsilon=epsilon, n=n, p=p, u=u, k=k,
                                         moments=moments, B=b))

    grid = np.geomspace(B_GRID_LO, B_GRID_HI, grid_points)
    values = np.array([objective(b) for b in grid])
    if not np.any(np.isfinite(values)):
        raise MomentError("bound is infinite on the whole grid; moments too heavy")
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]
    b_star, v_star = _golden_section_log(objective, lo, hi, GOLDEN_REL_TOL)
    if values[best] < v_star:
        return float(values[best]), float(grid[best])
    return float(v_star), float(b_star)


def _golden_section_log(func, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    """Golden-section minimization in log space; rel_tol is relative in B."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    s_lo, s_hi = math.log(lo), math.log(hi)
    x1 = s_hi - inv_phi * (s_hi - s_lo)
    x2 = s_lo + inv_phi * (s_hi - s_lo)
    f1, f2 = func(math.exp(x1)), func(math.exp(x2))
    while s_hi - s_lo > rel_tol:
        if f1 <= f2:
            s_hi, x2, f2 = x2, x1, f1
            x1 = s_hi - inv_phi * (s_hi - s_lo)
            f1 = func(math.exp(x1))
        else:
            s_lo, x1, f1 = x1, x2, f2
            x2 = s_lo + inv_phi * (s_hi - s_lo)
            f2 = func(math.exp(x2))
    s_best = x1 if f1 <= f2 else x2
    return math.exp(s_best), min(f1, f2)


# ---------------------------------------------------------------------------
# Named aggregating functions f(x, y). All are bounded with a declared bound;
# the odd-in-x ones are exactly centered (the supported chains have symmetric
# stationary laws), the rest are centered by a pilot estimate of E f(X_0, y).
# ---------------------------------------------------------------------------

_F_FUNCS = {
    "zero": lambda x, y: np.zeros(np.broadcast(x, y).shape),
    "first": lambda x, y: x * np.ones_like(y),
    "odd-clip": lambda x, y: np.clip(x, -1.0, 1.0) * np.ones_like(y),
    "odd-clip-damped": lambda x, y: np.clip(x, -1.0, 1.0) / (1.0 + y**2),
    "sine-product": lambda x, y: np.sin(x * y),
    "ball-indicator": lambda x, y: (np.abs(x - y) <= 0.5).astype(float),
}
FSPEC_NAMES = tuple(_F_FUNCS)
PILOT_BINS = 512
PILOT_DRAWS = 10**6


@dataclass(frozen=True)
class FSpec:
    """A named bounded aggregating function with its centering data.

    `center_bins is None` means the centering E f(X_0, y) is exactly zero;
    otherwise it is interpolated from a pilot estimate on a bin grid.
    """

    name: str
    bound: float
    center_bins: Optional[np.ndarray] = None
    center_values: Optional[np.ndarray] = None
    center_se: float = 0.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _F_FUNCS[self.name](x, y)

    def center(self, y: np.ndarray) -> np.ndarray:
        if self.center_bins is None:
            return np.zeros_like(np.asarray(y, dtype=float))
        return np.interp(y, self.center_bins, self.center_values)


def make_fspec(
    name: str,
    process: ContractiveChainSpec,
    seed: int = 0,
    pilot_draws: int = PILOT_DRAWS,
) -> FSpec:
    """Resolve a named aggregating function against a chain spec."""
    if name not in FSPEC_NAMES:
        raise ConfigError(
            f"field 'fspec': unsupported value {name!r}; choose from {FSPEC_NAMES}"
        )
    bound = process.state_bound() if name == "first" else 1.0
    if name != "ball-indicator":
        return FSpec(name=name, bound=bound)
    span = process.state_bound()
    bins = np.linspace(-span, span, PILOT_BINS)
    draws = np.sort(simulate_contractive_chain(process, pilot_draws, keyed_rng(seed, Stream.PILOT)))
    # ball-indicator: count the draws x with y - 1/2 <= x <= y + 1/2
    upper = np.searchsorted(draws, bins + 0.5, "right")
    values = (upper - np.searchsorted(draws, bins - 0.5, "left")) / pilot_draws
    se = float(np.sqrt((values * (1.0 - values)).max() / pilot_draws))
    return FSpec(name=name, bound=bound, center_bins=bins, center_values=values, center_se=se)


def _centered_sums(args) -> np.ndarray:
    """sum_{k=1..n} f(X_k, X_t) - n E f(X_0, x)|_{x=X_t} per replication of
    one block, all its paths drawn from the block's generator of `stream`.

    f is evaluated on SUM_ROWS rows of the paths at a time and the chunks are
    added in row order, the order of a whole-array axis-0 sum: the running
    sums go into a chunk's first row in place (fl(s + r0) = fl(r0 + s)), so
    the block holds its (n, width) kept rows and the chunk f returns. A single
    column is summed whole: NumPy sums a lone column pairwise.
    """
    fspec, process, seed, stream, n, t, indices = args
    rng = keyed_rng(seed, stream, n, indices.start // REP_BLOCK)
    paths = _simulate_chain_columns(process, n, indices, rng)
    x_t = paths[t - 1]
    rows = SUM_ROWS if paths.shape[1] > 1 else n
    sums = fspec(paths[:rows], x_t[None, :]).sum(axis=0)
    for start in range(rows, n, rows):
        chunk = fspec(paths[start:start + rows], x_t[None, :])
        chunk[0] += sums
        sums = chunk.sum(axis=0)
    return sums - n * fspec.center(x_t)


def tail_deviations(
    fspec: FSpec,
    process: ContractiveChainSpec,
    points: Sequence[tuple[int, int]],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[np.ndarray]:
    """|n^-1 sum_k f(X_k, X_t) - E f(X_0, x)|_{x=X_t}| per replication, one
    array per (n, t) point of `points`, in their order.

    All the points run through one `replicate` call, so the result is
    identical for any worker count and any order of the points.
    """
    sums = replicate(_centered_sums, (fspec, process, seed, Stream.CHAIN_TAIL), points, reps,
                     REP_BLOCK, workers)
    return [np.abs(s / n) for s, (n, _) in zip(sums, points)]


def _tail_from_deviations(devs: np.ndarray, epsilon: float, n: int) -> TailEstimate:
    p_hat = float(np.mean(devs >= epsilon))
    ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / devs.size)
    return TailEstimate(epsilon=epsilon, n=n, p_hat=p_hat, ci_half_width=ci)


def empirical_tail_grid(
    fspec: FSpec,
    process: ContractiveChainSpec,
    points: Sequence[tuple[int, int]],
    epsilons: Sequence[float],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[list[TailEstimate]]:
    """Tail estimates over an epsilon grid at every (n, t) point: one list per
    epsilon, in its order, over the points in theirs. All the epsilons share
    one set of replications per point."""
    if reps < 100:
        raise ValidationError("reps must be >= 100")
    devs = tail_deviations(fspec, process, points, reps, seed, workers)
    return [[_tail_from_deviations(d, float(e), n) for d, (n, _) in zip(devs, points)]
            for e in epsilons]


def empirical_laplace(
    fspec: FSpec,
    process: ContractiveChainSpec,
    gamma: float,
    points: Sequence[tuple[float, int]],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[LaplaceEstimate]:
    """MC mean of exp(gamma * sum_{k=1..floor(A)} f(X_k, X_t)), centered, at
    every (A, t) point of `points`, in their order.

    The interval integral is realized as the discrete sum over k = 1..floor(A).
    All the points run through one `replicate` call, so the result is
    identical for any worker count and any order of the points. Overflow is
    reported as an infinite value (`overflowed`), never an exception.
    """
    if gamma < 0:
        raise ValidationError("gamma must be >= 0")
    if reps < 100:
        raise ValidationError("reps must be >= 100")
    lengths = [(math.floor(a), t) for a, t in points]
    sums = replicate(_centered_sums, (fspec, process, seed, Stream.CHAIN_LAPLACE), lengths, reps,
                     REP_BLOCK, workers)
    with np.errstate(over="ignore"):
        values = [np.exp(gamma * s) for s in sums]
    return [LaplaceEstimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(reps)))
            if np.all(np.isfinite(v)) else LaplaceEstimate(math.inf, math.inf)
            for v in values]


def rate_fit(tails: Sequence[TailEstimate], B: float, epsilon: float) -> RateFit:
    """Least-squares fit of -log p_hat against the rate argument x_n.

    Tail points with p_hat in {0, 1} carry no log information and are
    dropped; at least 4 points must remain.
    """
    usable = [te for te in tails if 0.0 < te.p_hat < 1.0]
    if len(usable) < 4:
        raise FitError(f"need >= 4 tail points with 0 < p_hat < 1, have {len(usable)}")
    xs = rate_argument([te.n for te in usable], epsilon, B)
    slope, intercept, r2 = line_fit(xs, -np.log([te.p_hat for te in usable]))
    return RateFit(a1_hat=float(np.exp(-intercept)), a2_hat=float(slope), r_squared=r2)


_LOG_GRID = 10.0 ** (np.arange(-64, 129) / 8.0)


def calibrate_corollary(
    tails: Sequence[TailEstimate], B: float, epsilon: float
) -> tuple[float, RateFit]:
    """Fit a2 from the tails, then pick the smallest log-grid a1 dominating
    every p_hat + CI. Returns (a1, fit); the bound's a2 is fit.a2_hat."""
    fit = rate_fit(tails, B, epsilon)
    if fit.a2_hat <= 0:
        raise FitError("fitted rate slope is not positive; no decay to calibrate")
    required = max(
        (te.p_hat + te.ci_half_width) * math.exp(fit.a2_hat * rate_argument(te.n, epsilon, B))
        for te in tails
    )
    eligible = _LOG_GRID[_LOG_GRID >= required]
    if eligible.size == 0:
        raise FitError("required a1 exceeds the calibration grid")
    return float(eligible[0]), fit


def calibrate_laplace_constant(
    observed: Sequence[float],
    kappa0: float,
    kappa1: float,
    gamma: float,
    B: float,
    A: float,
) -> float:
    """Smallest log-grid C whose Laplace bound dominates all observed values
    at interval length A (the smallest admissible length)."""
    for c in _LOG_GRID:
        if laplace_bound(kappa0=kappa0, kappa1=kappa1, C=float(c), gamma=gamma, B=B,
                         A=A) >= max(observed):
            return float(c)
    raise FitError("no grid C makes the Laplace bound dominate the estimates")


def laplace_section(
    fspec: FSpec, process: ContractiveChainSpec, B: float, gamma: Optional[float],
    points: Sequence[tuple[float, int]], reps: int, seed: int, workers: int = 1,
) -> LaplaceSection:
    """The Laplace bound against its MC estimates at every (A, t) point, in
    the order of `points`. The mixing rate is fitted first and A and gamma
    are checked at the fitted kappa1 before any estimate runs: the smallest
    A against max(14, 2 kappa1), gamma*B in (0, cap] at the largest A (a
    DomainError names `grid.A` or `gamma`); `gamma=None` takes 0.9 of that
    cap. C is calibrated on the estimates at the smallest A."""
    lengths = [a for a, _ in points]
    a_min, a_max = min(lengths), max(lengths)
    mixing_fit = estimate_chain_mixing(process, seed=keyed_rng(seed, Stream.MIXING_FIT),
                                       n_steps=10**5)
    kappa0 = max(mixing_fit.kappa0, 1e-6)
    kappa1 = max(mixing_fit.kappa1, 1e-6)
    a_floor = max(14.0, 2.0 * kappa1)
    if not a_min >= a_floor:
        below = "14" if a_floor == 14.0 else f"2*kappa1 = {a_floor:.4g}"
        raise DomainError(f"grid.A: A = {a_min} is below {below} "
                          f"at the fitted kappa1 = {kappa1:.4g}")
    cap = laplace_gamma_cap(kappa1, a_max)
    if gamma is None:
        gamma = 0.9 * cap / B
    elif not 0.0 < gamma * B <= cap:
        where = "above the cap" if gamma * B > 0.0 else "outside (0, cap], with the cap"
        raise DomainError(
            f"gamma = {gamma} gives gamma*B = {gamma * B:.4g} {where} "
            f"min((1 and kappa1)/2, kappa1/(4 log A_max)) = {cap:.4g} "
            f"at the fitted kappa1 = {kappa1:.4g}"
        )
    estimates = empirical_laplace(fspec, process, gamma, points, reps, seed, workers)
    at_a_min = [e.value for e, a in zip(estimates, lengths) if a == a_min]
    c_value = calibrate_laplace_constant(at_a_min, kappa0, kappa1, gamma, B, a_min)
    bounds = [laplace_bound(kappa0=kappa0, kappa1=kappa1, C=c_value, gamma=gamma, B=B, A=a)
              for a in lengths]
    return LaplaceSection(mixing_fit, gamma, c_value, estimates, bounds)
