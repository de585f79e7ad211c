"""Functional kernel regression with small-ball normalization.

Curves live in L2[0, 1] via trapezoid quadrature on a fixed grid. The
estimator is the kernel-weighted response average at a query curve; its
numerator and denominator are additionally normalized by n times the
small-ball probability F_x(h), so their limits are the kernel constant M and
psi(x) * M respectively. F_x(h) has one estimator, `estimate_small_ball`,
which counts the distances of an independent reference sample to x; the
caller computes those distances and passes the estimate to
`RegressionFit.evaluate`. The dynamic forecast experiment tracks all three
errors at a query drawn from the process itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ModelViolationError, ValidationError
from .processes import (
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    far1_scores,
    make_regression_sample,
    simulate_far1,
    trapezoid_weights,
)
from .seeding import Stream, keyed_rng, replicate

M_QUADRATURE_POINTS = 1000
# m_constant's trapezoid nodes on [0, 1] and their weights, read-only
_M_NODES = np.linspace(0.0, 1.0, M_QUADRATURE_POINTS)
_M_WEIGHTS = trapezoid_weights(_M_NODES)
_M_NODES.flags.writeable = _M_WEIGHTS.flags.writeable = False
MIN_REFERENCE_CURVES = 100   # fewest reference curves a small-ball estimate takes
FORECAST_BLOCK = 25       # replications per keyed generator of each stream

# name -> (K, K') on [0, 1]
_KERNEL_FUNCS = {
    "uniform": (np.ones_like, np.zeros_like),
    "downslope-linear": (lambda s: 2.0 - s, lambda s: -np.ones_like(s)),
    "quadratic-decreasing": (lambda s: 1.5 - 0.5 * s**2, lambda s: -s),
}


@dataclass(frozen=True)
class KernelSpec:
    """Compactly supported kernel on [0, 1], zero outside, K(1) > 0, K' <= 0."""

    name: str

    def __post_init__(self):
        if self.name not in _KERNEL_FUNCS:
            raise ConfigError(
                f"field 'kernel': unsupported value {self.name!r}; "
                f"choose from {tuple(_KERNEL_FUNCS)}"
            )

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        inside = (s >= 0.0) & (s <= 1.0)
        return np.where(inside, _KERNEL_FUNCS[self.name][0](s), 0.0)

    def derivative(self, s: np.ndarray) -> np.ndarray:
        """Analytic K' on [0, 1); values outside the support are not used."""
        return _KERNEL_FUNCS[self.name][1](np.asarray(s, dtype=float))

    @property
    def at_one(self) -> float:
        return float(_KERNEL_FUNCS[self.name][0](np.float64(1.0)))


curve_distances = FunctionalPath.distances  # named here so perfbench/traced.py can wrap it


@dataclass(frozen=True)
class NWEvaluation:
    """Estimator output at one query; psi_hat is None when no training point
    falls within the bandwidth (distinguished outcome, never NaN)."""

    psi_hat: Optional[float]
    f_hat: float
    g_hat: float

    @property
    def defined(self) -> bool:
        return self.psi_hat is not None


@dataclass(frozen=True)
class RegressionFit:
    """Trained estimator state: kernel, bandwidth and training path."""

    kernel: KernelSpec
    bandwidth: float
    training: FunctionalPath

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValidationError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        if self.training.responses is None:
            raise ValidationError("training path must carry responses")

    def evaluate(self, x, f_ref: float) -> NWEvaluation:
        """Estimator at the query x, a one-curve FunctionalPath in the training
        path's frame; a raw curve on the training grid is a valid query only
        for a grid-valued training path. `f_ref` is F_x(h), the share of an
        independent reference sample within the bandwidth of x
        (estimate_small_ball)."""
        f_ref = float(f_ref)
        if not 0.0 <= f_ref <= 1.0:
            raise ValidationError(f"f_ref must be a fraction in [0, 1], got {f_ref}")
        if not isinstance(x, FunctionalPath):
            x = FunctionalPath(self.training.grid, x)
        wts = self.kernel.evaluate(curve_distances(self.training, x) / self.bandwidth)
        denom = float(wts.sum())
        numer, scale = float(self.training.responses @ wts), self.training.n_curves * f_ref
        f_hat, g_hat = (denom / scale, numer / scale) if f_ref > 0 else (math.nan, math.nan)
        psi_hat = numer / denom if denom > 0 else None
        return NWEvaluation(psi_hat=psi_hat, f_hat=f_hat, g_hat=g_hat)


@dataclass(frozen=True)
class SmallBallModel:
    """Empirical small-ball probabilities F_x(h) and the scaling profile
    tau(s) = F_x(h_ref s) / F_x(h_ref) at the smallest grid h with mass."""

    h_grid: np.ndarray
    f_hat: np.ndarray
    h_ref: float
    s_grid: np.ndarray
    tau_hat: np.ndarray

    def tau(self, s: np.ndarray) -> np.ndarray:
        """Linear interpolation of the profile, anchored at tau(0) = 0."""
        xs = np.concatenate([[0.0], self.s_grid])
        ys = np.concatenate([[0.0], self.tau_hat])
        return np.interp(np.asarray(s, dtype=float), xs, ys)


def estimate_small_ball(
    distances: np.ndarray, h_grid: Sequence[float], s_grid: Optional[Sequence[float]] = None
) -> SmallBallModel:
    """Estimate F_x(h) over a bandwidth grid, and tau over `s_grid`, from the
    distances of an independent reference sample to the query x:
    `curve_distances(reference, x)` for curves, Euclidean distances for
    points. Every fraction is a count in one sorted copy of the distances.
    """
    h_grid = _increasing(h_grid, "h_grid")
    if h_grid[0] <= 0:
        raise ValidationError("h_grid must be positive")
    s_grid = np.linspace(0.05, 1.0, 20) if s_grid is None else _increasing(s_grid, "s_grid")
    if s_grid[0] <= 0 or s_grid[-1] > 1:
        raise ValidationError("s_grid must lie in (0, 1]")
    dists = _distances(distances, "reference distances")
    if dists.size < MIN_REFERENCE_CURVES:
        raise ValidationError(f"reference sample has {dists.size} < {MIN_REFERENCE_CURVES} members")
    sorted_dists = np.sort(dists)
    f_hat = np.searchsorted(sorted_dists, h_grid, "right") / dists.size
    if not np.any(f_hat > 0):
        raise DomainError("bandwidth grid too small: every F_hat(h) is zero")
    ref = int(np.argmax(f_hat > 0))
    h_ref = float(h_grid[ref])
    tau_hat = np.searchsorted(sorted_dists, h_ref * s_grid, "right") / dists.size / f_hat[ref]
    return SmallBallModel(h_grid=h_grid, f_hat=f_hat, h_ref=h_ref, s_grid=s_grid, tau_hat=tau_hat)


def _increasing(values, name: str) -> np.ndarray:
    """`values` as a non-empty, finite, strictly increasing 1-D array."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)) \
            or np.any(np.diff(values) <= 0):
        raise ValidationError(f"{name} must be finite and strictly increasing")
    return values


def _distances(values, name: str) -> np.ndarray:
    """`values` as a 1-D array of finite, non-negative distances."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all((values >= 0) & np.isfinite(values)):
        raise ValidationError(f"{name} must be finite and non-negative")
    return values


def m_constant(kernel: KernelSpec, tau: Callable[[np.ndarray], np.ndarray]) -> float:
    """K(1) - integral of K'(s) tau(s) over [0, 1], composite trapezoid.

    The model requires the result to be positive; nonpositive values raise,
    and so does a tau value outside [0, 1], NaN included.
    """
    tau_vals = np.asarray(tau(_M_NODES), dtype=float)
    if not np.all((tau_vals >= -1e-9) & (tau_vals <= 1.0 + 1e-9)):
        raise ValidationError("tau must map [0, 1] into [0, 1]")
    integrand = kernel.derivative(_M_NODES) * tau_vals
    m_value = kernel.at_one - float(_M_WEIGHTS @ integrand)
    if m_value <= 0:
        raise ModelViolationError(f"kernel constant M = {m_value} is not positive")
    return m_value


def _linear_quantile(values: np.ndarray, level: float) -> float:
    """np.quantile(values, level) of a finite 1-D array at a level in [0, 1],
    with its bits, from one np.partition of the two order statistics it needs
    (np.quantile partitions through np.unique, which imports numpy.ma).
    NumPy's "linear" rule: the virtual index (n - 1) level, the order
    statistics at its floor and the next index (both the top one from n - 1
    on, where NumPy's floor index reads -1), and its lerp written out."""
    last = values.size - 1
    index = last * float(level)
    low = math.floor(index) if index < last else -1
    high = low + 1 if low >= 0 else -1
    part = np.partition(values, [low, high])
    a, b, t = part[low], part[high], index - low
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def bandwidth_schedule(n: int, theta: float, pilot_distances: np.ndarray) -> float:
    """Empirical n^(-theta) quantile of a sample of distances to the query
    curve (the forecast experiment passes its reference sample's).

    With F(h_n) ~ n^(-theta) the normalized second moment E F^(-2) grows like
    n^(2 theta), which keeps the series sum_n n^(2 theta - 2) (log n)^2
    (log log n)^2 finite for theta < 1/2. Theta is clamped below at 1e-3.
    """
    if not 0.0 < theta < 0.5:
        raise DomainError(f"theta = {theta} outside (0, 1/2)")
    sample = _distances(pilot_distances, "the bandwidth's distances")
    if sample.size == 0:
        raise ValidationError("the bandwidth's distance sample is empty")
    if n < 3:
        raise DomainError("n must be >= 3")
    theta_eff = max(theta, 1e-3)
    level = float(n**-theta_eff)
    # all-equal distances (e.g. of a constant process) would give h = 0
    return max(_linear_quantile(sample, level), 1e-12)


@dataclass(frozen=True)
class ForecastSummary:
    """Per-n aggregate of the dynamic forecast experiment."""

    n: int
    median_error: float
    q90_error: float
    median_f_error: float
    median_g_error: float
    undefined_fraction: float


def _forecast_block(args) -> np.ndarray:
    (process, psi, noise_sd, kernel, theta, grid_size, seed, n, t, indices) = args
    block = indices.start // FORECAST_BLOCK
    streams = (Stream.FAR_PATH, Stream.REGRESSION_NOISE, Stream.REFERENCE_SAMPLE)
    path_rng, noise_rng, reference_rng = (keyed_rng(seed, s, n, block) for s in streams)
    reps = len(indices)
    scores, states = far1_scores(process, n, grid_size, [(path_rng, reps), (reference_rng, reps)])
    rows = np.empty((reps, 4))
    for pos in range(reps):  # each path is redrawn from its first kept row
        path_rng.bit_generator.state = states[pos]
        path = simulate_far1(process, n, grid_size, path_rng, scores[:, pos])
        sample = make_regression_sample(path, psi, noise_sd, noise_rng)
        reference_rng.bit_generator.state = states[reps + pos]
        reference = simulate_far1(process, n, grid_size, reference_rng, scores[:, reps + pos])
        x = sample.take(t - 1)
        ref_dists = curve_distances(reference, x)
        h = bandwidth_schedule(n, theta, ref_dists)
        ball = estimate_small_ball(ref_dists, [h])
        m_hat = m_constant(kernel, ball.tau)
        out = RegressionFit(kernel=kernel, bandwidth=h, training=sample).evaluate(x, ball.f_hat[0])
        psi_true = float(psi(x)[0])
        err = abs(out.psi_hat - psi_true) if out.defined else math.nan
        rows[pos] = (
            0.0 if out.defined else 1.0,
            err,
            abs(out.f_hat - m_hat),
            abs(out.g_hat - psi_true * m_hat),
        )
    return rows


def dynamic_forecast_experiment(
    process: Far1Spec,
    psi: PsiSpec,
    noise_sd: float,
    kernel: KernelSpec,
    theta: float,
    points: Sequence[tuple[int, int]],
    reps: int,
    seed: int,
    grid_size: int,
) -> list[ForecastSummary]:
    """Replicate the fit-and-forecast pipeline at every (n, t) point of
    `points`: one summary per point, in their order.

    Per replication: simulate a training path and an independent reference
    sample, choose the bandwidth from reference distances at the query
    X_t, fit, and record the absolute errors of the forecast, of the
    normalized denominator against the kernel constant, and of the normalized
    numerator against psi(X_t) M. Undefined estimates (empty neighborhoods)
    are counted, never averaged in. All the points run through one
    `replicate` call, so the result is identical for any worker count and
    any order of the points.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    by_point = replicate(_forecast_block, (process, psi, noise_sd, kernel, theta, grid_size, seed),
                         points, reps, FORECAST_BLOCK)
    summaries = []
    for rows, (n, _) in zip(by_point, points):
        undefined = float(rows[:, 0].mean())
        if undefined > 0.5:
            raise DomainError(
                f"bandwidth schedule failed: {undefined:.0%} undefined estimates at n = {n}"
            )
        errors, f_errors, g_errors = rows[rows[:, 0] == 0.0, 1:].T
        summaries.append(ForecastSummary(
            n=n, median_error=_linear_quantile(errors, 0.5),
            q90_error=_linear_quantile(errors, 0.9), median_f_error=_linear_quantile(f_errors, 0.5),
            median_g_error=_linear_quantile(g_errors, 0.5), undefined_fraction=undefined,
        ))
    return summaries
