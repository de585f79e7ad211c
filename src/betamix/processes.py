"""Seeded simulation of stationary, geometrically mixing processes.

Three generators: a contractive scalar Markov chain (Lipschitz map plus i.i.d.
innovations), a curve-valued first-order autoregression on a fixed grid, and
regression responses on top of a curve sample. Every simulation is a pure
function of (spec, n, seed), the seed being anything np.random.default_rng
takes; batch drivers pass one keyed generator per replication block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ValidationError

CHAIN_MAPS = ("linear", "clipped-linear", "sine-perturbed")
CHAIN_INNOVATIONS = ("uniform", "truncated-gaussian", "none")
FAR_KERNELS = ("separable", "gaussian-bump")
PSI_NAMES = ("linear", "norm")
Seed = Union[int, np.random.SeedSequence, np.random.Generator]


def _require_finite(spec, names: Sequence[str]) -> None:
    """Reject NaN and infinite numeric fields: every comparison with NaN is
    False, so the range checks of the specs would let NaN through."""
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ConfigError(f"field 'process.{name}': must be finite, got {value!r}")


@dataclass(frozen=True)
class ContractiveChainSpec:
    """Scalar chain X_t = psi(X_{t-1}) + eps_t with a strict contraction psi.

    Supported maps: linear a*x, clipped-linear clip(a*x, +-clip_at), and
    sine-perturbed a*x + b*sin(x). Supported innovations: uniform on
    [-halfwidth, halfwidth], truncated Gaussian (sd sigma, hard cutoff trunc),
    and the degenerate "none" (deterministic; unit tests only, it violates the
    absolutely-continuous-innovation condition for geometric mixing).
    """

    map: str = "linear"
    a: float = 0.5
    b: float = 0.0
    clip_at: float = 1.0
    innovation: str = "uniform"
    halfwidth: float = 1.0
    sigma: float = 1.0
    trunc: float = 3.0
    burn_in: int = 1000
    x0: float = 0.0

    def __post_init__(self):
        if self.map not in CHAIN_MAPS:
            raise ConfigError(
                f"field 'process.map': unsupported value {self.map!r}; choose from {CHAIN_MAPS}"
            )
        if self.innovation not in CHAIN_INNOVATIONS:
            raise ConfigError(
                f"field 'process.innovation': unsupported value {self.innovation!r}; "
                f"choose from {CHAIN_INNOVATIONS}"
            )
        _require_finite(self, ("a", "b", "clip_at", "halfwidth", "sigma", "trunc", "x0"))
        for name in ("halfwidth", "trunc"):  # the draws span an interval of width 2 w
            if not math.isfinite(2.0 * getattr(self, name)):
                raise ConfigError(f"field 'process.{name}': 2 * {name} must be finite")
        if self.lipschitz >= 1.0:
            also_b = ", field 'process.b'" if self.map == "sine-perturbed" else ""
            raise ConfigError(
                f"field 'process.a'{also_b}: Lipschitz constant {self.lipschitz} must be < 1"
            )
        if self.burn_in < 0:
            raise ConfigError("field 'process.burn_in': must be >= 0")
        if self.map == "clipped-linear" and self.clip_at <= 0:
            raise ConfigError("field 'process.clip_at': clipped-linear map needs clip_at > 0")
        if self.innovation == "uniform" and self.halfwidth <= 0:
            raise ConfigError("field 'process.halfwidth': uniform innovation needs halfwidth > 0")
        if self.innovation == "truncated-gaussian":
            for name in ("sigma", "trunc"):
                if getattr(self, name) <= 0:
                    raise ConfigError(
                        f"field 'process.{name}': truncated-gaussian innovation needs {name} > 0"
                    )

    @property
    def lipschitz(self) -> float:
        if self.map == "sine-perturbed":
            return abs(self.a) + abs(self.b)
        return abs(self.a)

    def innovation_bound(self) -> float:
        if self.innovation == "uniform":
            return self.halfwidth
        if self.innovation == "truncated-gaussian":
            return self.trunc
        return 0.0

    def state_bound(self) -> float:
        """Almost-sure bound on |X_t| under stationarity (and from x0 = 0)."""
        c = self.innovation_bound()
        if self.map == "clipped-linear":
            return self.clip_at + c
        if self.map == "sine-perturbed":
            return (abs(self.b) + c) / (1.0 - abs(self.a))
        return c / (1.0 - abs(self.a))

    def apply_map(self, x: np.ndarray) -> np.ndarray:
        if self.map == "linear":
            return self.a * x
        if self.map == "clipped-linear":
            return np.clip(self.a * x, -self.clip_at, self.clip_at)
        return self.a * x + self.b * np.sin(x)


@dataclass(frozen=True)
class FunctionalPath:
    """Curves sampled on a fixed grid of [0, 1], with optional responses."""

    grid: np.ndarray
    curves: np.ndarray
    responses: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        curves = np.atleast_2d(np.asarray(self.curves, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("grid must be a 1-d array with >= 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if abs(grid[0]) > 1e-12 or abs(grid[-1] - 1.0) > 1e-12:
            raise ValidationError("grid endpoints must be 0 and 1")
        if curves.shape[1] != grid.size:
            raise ValidationError("curves must have one column per grid point")
        if not np.all(np.isfinite(curves)):
            raise ValidationError("curve values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)
        if self.responses is not None:
            resp = np.asarray(self.responses, dtype=float)
            if resp.shape != (curves.shape[0],):
                raise ValidationError("responses must have one value per curve")
            object.__setattr__(self, "responses", resp)

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]


@dataclass(frozen=True)
class Far1Spec:
    """Curve-valued AR(1): X_k = A X_{k-1} + eps_k on the unit-interval grid.

    The operator A is an integral operator discretized with trapezoid
    quadrature; `rho` is its operator-norm bound and must stay below 1.
    "separable" is the rank-one A = rho * phi <phi, .>_w with phi the
    eigenfunction below, so its paths reduce to a scalar AR(1) on the
    phi-coefficient; "gaussian-bump" is a full-rank Gaussian kernel scaled to
    norm rho. Innovations are a finite sine expansion with bounded uniform
    coefficients, so sample paths are almost surely norm-bounded.
    """

    kernel: str = "separable"
    rho: float = 0.5
    bump_width: float = 0.15
    noise_scale: float = 0.3
    noise_terms: int = 8
    burn_in: int = 1000
    initial: str = "zero"

    def __post_init__(self):
        if self.kernel not in FAR_KERNELS:
            raise ConfigError(
                f"field 'process.kernel': unsupported value {self.kernel!r}; "
                f"choose from {FAR_KERNELS}"
            )
        _require_finite(self, ("rho", "bump_width", "noise_scale"))
        if abs(self.rho) >= 1.0:
            raise ConfigError(
                f"field 'process.rho': operator norm bound {self.rho} violates |rho| < 1"
            )
        if self.initial not in ("zero", "eigenfunction"):
            raise ConfigError("field 'process.initial': must be 'zero' or 'eigenfunction'")
        # the bump kernel divides by 2 w^2
        if not (self.bump_width > 0 and 0.0 < 2.0 * self.bump_width * self.bump_width < math.inf):
            raise ConfigError("field 'process.bump_width': must be > 0 with 2 w^2 in (0, inf)")
        for name, low in (("noise_terms", 1), ("noise_scale", 0), ("burn_in", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"field 'process.{name}': must be >= {low}")

    def eigenfunction(self, grid: np.ndarray) -> np.ndarray:
        """Quadrature-normalized sqrt(2) sin(pi u); exact eigencurve of the
        separable operator on this grid."""
        phi = np.sqrt(2.0) * np.sin(np.pi * grid)
        w = trapezoid_weights(grid)
        return phi / np.sqrt(float(w @ phi**2))


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


def uniform_grid(size: int) -> np.ndarray:
    if size < 2:
        raise ConfigError("grid size must be >= 2")
    return np.linspace(0.0, 1.0, size)


def _draw_innovations(spec: ContractiveChainSpec, rng: np.random.Generator, shape) -> np.ndarray:
    if spec.innovation == "uniform":
        return rng.uniform(-spec.halfwidth, spec.halfwidth, size=shape)
    if spec.innovation == "truncated-gaussian":
        return _truncated_gaussian(spec.sigma, spec.trunc, rng, shape)
    return np.zeros(shape)


def _truncated_gaussian(sigma: float, trunc: float, rng: np.random.Generator, shape) -> np.ndarray:
    """N(0, sigma^2) conditioned on |x| <= trunc, by rejection from `rng`.

    With trunc / sigma >= sqrt(pi / 2) the proposals are N(0, sigma^2);
    below it they are U(-trunc, trunc), each kept with probability
    exp(-x^2 / 2 sigma^2). Either accepts at least erf(sqrt(pi) / 2) = 0.790 of
    its proposals; the two rates meet at the switch. Only the rejected
    entries are redrawn, in order, so the draw is a function of the
    generator's state alone.
    """
    flat = np.empty(math.prod(shape))
    todo = np.arange(flat.size)
    normal = trunc / sigma >= math.sqrt(math.pi / 2.0)
    while todo.size:
        if normal:
            x = sigma * rng.standard_normal(todo.size)
            keep = np.abs(x) <= trunc
        else:
            x = rng.uniform(-trunc, trunc, todo.size)  # never leaves [-trunc, trunc]
            keep = rng.random(todo.size) < np.exp(-0.5 * (x / sigma) ** 2)
        flat[todo[keep]] = x[keep]
        todo = todo[~keep]
    return flat.reshape(shape)


def simulate_contractive_chain(spec: ContractiveChainSpec, n: int, seed: Seed) -> np.ndarray:
    """Length-n path after discarding the spec's burn-in prefix."""
    return _simulate_chain_columns(spec, n, range(1), np.random.default_rng(seed))[:, 0]


def _simulate_chain_columns(
    spec: ContractiveChainSpec, n: int, seeds: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """One path per entry of `seeds` (a block's replication indices), stacked
    as columns of an (n, len(seeds)) array.

    Column j is the recursion over column j of one (burn_in + n - 1,
    len(seeds)) innovation draw from `rng`. The columns advance together, one
    contiguous row per time step, in place: row t - 1 of the draw becomes
    x_t = psi(x_{t-1}) + eps_{t-1}, and the kept rows are returned as a view of
    it, so a block holds that one path-sized array (plus an x0 row copied in
    front when burn_in = 0). A single linear-map path runs as the scalar
    recursion of _ar1_path, which performs the identical multiply-add.
    """
    if n < 1:
        raise ValidationError("path length must be >= 1")
    total = spec.burn_in + n
    eps = _draw_innovations(spec, rng, (total - 1, len(seeds)))
    if spec.map == "linear" and len(seeds) == 1:
        return _ar1_path(spec.a, eps[:, 0], spec.x0)[spec.burn_in:, None]
    x = np.full(len(seeds), spec.x0)
    for row in eps:
        row += spec.apply_map(x)
        x = row
    if spec.burn_in == 0:
        return np.concatenate([np.full((1, len(seeds)), spec.x0), eps])
    return eps[spec.burn_in - 1:]


def _ar1_path(coef: float, drive: np.ndarray, start: float) -> np.ndarray:
    """States y_0 = start, y_t = coef * y_{t-1} + drive[t-1] of a scalar AR(1).

    Python floats round like float64, so the states are those of the same
    recursion stepped in NumPy; one scalar step costs far less than a NumPy call.
    """
    steps = accumulate(drive.tolist(), lambda y, d: coef * y + d, initial=start)
    return np.fromiter(steps, dtype=float, count=drive.size + 1)


def _bump_operator(grid: np.ndarray, rho: float, width: float) -> np.ndarray:
    # a subnormal 2 w^2 overflows the off-diagonal quotients: exp(-inf) = 0 is the right limit
    with np.errstate(over="ignore"):
        kernel = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / (2.0 * width**2))
    w = trapezoid_weights(grid)
    sw = np.sqrt(w)
    sym = sw[:, None] * kernel * sw[None, :]
    norm = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    return (rho / norm) * kernel * w[None, :]


def simulate_far1(spec: Far1Spec, n: int, grid_size: int, seed: Seed) -> FunctionalPath:
    """Curve-valued AR(1) path of length n on a uniform grid.

    The separable operator rho * phi <phi, .>_w has rank one, so its path is
    driven by the scalar c_t = <phi, X_t>_w, itself an AR(1) with coefficient
    rho <phi, phi>_w: _ar1_path runs it, and only the kept curves
    X_t = rho c_{t-1} phi + noise_{t-1} are built. The gaussian-bump operator
    is iterated curve by curve.
    """
    if n < 1:
        raise ValidationError("path length must be >= 1")
    if grid_size < 8:
        raise ValidationError("grid_size must be >= 8")
    grid = uniform_grid(grid_size)
    w = trapezoid_weights(grid)
    phi = spec.eigenfunction(grid)

    modes = np.arange(1, spec.noise_terms + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * modes[:, None] * grid[None, :])
    sigmas = spec.noise_scale / modes

    rng = np.random.default_rng(seed)
    total = spec.burn_in + n
    xi = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(max(total - 1, 0), spec.noise_terms))
    coeffs = xi * sigmas[None, :]
    x = phi.copy() if spec.initial == "eigenfunction" else np.zeros(grid_size)

    if spec.kernel == "separable":
        wphi = w * phi
        c = _ar1_path(spec.rho * float(wphi @ phi), coeffs @ (basis @ wphi), float(wphi @ x))
        # rows t - 1 for the kept steps t >= max(burn_in, 1)
        kept = slice(max(spec.burn_in, 1) - 1, total - 1)
        curves = spec.rho * c[kept, None] * phi[None, :] + coeffs[kept] @ basis
        if spec.burn_in == 0:
            curves = np.concatenate([x[None, :], curves])
        return FunctionalPath(grid=grid, curves=curves)

    op = _bump_operator(grid, spec.rho, spec.bump_width)
    noise = coeffs @ basis
    curves = np.empty((n, grid_size))
    if spec.burn_in == 0:
        curves[0] = x
    for t in range(1, total):
        x = op @ x + noise[t - 1]
        if t >= spec.burn_in:
            curves[t - spec.burn_in] = x
    return FunctionalPath(grid=grid, curves=curves)


@dataclass(frozen=True)
class PsiSpec:
    """Named Lipschitz functional applied to curves.

    "linear" is the quadrature inner product against `weight` (Lipschitz
    constant ||weight||), "norm" is the quadrature L2 norm (constant 1).
    """

    name: str = "norm"
    weight: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.name not in PSI_NAMES:
            raise ConfigError(f"unsupported psi {self.name!r}; choose from {PSI_NAMES}")
        if self.name == "linear" and self.weight is None:
            raise ConfigError("linear psi needs a weight curve")


def make_psi(spec: PsiSpec, grid: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Resolve a PsiSpec into (vectorized functional, Lipschitz constant)."""
    w = trapezoid_weights(grid)
    if spec.name == "linear":
        weight = np.asarray(spec.weight, dtype=float)
        if weight.shape != grid.shape:
            raise ConfigError("psi weight curve must live on the path grid")
        wv = w * weight
        lipschitz = float(np.sqrt(w @ weight**2))
        return (lambda curves: np.atleast_2d(curves) @ wv), lipschitz
    return (lambda curves: np.sqrt(np.atleast_2d(curves) ** 2 @ w)), 1.0


def make_regression_sample(
    path: FunctionalPath, psi: PsiSpec, noise_sd: float, seed: Seed
) -> FunctionalPath:
    """Fill responses Y_k = psi(X_k) + eps_k with centered Gaussian noise."""
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    func, _ = make_psi(psi, path.grid)
    signal = func(path.curves)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=path.n_curves) if noise_sd > 0 else 0.0
    return FunctionalPath(grid=path.grid, curves=path.curves, responses=signal + noise)


def binned_lag_joint(values: np.ndarray, lag: int, n_bins: int) -> np.ndarray:
    """Empirical joint table of (X_k, X_{k+lag}) after quantile binning."""
    if lag < 1 or lag >= values.size:
        raise ValidationError("lag must satisfy 1 <= lag < len(values)")
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    bins = np.digitize(values, edges)
    pairs = bins[:-lag] * n_bins + bins[lag:]
    counts = np.bincount(pairs, minlength=n_bins * n_bins).astype(float)
    return (counts / counts.sum()).reshape(n_bins, n_bins)


def estimate_chain_mixing(
    spec: ContractiveChainSpec,
    seed: Seed,
    lags: Sequence[int] = (1, 2, 3, 4, 5),
    n_steps: int = 10**6,
    n_bins: int = 8,
):
    """Exponential-decay fit of the chain's binned lag coefficients.

    Simulates one long path, bins it into `n_bins` equiprobable states, and
    computes the exact coefficient of each binned lag joint; this proxy
    underestimates the continuous-state coefficient but shares its decay
    rate. Returns a mixing decay fit (kappa0, kappa1, R^2).
    """
    from .mixing import FiniteJointDistribution, beta_exact, fit_geometric_decay

    values = simulate_contractive_chain(spec, n_steps, seed)
    betas = [
        beta_exact(FiniteJointDistribution(binned_lag_joint(values, lag, n_bins)))
        for lag in lags
    ]
    return fit_geometric_decay(list(lags), betas)


# ---------------------------------------------------------------------------
# CSV format: header "grid", g_0, ..., g_{G-1} [, "response"]; one row per
# curve, first column the curve index. repr() formatting round-trips exactly.
# ---------------------------------------------------------------------------

def save_functional_path(path, fpath: FunctionalPath) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = ["grid"] + [repr(float(g)) for g in fpath.grid]
        if fpath.responses is not None:
            header.append("response")
        fh.write(",".join(header) + "\n")
        for k in range(fpath.n_curves):
            row = [str(k)] + [repr(float(v)) for v in fpath.curves[k]]
            if fpath.responses is not None:
                row.append(repr(float(fpath.responses[k])))
            fh.write(",".join(row) + "\n")


def load_functional_path(path) -> FunctionalPath:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValidationError("empty functional-path file")
    header = lines[0].split(",")
    if header[0] != "grid":
        raise ValidationError("functional-path header must start with 'grid'")
    has_response = header[-1] == "response"
    grid_tokens = header[1:-1] if has_response else header[1:]
    grid = np.array([float(tok) for tok in grid_tokens])
    curves, responses = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        expected = 1 + grid.size + (1 if has_response else 0)
        if len(cells) != expected:
            raise ValidationError(f"row has {len(cells)} cells, expected {expected}")
        curves.append([float(tok) for tok in cells[1 : 1 + grid.size]])
        if has_response:
            responses.append(float(cells[-1]))
    return FunctionalPath(
        grid=grid,
        curves=np.asarray(curves),
        responses=np.asarray(responses) if has_response else None,
    )
