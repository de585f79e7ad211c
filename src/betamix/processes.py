"""Seeded simulation of stationary, geometrically mixing processes.

Three generators: a contractive scalar Markov chain (Lipschitz map plus i.i.d.
innovations), a curve-valued first-order autoregression on a fixed grid, and
regression responses on top of a curve sample. Every simulation is a pure
function of (spec, n, seed), the seed being anything np.random.default_rng
takes; batch drivers pass one keyed generator per replication block.
The chain's kernel is also discretised (transfer_chain), drawing nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, FitError, ValidationError
from .mixing import FiniteChain, _reachable, fit_geometric_decay, markov_beta_lag

CHAIN_MAPS = ("linear", "clipped-linear", "sine-perturbed")
CHAIN_INNOVATIONS = ("uniform", "truncated-gaussian", "none")
FAR_KERNELS = ("separable", "gaussian-bump")
PSI_NAMES = ("linear", "norm")
Seed = Union[int, np.random.SeedSequence, np.random.Generator]
BURN_ROWS = 64  # innovation rows per block that _simulate_chain_columns draws and advances
# far1_scores skips burn-in rows in whole blocks of SKIP_ROWS: a window of the
# coefficient rows that starts on a block edge gets the whole product's bits
SKIP_ROWS = 64
TRANSFER_CELLS = 200  # equal cells of [-S, S] in transfer_chain
TRANSFER_POINTS = 8   # points per cell whose transition rows transfer_chain averages


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
    """Curves sampled on a fixed grid of [0, 1], with optional responses.

    The path holds each curve's coordinates in a frame: curve k is
    coords[k] @ frame, whose rows span every curve of the path. A grid-valued
    path has frame None, the identity: its coordinates are the curves. The
    quadrature geometry the estimators use comes from the coordinates alone,
    through `distances` and `inner`, so a path is compared only with a path
    in its frame; a raw curve counts as a grid-valued path. `curves` builds
    the (n, grid size) array only when it is first read, for inspection and
    as the grid oracle of the tests. `gram_factor` is derived from the frame:
    a square-root factor R of its Gram matrix F W F^T (W the trapezoid
    weights), None on a grid-valued path.
    """

    grid: np.ndarray
    coords: np.ndarray
    responses: Optional[np.ndarray] = None
    frame: Optional[np.ndarray] = None
    gram_factor: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("grid must be a 1-d array with >= 2 points")
        if (np.diff(grid) <= 0).any():
            raise ValidationError("grid must be strictly increasing")
        if abs(grid[0]) > 1e-12 or abs(grid[-1] - 1.0) > 1e-12:
            raise ValidationError("grid endpoints must be 0 and 1")
        if self.frame is None:
            if coords.shape[1] != grid.size:
                raise ValidationError("curves must have one column per grid point")
        else:
            frame = np.asarray(self.frame, dtype=float)
            if frame.shape != (coords.shape[1], grid.size):
                raise ValidationError("frame must have one row per coordinate and one "
                                      "column per grid point")
            if not np.isfinite(frame).all():
                raise ValidationError("frame values must be finite")
            factor = _gram_factor(frame, grid)
            if not np.isfinite(factor).all():
                raise ValidationError("the frame's Gram matrix overflows")
            object.__setattr__(self, "frame", frame)
            object.__setattr__(self, "gram_factor", factor)
        if not np.isfinite(coords).all():
            raise ValidationError("curve values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coords", coords)
        if self.responses is not None:
            resp = np.asarray(self.responses, dtype=float)
            if resp.shape != (coords.shape[0],):
                raise ValidationError("responses must have one value per curve")
            object.__setattr__(self, "responses", resp)

    @property
    def n_curves(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def curves(self) -> np.ndarray:
        """The (n, grid size) curve values: the first frame row scaled by the
        first coordinate, plus the rest of the coordinates through the rest
        of the frame."""
        if self.frame is None:
            return self.coords
        return self.coords[:, :1] * self.frame[0] + self.coords[:, 1:] @ self.frame[1:]

    def distances(self, query: Optional[FunctionalPath] = None) -> np.ndarray:
        """Trapezoid L2 distances of every curve to the one curve of `query`,
        a path on this grid and in this frame, or the curves' norms when
        query is None. Only coordinates are read: |X_k - X_q|_w is the
        Euclidean norm of (z_k - z_q) R, with R the Gram factor, or sqrt(W)
        on a grid-valued path."""
        diff = self.coords
        if query is not None:
            if query.n_curves != 1 or not np.array_equal(query.grid, self.grid):
                raise ValidationError("the query must be one curve on the path's grid")
            if query.frame is not self.frame and not np.array_equal(query.frame, self.frame):
                raise ValidationError("the query must be held in the path's frame")
            diff = diff - query.coords
        if self.frame is None:
            rows = diff * np.sqrt(trapezoid_weights(self.grid))
        else:
            rows = diff @ self.gram_factor
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))

    def inner(self, g: np.ndarray) -> np.ndarray:
        """Trapezoid inner products <X_k, g>_w of every curve with the curve g:
        coords (F (w g))."""
        wg = trapezoid_weights(self.grid) * g
        return self.coords @ (wg if self.frame is None else self.frame @ wg)

    def take(self, k: int) -> FunctionalPath:
        """Curve k, 0 <= k < n_curves, alone, as a one-curve path in this path's frame."""
        if not 0 <= k < self.n_curves:
            raise ValidationError(f"curve index {k} outside [0, {self.n_curves})")
        return self._derive(coords=self.coords[[k]], responses=None)

    def _derive(self, **changes) -> FunctionalPath:
        """This path with `changes`, given in the form the checks leave them
        (float arrays of the right shapes), built without re-running the
        checks of a path that has already passed them."""
        path = object.__new__(FunctionalPath)
        path.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)}, **changes)
        return path


def _gram_factor(frame: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """R with R R^T = F W F^T, the Gram matrix of the frame's rows under the
    trapezoid weights of `grid`. The matrix may be singular (the rows of a
    FAR(1) frame are dependent), so R comes from its eigenvectors, scaled by
    the square roots of its eigenvalues clipped at 0."""
    values, vectors = np.linalg.eigh((frame * trapezoid_weights(grid)) @ frame.T)
    return vectors * np.sqrt(np.clip(values, 0.0, None))


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


def _draw_innovations(spec: ContractiveChainSpec, rng: np.random.Generator,
                      out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous rows `out` with the next innovations from `rng`,
    in row order, and return it. A uniform fill has the values and end state
    of rng.uniform(-halfwidth, halfwidth, out.shape), so splitting a uniform
    draw into blocks keeps its values; a truncated-Gaussian fill is one
    rejection draw, whose values depend on the blocks."""
    if spec.innovation == "uniform":
        return _uniform_fill(rng, spec.halfwidth, out)
    if spec.innovation == "truncated-gaussian":
        return _truncated_gaussian(spec.sigma, spec.trunc, rng, out)
    out.fill(0.0)
    return out


def _uniform_fill(rng: np.random.Generator, half: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the values and end state of rng.uniform(-half, half,
    out.shape), which NumPy computes as -half + (2 half) u."""
    rng.random(out=out)
    out *= 2.0 * half
    out -= half
    return out


def _truncated_gaussian(sigma: float, trunc: float, rng: np.random.Generator,
                        out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous `out` with N(0, sigma^2) conditioned on
    |x| <= trunc, by rejection from `rng`, and return it.

    With trunc / sigma >= sqrt(pi / 2) the proposals are N(0, sigma^2);
    below it they are U(-trunc, trunc), each kept with probability
    exp(-x^2 / 2 sigma^2). Either accepts at least erf(sqrt(pi) / 2) = 0.790 of
    its proposals; the two rates meet at the switch. Only the rejected
    entries are redrawn, in order, so the draw is a function of the
    generator's state alone.
    """
    normal = trunc / sigma >= math.sqrt(math.pi / 2.0)
    flat = out.reshape(-1)
    if normal:
        rng.standard_normal(out=flat)
        flat *= sigma
        todo = np.flatnonzero((flat > trunc) | (flat < -trunc))
    else:
        _uniform_fill(rng, trunc, flat)  # never leaves [-trunc, trunc]
        todo = np.flatnonzero(rng.random(flat.size) >= _acceptance(flat, sigma))
    while todo.size:  # redraw the rejected entries, in order
        if normal:
            x = sigma * rng.standard_normal(todo.size)
            keep = np.abs(x) <= trunc
        else:
            x = rng.uniform(-trunc, trunc, todo.size)
            keep = rng.random(todo.size) < _acceptance(x, sigma)
        flat[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def _acceptance(x: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-x^2 / 2 sigma^2), the acceptance probability of a uniform proposal
    x, computed in one temporary."""
    out = x / sigma
    out *= out
    out *= -0.5
    return np.exp(out, out=out)


def simulate_contractive_chain(spec: ContractiveChainSpec, n: int, seed: Seed) -> np.ndarray:
    """Length-n path after discarding the spec's burn-in prefix."""
    return _simulate_chain_columns(spec, n, range(1), np.random.default_rng(seed))[:, 0]


def _simulate_chain_columns(
    spec: ContractiveChainSpec, n: int, seeds: Sequence[int], rng: np.random.Generator,
    sink: Optional[Callable[[np.ndarray], None]] = None,
) -> Optional[np.ndarray]:
    """One path per entry of `seeds` (a block's replication indices), as the
    columns of an (n, len(seeds)) array; or, given a `sink`, passed to it in
    row order one chunk of rows at a time, and None returned.

    Column j is x_t = psi(x_{t-1}) + eps_t from x_0 = x0, keeping
    x_burn_in, ..., x_{burn_in + n - 1}. The innovations come from `rng` in
    row order. Only the state row of the burn-in is carried on, and most of
    a long one is not drawn at all (_chain_state, _coupled_state). The kept
    rows (n - 1 after the x0 row when burn_in = 0) are drawn where the
    recursion then writes their states: uniform and "none" rows BURN_ROWS at
    a time, each chunk advanced while it is still in cache, and
    truncated-Gaussian rows, or a single column (which steps as a scalar
    recursion), in one draw. Uniform and "none" fills take their values in
    order, so the chunks leave their paths those of one whole draw; a
    rejection sampler's paths depend on the split.

    Without a sink the chunks are slices of the result. With one, each is
    drawn into one buffer and passed to the sink, which may overwrite it but
    not keep it: the next chunk is drawn over it. So a streamed block holds
    one chunk, not n rows.
    """
    if n < 1:
        raise ValidationError("path length must be >= 1")
    width = len(seeds)
    burn = max(spec.burn_in - 1, 0)  # steps before the draw that yields x_burn_in
    x = _coupled_state(spec, burn, width, rng)
    if x is None:
        x = _chain_state(spec, burn, np.full(width, spec.x0), rng)
    rows = BURN_ROWS if width > 1 and spec.innovation != "truncated-gaussian" else n
    # the result, or with a sink the buffer of the one chunk it is given
    paths = np.empty((n, width) if sink is None else (min(rows, n), width))
    step = (spec.a, None if spec.map == "linear" else spec.apply_map)
    if spec.burn_in == 0:  # x0 itself is kept, as a chunk of one row
        paths[0] = x
        if sink is not None:
            sink(paths[:1])
    for start in range(int(spec.burn_in == 0), n, rows):
        out = paths[start:start + rows] if sink is None else paths[:n - start]
        x = _advance_chain(x, _draw_innovations(spec, rng, out), *step)[-1].copy()
        if sink is not None:
            sink(out)
    return paths if sink is None else None


def _chain_state(spec: ContractiveChainSpec, rows: int, x: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """The states after the next `rows` innovation rows of `rng` from x, a
    row of states or a (2, width) pair of bounding chains that both run
    through each innovation row, with _advance_chain's step fl(psi(x) + eps).
    The rows are drawn BURN_ROWS at a time."""
    buffer = np.empty((min(BURN_ROWS, rows), x.shape[-1]))
    for start in range(0, rows, BURN_ROWS):
        for row in _draw_innovations(spec, rng, buffer[:min(BURN_ROWS, rows - start)]):
            x = spec.apply_map(x) + row
    return x


def _coupled_state(spec: ContractiveChainSpec, rows: int, width: int,
                   rng: np.random.Generator) -> Optional[np.ndarray]:
    """The states of `width` columns after `rows` innovation rows from x0,
    by coupling from the past (_burn_in_skip): the generator skips all but
    the last K rows, and chains from -S and S run through those. The
    generator is left after the rows. None, with the generator as it was,
    when the chain does not skip or any pair of bounds does not meet: the
    columns share one generator. Truncated-Gaussian draws take a random
    number of outputs, and sine-perturbed maps are not shown monotone in
    floating point: neither skips."""
    if spec.innovation != "uniform" or spec.map == "sine-perturbed":
        return None
    skip, bound = _burn_in_skip(rows, spec.a, spec.x0, spec.state_bound(), [rng.bit_generator])
    if not skip:
        return None
    saved = rng.bit_generator.state
    rng.bit_generator.advance(skip * width)
    pair = _chain_state(spec, rows - skip, np.repeat([[-bound], [bound]], width, axis=1), rng)
    x, met = _bounds_meet(pair.ravel())
    if met.all():
        return x
    rng.bit_generator.state = saved
    return None


def _bounding_rows(a: float) -> float:
    """K, the rows _burn_in_skip's bounding chains run: enough for |a|^K <= 2^-90, at least 128."""
    if abs(a) >= 1.0:  # no K is enough, and rho <phi, phi>_w may round to 1: never skip
        return math.inf
    return 128 if a == 0 else max(128, math.ceil(90 * math.log(2) / -math.log(abs(a))))


def _burn_in_skip(burn: int, coef: float, start: float, stationary: float,
                  gens: Sequence[np.random.BitGenerator], block: int = 1) -> tuple[int, float]:
    """(skip, S) for `burn` burn-in rows of x_t = f(x_{t-1}) + d_t from
    x_0 = start, f being coef x or a clip of it, and |x_t| <= stationary
    almost surely: the early rows that the paths drawn by `gens` need not
    draw, the most whole `block`s that leave K = _bounding_rows(coef) rows or
    more, and the start S = 2 max(|start|, stationary) of the bounding
    chains. skip is 0 when S is not a float, when a generator does not
    advance exactly, or when no block is left (always, once K = inf).

    The sandwiching of coupling from the past (Propp and Wilson 1996): a PCG64
    uniform draw takes one 64-bit output per value, so advancing a generator
    by the skipped rows' outputs skips them exactly, unless it holds a
    buffered 32-bit half, which advance would drop. Chains from -S and S
    bracket the unknown state after them. fl(coef x), the clip and fl(y + d)
    are monotone in x (coef < 0 swaps the pair at each step, and it still
    brackets), so where the pair ends on one value after the drawn rows, the
    true chain ends there too. Equal values are equal bits except at zero,
    whose sign the bounds cannot tell, so _bounds_meet takes no zero end.
    """
    keep = _bounding_rows(coef)
    bound = 2.0 * max(abs(start), stationary)
    exact = all(isinstance(g, np.random.PCG64) and not g.state["has_uint32"] for g in gens)
    skips = burn > keep and math.isfinite(bound) and exact
    return (burn - keep) // block * block if skips else 0, bound


def _bounds_meet(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of the stacked ends of the bounding chains from -S and from S: the
    first half, and where each pair met, on one value other than zero
    (_burn_in_skip)."""
    low, high = np.split(ends, 2)
    return low, (low == high) & (low != 0)


def _advance_chain(x: np.ndarray, eps: np.ndarray, coef: float,
                   apply_map: Optional[Callable] = None) -> np.ndarray:
    """States x_1, ..., x_rows after x_0 = x, written over the innovation
    rows of `eps`: x_t = coef * x_{t-1} + eps[t - 1], or apply_map(x_{t-1})
    + eps[t - 1] when a map is given. The columns advance together, one row
    per step, coef * x going to one scratch row. A single column of the
    linear step runs as the scalar recursion of _ar1_path, which performs
    the identical multiply-add."""
    if apply_map is None and eps.shape[1] == 1:
        eps[:, 0] = _ar1_path(coef, eps[:, 0], float(x[0]))[1:]
        return eps
    prod = np.empty(eps.shape[1])
    for row in eps:
        row += np.multiply(coef, x, out=prod) if apply_map is None else apply_map(x)
        x = row
    return eps


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


@lru_cache(maxsize=8)
def _far1_frame(spec: Far1Spec, grid_size: int):
    """A checked one-curve path on the uniform grid of `grid_size` points in
    the frame [phi; b_1; ...; b_M] of the spec's paths (phi the eigenfunction,
    b_m = sqrt(2) sin(pi m u) the innovation basis), with its Gram factor;
    then <b_m, phi>_w, <phi, phi>_w and a gaussian-bump spec's operator. The
    arrays are read-only: every path of one (spec, grid_size) shares them, and
    a separable path derives from this one without checking them again."""
    if grid_size < 8:
        raise ValidationError("grid_size must be >= 8")
    grid = uniform_grid(grid_size)
    modes = np.arange(1, spec.noise_terms + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * modes[:, None] * grid[None, :])
    frame = np.vstack([spec.eigenfunction(grid), basis])
    wphi = trapezoid_weights(grid) * frame[0]
    path, loading = FunctionalPath(grid, np.zeros((1, len(frame))), frame=frame), frame[1:] @ wphi
    op = (_bump_operator(grid, spec.rho, spec.bump_width) if spec.kernel == "gaussian-bump"
          else np.empty(0))
    for array in (grid, frame, path.gram_factor, loading, op):
        array.flags.writeable = False
    return path, loading, float(wphi @ frame[0]), op


def _far1_rows(spec: Far1Spec, n: int) -> tuple[int, int]:
    """(first kept row, rows) of a path's coefficients: row t - 1 drives X_t."""
    if n < 1:
        raise ValidationError("path length must be >= 1")
    return max(spec.burn_in, 1) - 1 if spec.kernel == "separable" else 0, spec.burn_in + n - 1


def _far1_coeffs(spec: Far1Spec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the next innovation coefficient rows: the values and end
    state of rng.uniform(-sqrt(3), sqrt(3)), scaled by noise_scale / m."""
    _uniform_fill(rng, math.sqrt(3.0), out)
    out *= spec.noise_scale / np.arange(1, spec.noise_terms + 1)
    return out


def far1_scores(spec: Far1Spec, n: int, grid_size: int, streams) -> tuple[np.ndarray, list]:
    """Draw FAR(1) paths of length n, `count` from each (generator, count) of
    `streams` in turn, as simulate_far1 draws them, and run all their
    phi-score recursions c_t = rho <phi, phi>_w c_{t-1} + d_{t-1} together.
    Path j's draw is split at its first kept row, with the values of one
    draw, and states[j] is its generator state there. Only the drive
    d = coeffs @ <b, phi>_w is kept, one product over all of its drawn rows;
    the burn-in rows run in their own array, then the kept rows in place in
    column j of `scores` (no rows for a gaussian-bump path).

    A long burn-in is mostly not drawn (_burn_in_skip): each path skips its
    first `skip` rows, a whole number of SKIP_ROWS blocks, so every drawn row
    keeps its place in the whole-path product's row blocks and its bits. Each
    path has its own generator, so a column whose bounds do not meet is
    redrawn whole from its start state, and its generator is put back.
    Scores, states and end states are those of the full draw either way.
    """
    (first, rows), width = _far1_rows(spec, n), sum(count for _, count in streams)
    _, loading, phi_sq, _ = _far1_frame(spec, grid_size)
    coef, c0 = spec.rho * phi_sq, float(spec.initial == "eigenfunction") * phi_sq  # X_0 = c0 phi
    paths = [g for g, count in streams for _ in range(count)]
    # |d| <= sqrt(3) noise_scale sum_m |<b_m, phi>_w| / m, and no bound holds once coef rounds to 1
    drive_bound = math.sqrt(3.0) * spec.noise_scale * float(
        np.abs(loading) @ (1.0 / np.arange(1, spec.noise_terms + 1)))
    stationary = drive_bound / (1.0 - abs(coef)) if abs(coef) < 1.0 else math.inf
    gens = [g.bit_generator for g, _ in streams]
    skip, bound = _burn_in_skip(first, coef, c0, stationary, gens, SKIP_ROWS)
    coeffs, burn = np.empty((rows, spec.noise_terms)), np.empty((first - skip, width))
    scores = np.empty((rows - first if spec.kernel == "separable" else 0, width))
    starts, states = [], []
    for j, rng in enumerate(paths):
        if skip:
            starts.append(rng.bit_generator.state)
            rng.bit_generator.advance(skip * spec.noise_terms)
        _far1_coeffs(spec, rng, coeffs[skip:first])
        states.append(rng.bit_generator.state)
        _far1_coeffs(spec, rng, coeffs[first:])
        if len(scores):
            drive = coeffs[skip:] @ loading
            burn[:, j], scores[1:, j] = drive[:first - skip], drive[first - skip:-1]
    if not len(scores):
        return scores, states
    if not skip:
        scores[0] = _advance_chain(np.full(width, c0), burn, coef)[-1] if first else c0
    else:
        ends = _advance_chain(np.repeat([-bound, bound], width), np.tile(burn, 2), coef)[-1]
        scores[0], met = _bounds_meet(ends)
        for j in np.flatnonzero(~met):
            gen = paths[j].bit_generator
            end, gen.state = gen.state, starts[j]
            drive = _far1_coeffs(spec, paths[j], coeffs) @ loading
            gen.state = end
            scores[0, j] = _ar1_path(coef, drive[:first], c0)[-1]
    _advance_chain(scores[0], scores[1:], coef)
    return scores, states


def simulate_far1(spec: Far1Spec, n: int, grid_size: int, seed: Seed,
                  scores: Optional[np.ndarray] = None) -> FunctionalPath:
    """Curve-valued AR(1) path of length n on a uniform grid.

    The separable operator rho * phi <phi, .>_w has rank one, so its path is
    driven by the scalar c_t = <phi, X_t>_w, itself an AR(1) with coefficient
    rho <phi, phi>_w, which far1_scores runs. Every kept curve
    X_t = rho c_{t-1} phi + sum_m coeffs_{t-1,m} b_m then lies in the span of
    the frame [phi; b_1; ...; b_M], and the path holds its coordinates
    (rho c_{t-1}, coeffs_{t-1}) and that frame: no curve is built until
    `.curves` is read. The gaussian-bump operator is iterated curve by curve,
    and its path is grid-valued.

    Given `scores`, its far1_scores column, and `seed` in the state recorded
    there, only the kept rows are drawn and the scores are checked against
    them. Alone, the path is a batch of one.
    """
    first, rows = _far1_rows(spec, n)
    template, loading, phi_sq, op = _far1_frame(spec, grid_size)
    rng = np.random.default_rng(seed)
    if scores is None:
        batch, (state,) = far1_scores(spec, n, grid_size, [(rng, 1)])
        rng.bit_generator.state = state
        scores = batch[:, 0]
    coeffs = _far1_coeffs(spec, rng, np.empty((rows - first, spec.noise_terms)))
    if scores.shape != (len(coeffs) if spec.kernel == "separable" else 0,):
        raise ValidationError(f"scores of shape {scores.shape} do not fit the path's kept rows")

    if spec.kernel == "separable":
        gap = scores[1:] - spec.rho * phi_sq * scores[:-1] - coeffs[:-1] @ loading
        # BLAS may round the last rows of this product otherwise than far1_scores' whole-path one
        if not (np.abs(gap) <= 1e-12 * np.abs(scores).max(initial=0.0)).all():
            raise ValidationError("the scores do not follow the phi-score recursion of the draws")
        coords = np.zeros((n, 1 + spec.noise_terms))
        lead = n - len(coeffs)  # 1 when burn_in = 0: X_0 = 1 or 0 times phi is kept
        coords[:lead, 0] = float(spec.initial == "eigenfunction")
        coords[lead:, 0] = spec.rho * scores
        coords[lead:, 1:] = coeffs
        return template._derive(coords=coords)

    x = template.frame[0].copy() if spec.initial == "eigenfunction" else np.zeros(grid_size)
    noise = coeffs @ template.frame[1:]
    curves = np.empty((n, grid_size))
    if spec.burn_in == 0:
        curves[0] = x
    for t in range(1, rows + 1):
        x = op @ x + noise[t - 1]
        if t >= spec.burn_in:
            curves[t - spec.burn_in] = x
    return FunctionalPath(template.grid, curves)


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


def make_psi(spec: PsiSpec, grid: np.ndarray) -> Callable[[FunctionalPath], np.ndarray]:
    """Resolve a PsiSpec into the functional of every curve of a path on
    `grid`. Both read the path's coordinates: "linear" through
    FunctionalPath.inner, "norm" through FunctionalPath.distances."""
    if spec.name == "linear":
        weight = np.asarray(spec.weight, dtype=float)
        if weight.shape != grid.shape:
            raise ConfigError("psi weight curve must live on the path grid")
        return lambda path: path.inner(weight)
    return lambda path: path.distances()


def make_regression_sample(
    path: FunctionalPath, psi: PsiSpec, noise_sd: float, seed: Seed
) -> FunctionalPath:
    """Fill responses Y_k = psi(X_k) + eps_k with centered Gaussian noise."""
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    signal = make_psi(psi, path.grid)(path)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=path.n_curves) if noise_sd > 0 else 0.0
    return path._derive(responses=signal + noise)


@lru_cache(maxsize=8)
def transfer_chain(spec: ContractiveChainSpec) -> tuple[np.ndarray, np.ndarray, FiniteChain]:
    """Ulam's discretisation of the chain's transition kernel (Ulam 1960; Li
    1976): the edges of TRANSFER_CELLS equal cells of [-S, S], S the state
    bound, the CDF at the edges of the stationary law, uniform within each
    cell, and the finite chain of the cells reachable from the cell of 0
    (the rest would leave it reducible), of which there must be 2 or more: a
    near-unit-root chain's S can make the cells far wider than the
    innovation (a DomainError). Row i of its transition matrix is
    P(psi(x) + eps in cell j), from the innovation's CDF, averaged over the
    midpoints x of TRANSFER_POINTS equal parts of cell i; the outer cells
    take the mass beyond [-S, S]. The arrays are read-only: the callers of
    a spec share them."""
    if spec.innovation == "none":
        raise DomainError("field 'process.innovation': 'none' has no density to discretise")
    span = spec.state_bound()
    if not math.isfinite(2.0 * span):
        raise DomainError(f"the state bound S = {span:.4g} overflows the cells of [-S, S]")
    edges = np.linspace(-span, span, TRANSFER_CELLS + 1)
    x = np.linspace(-span, span, 2 * TRANSFER_CELLS * TRANSFER_POINTS + 1)[1::2]
    below = np.zeros((TRANSFER_CELLS, TRANSFER_CELLS - 1))
    for point in x.reshape(TRANSFER_CELLS, TRANSFER_POINTS).T:  # one point of each cell
        t = edges[1:-1] - spec.apply_map(point)[:, None]  # below[i, j] += P(eps <= t[i, j])
        if spec.innovation == "uniform":
            below += np.clip(t / (2.0 * spec.halfwidth) + 0.5, 0.0, 1.0)
        else:  # the normal CDF restricted to [-trunc, trunc], through math.erf
            scale = spec.sigma * math.sqrt(2.0)
            erf = np.frompyfunc(math.erf, 1, 1)(np.clip(t, -spec.trunc, spec.trunc) / scale)
            below += 0.5 + 0.5 * erf.astype(float) / math.erf(spec.trunc / scale)
    rows = np.diff(below / TRANSFER_POINTS, prepend=0.0, append=1.0)
    keep = _reachable(rows > 0)[np.searchsorted(edges, 0.0, "right") - 1]
    if keep.sum() < 2:  # one cell is a constant chain: beta would read 0, centring 1
        raise DomainError(
            f"field 'process.a': at a = {spec.a} the cells are 2S/{TRANSFER_CELLS} = "
            f"{2.0 * span / TRANSFER_CELLS:.4g} wide against an innovation of width "
            f"{2.0 * spec.innovation_bound():.4g}, so only {keep.sum()} of the "
            f"{TRANSFER_CELLS} cells is reachable; the transfer operator needs 2 or more")
    chain = FiniteChain(rows[np.ix_(keep, keep)])
    cdf = np.cumsum(np.bincount(np.flatnonzero(keep) + 1, chain.stationary, TRANSFER_CELLS + 1))
    for array in (edges, cdf, chain.transition, chain.stationary):
        array.flags.writeable = False
    return edges, cdf, chain


def estimate_chain_mixing(spec: ContractiveChainSpec, lags: Sequence[int] = (1, 2, 3, 4, 5)):
    """Exponential-decay fit (kappa0, kappa1, R^2) of the exact lag
    coefficients beta(k), k in `lags`, of transfer_chain's chain on all its
    cells: the chain's own beta up to the discretisation, from no random
    draw. A constant map gives i.i.d. states and beta = 0: a FitError. A
    kappa1 of at most 1e-9, the fit's zero, is no decay (near a = -1 the
    reachable cells can swap at every step): a DomainError."""
    _, _, chain = transfer_chain(spec)
    if (chain.transition == chain.transition[0]).all():
        raise FitError("beta is 0 at every lag: a constant map gives i.i.d. states, no decay")
    fit = fit_geometric_decay(list(lags), [markov_beta_lag(chain, lag) for lag in lags])
    if fit.kappa1 <= 1e-9:
        raise DomainError(
            f"field 'process.a': at a = {spec.a} the beta of the {chain.n_states} reachable "
            f"cells does not decay over lags {list(lags)} (fitted kappa1 = {fit.kappa1:.3g}), "
            "so the chain has no mixing rate to fit")
    return fit
