"""Plain-text experiment configuration.

Format: one `key = value` per line, `#` comments, values are scalars or
comma-separated lists. Nested blocks use dotted keys (process.map = linear).
Parsing reports the offending line, validation reports the offending field;
the CLI turns either into exit code 2. All validation happens in
resolve_config: it parses every key the suite reads once, builds the
process, psi and kernel specs and resolves every t from t_rule, so a config
error stops a run before any output is written.

Schema (defaults in parentheses; -- means required):

    suite              mixing | concentration | fkr | verify-all   (--)
    seed               unsigned 64-bit integer                      (--)
    reps               replications; >= 100 for MC suites  (suite-specific)
    output             report directory ($BETAMIX_OUTPUT_DIR, else betamix-out)
    workers            worker processes                              (1)

    process.kind       contractive-chain for concentration, far1 for fkr;
                       any other value is an error          (the suite's)
    process.<field>    every field of processes.ContractiveChainSpec
                       (concentration) and processes.Far1Spec (fkr),
                       read as its default's type           (the field's)

    fspec              first | odd-clip | odd-clip-damped | sine-product |
                       ball-indicator                    (odd-clip-damped)
    t_rule             last | middle | index:<k>                  (last)
    grid.n             comma ints   (suite-specific, nonempty; fkr: >= 100)
    grid.epsilon       comma floats        (concentration, nonempty)
    grid.A             comma floats        (concentration laplace; empty)
                       (no value may repeat within a grid)
    gamma              Laplace argument; gamma*B under its cap, B the
                       fspec's bound      (auto from fitted mixing rate)

    kernel             uniform | downslope-linear | quadratic-decreasing
                                                    (downslope-linear)
    psi                norm | linear:eigenfunction | linear:constant (norm)
    noise_sd           regression noise sd                         (0.1)
    grid.theta         bandwidth exponent in (0, 1/2)              (0.3)
    grid_size          curve grid size                              (64)

    mixing.joints mixing.chains   counts, each >= 1              (200, 100)
    mixing.max_states  largest model size, 2..12                    (5)
                       (mixing.* keys are read by mixing and verify-all)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .concentration import FSPEC_NAMES
from .errors import ConfigError
from .processes import ContractiveChainSpec, Far1Spec, PsiSpec, uniform_grid
from .regression import MIN_REFERENCE_CURVES, KernelSpec

_SUITE_PROCESS = {"concentration": "contractive-chain", "fkr": "far1"}


_DEFAULTS = {
    "process.kind": None,
    **{f"process.{f.name}": str(f.default) for spec in (ContractiveChainSpec, Far1Spec)
       for f in fields(spec)},
    "fspec": "odd-clip-damped",
    "t_rule": "last",
    "grid.n": "",
    "grid.epsilon": "",
    "grid.A": "",
    "gamma": "",
    "kernel": "downslope-linear",
    "psi": "norm",
    "noise_sd": "0.1",
    "grid.theta": "0.3",
    "grid_size": "64",
    "mixing.joints": "200",
    "mixing.chains": "100",
    "mixing.max_states": "5",
    "workers": "1",
    "reps": "",
    "output": "",
    "seed": "",
    "suite": "",
}

KNOWN_KEYS = frozenset(_DEFAULTS)

_SUITE_DEFAULT_REPS = {"concentration": 10_000, "fkr": 200}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a flat mapping, with line diagnostics."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _to_int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: expected an integer, got {raw!r}") from exc


def _to_float(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: expected a number, got {raw!r}") from exc


def _to_list(raw: str, name: str, parse) -> tuple:
    """Parsed comma-separated grid values; a repeated value would run its
    grid point twice, so it is an error."""
    if not raw.strip():
        return ()
    values = tuple(parse(tok.strip(), name) for tok in raw.split(","))
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"field {name!r}: repeated value(s) {repeated}")
    return values


def resolve_t(rule: str, n: int) -> int:
    """Query index in [1, n] named by a t_rule: last | middle | index:<k>."""
    if rule == "last":
        return n
    if rule == "middle":
        return max(n // 2, 1)
    if rule.startswith("index:"):
        t = _to_int(rule.split(":", 1)[1], "t_rule")
        if not 1 <= t <= n:
            raise ConfigError(f"field 't_rule': index {t} outside [1, {n}]")
        return t
    raise ConfigError(f"field 't_rule': unsupported value {rule!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated experiment description.

    `raw` keeps the merged key = value strings for the manifest; the typed
    fields below it hold what the suite reads and stay empty for the others.
    """

    suite: str
    seed: int
    reps: int
    output: str
    workers: int
    raw: dict[str, str] = field(repr=False)
    process: Union[ContractiveChainSpec, Far1Spec, None] = None
    fspec_name: str = ""
    n_points: tuple[tuple[int, int], ...] = ()     # (n, t) in grid order
    epsilons: tuple[float, ...] = ()
    a_points: tuple[tuple[float, int], ...] = ()   # (A, t) in ascending A
    gamma: Optional[float] = None      # None: derive from the fitted mixing rate
    psi: Optional[PsiSpec] = None
    kernel: Optional[KernelSpec] = None
    noise_sd: float = 0.0
    theta: float = 0.0
    grid_size: int = 0
    mixing_joints: int = 0
    mixing_chains: int = 0
    mixing_max_states: int = 0


def _spec(spec: type, r: dict[str, str]):
    """The process spec of the process.<field> keys, each parsed by the type
    of the field's default."""
    parse = {str: lambda raw, _: raw, float: _to_float, int: _to_int}
    return spec(**{f.name: parse[type(f.default)](r[f"process.{f.name}"], f"process.{f.name}")
                   for f in fields(spec)})


def _n_points(r: dict[str, str], suite: str) -> tuple[tuple[int, int], ...]:
    n_grid = _to_list(r["grid.n"], "grid.n", _to_int)
    if not n_grid:
        raise ConfigError(f"field 'grid.n': {suite} suite needs a nonempty n grid")
    if any(n < 3 for n in n_grid):
        raise ConfigError("field 'grid.n': every n must be >= 3")
    return tuple((n, resolve_t(r["t_rule"], n)) for n in n_grid)


def _concentration_fields(r: dict[str, str]) -> dict:
    process = _spec(ContractiveChainSpec, r)
    if r["fspec"] not in FSPEC_NAMES:
        raise ConfigError(
            f"field 'fspec': unsupported value {r['fspec']!r}; choose from {FSPEC_NAMES}"
        )
    epsilons = _to_list(r["grid.epsilon"], "grid.epsilon", _to_float)
    if not epsilons:
        raise ConfigError(
            "field 'grid.epsilon': concentration suite needs a nonempty epsilon grid"
        )
    if not all(math.isfinite(e) and e > 0 for e in epsilons):
        raise ConfigError("field 'grid.epsilon': every epsilon must be finite and > 0")
    a_grid = _to_list(r["grid.A"], "grid.A", _to_float)
    # A >= 14 is the Laplace bound's fixed floor; A >= 2 kappa1 needs the fit
    if not all(math.isfinite(a) and a >= 14 for a in a_grid):
        raise ConfigError("field 'grid.A': every A must be finite and >= 14")
    gamma = _to_float(r["gamma"], "gamma") if r["gamma"].strip() else None
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError("field 'gamma': must be finite and > 0")
    return dict(
        process=process,
        fspec_name=r["fspec"],
        n_points=_n_points(r, "concentration"),
        epsilons=epsilons,
        a_points=tuple((a, resolve_t(r["t_rule"], math.floor(a))) for a in sorted(a_grid)),
        gamma=gamma,
    )


def _psi_spec(name: str, process: Far1Spec, grid_size: int) -> PsiSpec:
    if name == "norm":
        return PsiSpec("norm")
    if name not in ("linear:eigenfunction", "linear:constant"):
        raise ConfigError(f"field 'psi': unsupported value {name!r}")
    grid = uniform_grid(grid_size)
    if name.endswith("eigenfunction"):
        return PsiSpec("linear", weight=process.eigenfunction(grid))
    return PsiSpec("linear", weight=np.ones(grid.size))


def _fkr_fields(r: dict[str, str]) -> dict:
    process = _spec(Far1Spec, r)
    grid_size = _to_int(r["grid_size"], "grid_size")
    if grid_size < 8:
        raise ConfigError("field 'grid_size': must be >= 8")
    theta = _to_float(r["grid.theta"], "grid.theta")
    if not 0.0 < theta < 0.5:
        raise ConfigError("field 'grid.theta': must lie in (0, 1/2)")
    noise_sd = _to_float(r["noise_sd"], "noise_sd")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError("field 'noise_sd': must be finite and >= 0")
    n_points = _n_points(r, "fkr")
    # with one n the error-decrease checks would hold by construction
    if len(n_points) < 2:
        raise ConfigError("field 'grid.n': fkr suite needs at least 2 n values")
    # each replication's reference sample has n curves
    if min(n for n, _ in n_points) < MIN_REFERENCE_CURVES:
        raise ConfigError(f"field 'grid.n': every fkr n must be >= {MIN_REFERENCE_CURVES}, "
                          "the fewest reference curves of a small-ball estimate")
    return dict(
        process=process,
        psi=_psi_spec(r["psi"], process, grid_size),
        kernel=KernelSpec(r["kernel"]),
        n_points=n_points,
        noise_sd=noise_sd,
        theta=theta,
        grid_size=grid_size,
    )


def _mixing_fields(r: dict[str, str]) -> dict:
    joints, chains, max_states = (
        _to_int(r[key], key) for key in ("mixing.joints", "mixing.chains", "mixing.max_states")
    )
    for key, count in (("mixing.joints", joints), ("mixing.chains", chains)):
        if count < 1:
            raise ConfigError(f"field {key!r}: must be >= 1")
    # a random model has at least 2 states; at most 12 keeps each exhaustive
    # check small: alpha enumerates 2^12 row sets
    if not 2 <= max_states <= 12:
        raise ConfigError("field 'mixing.max_states': must lie in 2..12")
    return dict(mixing_joints=joints, mixing_chains=chains, mixing_max_states=max_states)


_SUITE_FIELDS = {"mixing": _mixing_fields, "concentration": _concentration_fields,
                 "fkr": _fkr_fields, "verify-all": _mixing_fields}
SUITES = tuple(_SUITE_FIELDS)


def resolve_config(
    mapping: dict[str, str], overrides: Optional[dict[str, str]] = None
) -> ExperimentConfig:
    """Merge defaults, file values, and flag overrides, then parse and check
    every key the suite reads; no suite raises ConfigError afterwards."""
    merged = {k: v for k, v in _DEFAULTS.items() if v is not None}
    merged.update(mapping)
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"field {key!r}: unknown key")
        merged[key] = value

    suite = merged["suite"]
    if suite not in SUITES:
        raise ConfigError(f"field 'suite': expected one of {SUITES}, got {suite!r}")

    if not merged["seed"].strip():
        raise ConfigError("field 'seed': required, no wall-clock default")
    seed = _to_int(merged["seed"], "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("field 'seed': must fit an unsigned 64-bit integer")

    if merged["reps"].strip():
        reps = _to_int(merged["reps"], "reps")
    else:
        reps = _SUITE_DEFAULT_REPS.get(suite, 0)
    if suite in _SUITE_DEFAULT_REPS and reps < 100:
        raise ConfigError(f"field 'reps': MC suites need reps >= 100, got {reps}")

    output = merged["output"].strip() or os.environ.get("BETAMIX_OUTPUT_DIR", "betamix-out")
    workers = _to_int(merged["workers"], "workers")
    if workers < 1:
        raise ConfigError("field 'workers': must be >= 1")

    if suite in _SUITE_PROCESS:
        kind = merged.get("process.kind", _SUITE_PROCESS[suite])
        if kind != _SUITE_PROCESS[suite]:
            raise ConfigError(
                f"field 'process.kind': {suite} suite simulates "
                f"{_SUITE_PROCESS[suite]!r}, got {kind!r}"
            )
    return ExperimentConfig(
        suite=suite, seed=seed, reps=reps, output=output, workers=workers, raw=merged,
        **_SUITE_FIELDS[suite](merged),
    )
