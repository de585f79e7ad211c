"""Plain-text experiment configuration.

Format: one `key = value` per line, `#` comments, values are scalars or
comma-separated lists. Nested blocks use dotted keys (process.map = linear).
Parsing reports the offending line, validation reports the offending field;
the CLI turns either into exit code 2.

Schema (defaults in parentheses; -- means required):

    suite              mixing | concentration | fkr | verify-all   (--)
    seed               unsigned 64-bit integer                      (--)
    reps               replications; >= 100 for MC suites  (suite-specific)
    output             report directory      ($BETAMIX_OUTPUT_DIR or cwd)
    workers            worker processes                              (1)

    process.kind       contractive-chain for concentration, far1 for fkr;
                       any other value is an error          (the suite's)
    process.map        linear | clipped-linear | sine-perturbed  (linear)
    process.a .b .clip_at                       (0.5, 0.0, 1.0)
    process.innovation uniform | truncated-gaussian | none      (uniform)
    process.halfwidth .sigma .trunc             (1.0, 1.0, 3.0)
    process.burn_in                             (1000)
    process.kernel     separable | gaussian-bump             (separable)
    process.rho .bump_width .noise_scale .noise_terms
                                                (0.5, 0.15, 0.3, 8)
    process.initial    zero | eigenfunction                     (zero)

    fspec              zero | first | odd-clip | odd-clip-damped |
                       sine-product | ball-indicator     (odd-clip-damped)
    t_rule             last | middle | index:<k>                  (last)
    grid.n             comma ints          (suite-specific, nonempty)
    grid.epsilon       comma floats        (concentration, nonempty)
    grid.A             comma floats        (concentration laplace; empty)
    gamma              Laplace argument    (auto from fitted mixing rate)
    bound.B            function bound override        (fspec's bound)

    kernel             uniform | downslope-linear | quadratic-decreasing
                                                    (downslope-linear)
    psi                norm | linear:eigenfunction | linear:constant (norm)
    noise_sd           regression noise sd                         (0.1)
    grid.theta         bandwidth exponent in (0, 1/2)              (0.3)
    grid_size          curve grid size                              (64)

    mixing.joints mixing.chains mixing.max_states   (200, 100, 5)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .processes import ContractiveChainSpec, Far1Spec, PsiSpec, uniform_grid

SUITES = ("mixing", "concentration", "fkr", "verify-all")
_SUITE_PROCESS = {"concentration": "contractive-chain", "fkr": "far1"}

_DEFAULTS = {
    "process.kind": None,
    "process.map": "linear",
    "process.a": "0.5",
    "process.b": "0.0",
    "process.clip_at": "1.0",
    "process.innovation": "uniform",
    "process.halfwidth": "1.0",
    "process.sigma": "1.0",
    "process.trunc": "3.0",
    "process.burn_in": "1000",
    "process.kernel": "separable",
    "process.rho": "0.5",
    "process.bump_width": "0.15",
    "process.noise_scale": "0.3",
    "process.noise_terms": "8",
    "process.initial": "zero",
    "fspec": "odd-clip-damped",
    "t_rule": "last",
    "grid.n": "",
    "grid.epsilon": "",
    "grid.A": "",
    "gamma": "",
    "bound.B": "",
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
    except OSError as exc:
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


def _to_int_list(raw: str, name: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    return tuple(_to_int(tok.strip(), name) for tok in raw.split(","))


def _to_float_list(raw: str, name: str) -> tuple[float, ...]:
    if not raw.strip():
        return ()
    return tuple(_to_float(tok.strip(), name) for tok in raw.split(","))


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
    """Resolved, validated experiment description."""

    suite: str
    seed: int
    reps: int
    output: str
    workers: int
    raw: dict[str, str] = field(repr=False)

    def __getitem__(self, key: str) -> str:
        return self.raw[key]

    def chain_spec(self) -> ContractiveChainSpec:
        r = self.raw
        return ContractiveChainSpec(
            map=r["process.map"],
            a=_to_float(r["process.a"], "process.a"),
            b=_to_float(r["process.b"], "process.b"),
            clip_at=_to_float(r["process.clip_at"], "process.clip_at"),
            innovation=r["process.innovation"],
            halfwidth=_to_float(r["process.halfwidth"], "process.halfwidth"),
            sigma=_to_float(r["process.sigma"], "process.sigma"),
            trunc=_to_float(r["process.trunc"], "process.trunc"),
            burn_in=_to_int(r["process.burn_in"], "process.burn_in"),
        )

    def far1_spec(self) -> Far1Spec:
        r = self.raw
        return Far1Spec(
            kernel=r["process.kernel"],
            rho=_to_float(r["process.rho"], "process.rho"),
            bump_width=_to_float(r["process.bump_width"], "process.bump_width"),
            noise_scale=_to_float(r["process.noise_scale"], "process.noise_scale"),
            noise_terms=_to_int(r["process.noise_terms"], "process.noise_terms"),
            burn_in=_to_int(r["process.burn_in"], "process.burn_in"),
            initial=r["process.initial"],
        )

    def psi_spec(self) -> PsiSpec:
        name = self.raw["psi"]
        if name == "norm":
            return PsiSpec("norm")
        if name in ("linear:eigenfunction", "linear:constant"):
            grid = uniform_grid(self.grid_size)
            if name.endswith("eigenfunction"):
                weight = self.far1_spec().eigenfunction(grid)
            else:
                weight = np.ones(grid.size)
            return PsiSpec("linear", weight=weight)
        raise ConfigError(f"field 'psi': unsupported value {name!r}")

    @property
    def n_grid(self) -> tuple[int, ...]:
        return _to_int_list(self.raw["grid.n"], "grid.n")

    @property
    def epsilon_grid(self) -> tuple[float, ...]:
        return _to_float_list(self.raw["grid.epsilon"], "grid.epsilon")

    @property
    def a_grid(self) -> tuple[float, ...]:
        return _to_float_list(self.raw["grid.A"], "grid.A")

    @property
    def theta(self) -> float:
        return _to_float(self.raw["grid.theta"], "grid.theta")

    @property
    def grid_size(self) -> int:
        return _to_int(self.raw["grid_size"], "grid_size")

    @property
    def t_rule(self) -> str:
        return self.raw["t_rule"]

    @property
    def fspec_name(self) -> str:
        return self.raw["fspec"]

    @property
    def kernel_name(self) -> str:
        return self.raw["kernel"]

    @property
    def noise_sd(self) -> float:
        return _to_float(self.raw["noise_sd"], "noise_sd")

    @property
    def gamma(self) -> Optional[float]:
        """Laplace argument, or None to derive it from the fitted mixing rate."""
        raw = self.raw["gamma"]
        return _to_float(raw, "gamma") if raw.strip() else None

    @property
    def bound_b(self) -> Optional[float]:
        """Function bound override, or None for the fspec's own bound."""
        raw = self.raw["bound.B"]
        return _to_float(raw, "bound.B") if raw.strip() else None


def resolve_config(
    mapping: dict[str, str], overrides: Optional[dict[str, str]] = None
) -> ExperimentConfig:
    """Merge defaults, file values, and flag overrides; validate invariants."""
    merged = {k: v for k, v in _DEFAULTS.items() if v is not None}
    merged.update(mapping)
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"field {key!r}: unknown key")
        merged[key] = value

    suite = merged.get("suite", "")
    if suite not in SUITES:
        raise ConfigError(f"field 'suite': expected one of {SUITES}, got {suite!r}")

    seed_raw = merged.get("seed", "")
    if not seed_raw.strip():
        raise ConfigError("field 'seed': required, no wall-clock default")
    seed = _to_int(seed_raw, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("field 'seed': must fit an unsigned 64-bit integer")

    reps_raw = merged.get("reps", "")
    if reps_raw.strip():
        reps = _to_int(reps_raw, "reps")
    else:
        reps = _SUITE_DEFAULT_REPS.get(suite, 0)
    if suite in ("concentration", "fkr") and reps < 100:
        raise ConfigError(f"field 'reps': MC suites need reps >= 100, got {reps}")

    output = merged.get("output", "").strip() or os.environ.get(
        "BETAMIX_OUTPUT_DIR", "betamix-out"
    )
    workers = _to_int(merged.get("workers", "1"), "workers")
    if workers < 1:
        raise ConfigError("field 'workers': must be >= 1")

    config = ExperimentConfig(
        suite=suite, seed=seed, reps=reps, output=output, workers=workers, raw=merged
    )
    if suite in _SUITE_PROCESS:
        kind = merged.get("process.kind", _SUITE_PROCESS[suite])
        if kind != _SUITE_PROCESS[suite]:
            raise ConfigError(
                f"field 'process.kind': {suite} suite simulates "
                f"{_SUITE_PROCESS[suite]!r}, got {kind!r}"
            )
        if not config.n_grid:
            raise ConfigError(f"field 'grid.n': {suite} suite needs a nonempty n grid")
        if any(n < 3 for n in config.n_grid):
            raise ConfigError("field 'grid.n': every n must be >= 3")
    if suite == "concentration":
        if not config.epsilon_grid:
            raise ConfigError(
                "field 'grid.epsilon': concentration suite needs a nonempty epsilon grid"
            )
        if not all(np.isfinite(e) and e > 0 for e in config.epsilon_grid):
            raise ConfigError("field 'grid.epsilon': every epsilon must be finite and > 0")
        # A >= 14 is the Laplace bound's fixed floor; A >= 2 kappa1 needs the fit
        if not all(np.isfinite(a) and a >= 14 for a in config.a_grid):
            raise ConfigError("field 'grid.A': every A must be finite and >= 14")
        for key, value in (("gamma", config.gamma), ("bound.B", config.bound_b)):
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ConfigError(f"field {key!r}: must be finite and > 0")
    if suite == "fkr":
        if config.grid_size < 8:
            raise ConfigError("field 'grid_size': must be >= 8")
        if not 0.0 < config.theta < 0.5:
            raise ConfigError("field 'grid.theta': must lie in (0, 1/2)")
        if not (np.isfinite(config.noise_sd) and config.noise_sd >= 0):
            raise ConfigError("field 'noise_sd': must be finite and >= 0")
        # with one n the error-decrease checks would hold by construction
        if len(set(config.n_grid)) < 2:
            raise ConfigError("field 'grid.n': fkr suite needs at least 2 distinct n values")
    if suite == "mixing":
        for key in ("mixing.joints", "mixing.chains", "mixing.max_states"):
            if _to_int(merged[key], key) < 1:
                raise ConfigError(f"field {key!r}: must be >= 1")
        if _to_int(merged["mixing.max_states"], "mixing.max_states") > 12:
            raise ConfigError("field 'mixing.max_states': exhaustive checks cap at 12")
    return config
