"""Config-driven experiment suites with machine-readable reports.

Subcommands: mixing, concentration, fkr, verify-all, plotdata. Every suite
writes CSV reports whose bodies are byte-identical across reruns of the same
config (timestamps live only in the JSON manifest) and exits 0 when all of
its declared checks pass, 1 when a check fails, 2 on config/usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .concentration import (
    _LOG_GRID,
    calibrate_corollary,
    corollary_bound,
    empirical_tail_grid,
    laplace_section,
    make_fspec,
    rate_argument,
    truncate,
)
from .config import SUITES, ExperimentConfig, load_config_file, resolve_config
from .errors import BetamixError, ConfigError, FitError, ValidationError
from .mixing import (
    FiniteChain,
    FiniteJointDistribution,
    alpha_exact,
    beta_exact,
    davydov_check,
    ibragimov_check,
    markov_beta_lag,
)
from .processes import FunctionalPath, uniform_grid
from .regression import KernelSpec, RegressionFit, dynamic_forecast_experiment, m_constant
from .seeding import Stream, keyed_rng, one_blas_thread, parallel


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    checks: tuple[Check, ...]

    @property
    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 1


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _write_manifest(
    path: str,
    config: ExperimentConfig,
    checks: list[Check],
    reports: list[str],
    execution: dict,
    diagnostics: dict,
) -> None:
    resolved = dict(sorted(config.raw.items()))
    manifest = {
        "suite": config.suite,
        "seed": config.seed,
        "reps": config.reps,
        "execution": execution,
        "diagnostics": diagnostics,
        "config": resolved,
        "config_sha256": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode()
        ).hexdigest(),
        "versions": {
            "betamix": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "checks": [dataclasses.asdict(c) for c in checks],
        "reports": reports,
        "created_unix": time.time(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


MIXING_HEADER = ["check_name", "lhs", "rhs", "holds", "seed"]


def _checks_from_rows(rows: list[tuple]) -> list[Check]:
    """One check per row family, in order of first appearance: a family is the
    row name up to its first '[' and passes when every one of its rows holds."""
    families: dict[str, bool] = {}
    for name, _, _, holds, _ in rows:
        family = name.split("[", 1)[0]
        families[family] = families.get(family, True) and bool(holds)
    return [Check(name=k, passed=v) for k, v in families.items()]


def _mixing_rows(config: ExperimentConfig) -> list[tuple]:
    # the random models draw from the root stream, which no keyed stream shares
    rng = np.random.default_rng(config.seed)
    seed = config.seed
    max_states = config.mixing_max_states
    rows: list[tuple] = []

    def add(name: str, lhs: float, rhs: float):
        rows.append((name, lhs, rhs, bool(lhs <= rhs + 1e-12), seed))

    for i in range(config.mixing_joints):
        m, ell = (int(v) for v in rng.integers(2, max_states + 1, size=2))
        joint = FiniteJointDistribution(rng.dirichlet(np.ones(m * ell)).reshape(m, ell))
        a, b = alpha_exact(joint), beta_exact(joint)
        add(f"alpha_le_quarter[{i}]", a, 0.25)
        add(f"alpha_beta_ordering[{i}]", 2.0 * a, b)
        add(f"beta_le_one[{i}]", b, 1.0)
        h = rng.normal(0.0, 2.0, size=(m, ell))
        for p in (1.5, 2.0, 3.0, math.inf):
            res = davydov_check(joint, h, p)
            name = f"davydov[p={'inf' if math.isinf(p) else p}][{i}]"
            rows.append((name, res.lhs, res.rhs, res.holds, seed))

    for i in range(config.mixing_chains):
        m = int(rng.integers(2, min(max_states, 4) + 1))
        chain = FiniteChain.from_transition(rng.dirichlet(np.ones(m), size=m))
        n_funcs = int(rng.integers(2, 5))
        lags = np.sort(rng.choice(np.arange(1, 9), size=n_funcs, replace=False))
        funcs = [rng.uniform(0.0, 2.0, size=m) for _ in range(n_funcs)]
        res = ibragimov_check(chain, funcs, lags)
        rows.append((f"ibragimov[{i}]", res.lhs, res.rhs, res.holds, seed))
        lag = int(rng.integers(1, 6))
        direct = markov_beta_lag(chain, lag)
        via_joint = beta_exact(chain.lag_joint(lag))
        add(f"markov_lag_consistency[{i}]", abs(direct - via_joint), 0.0)
    return rows


def run_mixing_suite(config: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    rows = _mixing_rows(config)
    return _checks_from_rows(rows), {"mixing_report.csv": (MIXING_HEADER, rows)}, {}


CONCENTRATION_HEADER = ["experiment_id", "n", "epsilon", "B", "p_hat", "ci", "bound_value", "seed"]
LAPLACE_HEADER = ["experiment_id", "A", "gamma", "estimate", "std_error", "bound_value", "C", "seed"]


def run_concentration_suite(config: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    """The Laplace section when grid.A is set, so that a domain error stops
    the run before any MC, then the tail section; each draws from its own
    keyed stream. The returned diagnostics hold the internals the checks rest
    on: each epsilon's rate fit and whether its calibrated a1 sits on the
    grid floor and, with grid.A, the mixing fit, gamma, C, whether C sits on
    the grid floor, and each A's overflow flag."""
    fspec = make_fspec(config.fspec_name, config.process)
    laplace = (laplace_section(fspec, config.process, config.gamma, config.a_points,
                               config.reps, config.seed) if config.a_points else None)
    checks: list[Check] = []
    diagnostics: dict = {"rate_fits": []}

    tails_by_eps = empirical_tail_grid(fspec, config.process, config.n_points, config.epsilons,
                                       config.reps, config.seed)
    rows = []
    for eps, tails in zip(config.epsilons, tails_by_eps):
        bound_at = {}
        try:
            a1, fit = calibrate_corollary(tails, B=fspec.bound, epsilon=eps)
            diagnostics["rate_fits"].append({
                "epsilon": eps, "a1": fit.a1_hat, "a2": fit.a2_hat, "r_squared": fit.r_squared,
                "calibrated_a1_on_grid_floor": bool(a1 == _LOG_GRID[0]),
            })
            bound_at = {te.n: corollary_bound(a1=a1, a2=fit.a2_hat, B=fspec.bound, epsilon=eps,
                                              n=te.n)
                        for te in tails}
            # calibrate_corollary has raised a FitError for any a2 <= 0
            checks.append(Check(name=f"rate_fit(eps={eps})", passed=fit.r_squared > 0.9,
                                detail=f"a2={fit.a2_hat:.4g} r2={fit.r_squared:.4g}"))
            dominated = all(bound_at[te.n] >= te.p_hat + te.ci_half_width for te in tails)
            checks.append(Check(name=f"bound_dominates(eps={eps})", passed=dominated))
        except FitError as exc:
            checks.append(Check(name=f"rate_fit(eps={eps})", passed=False, detail=str(exc)))
            diagnostics["rate_fits"].append({"epsilon": eps, "error": str(exc)})
        rows += [(f"tail(eps={eps})", te.n, te.epsilon, fspec.bound, te.p_hat, te.ci_half_width,
                  bound_at.get(te.n, math.nan), config.seed) for te in tails]
    reports = {"concentration_report.csv": (CONCENTRATION_HEADER, rows)}

    if laplace is not None:
        gamma, c_value, estimates = laplace.gamma, laplace.C, laplace.estimates
        checks.append(Check(
            name="laplace_domination",
            passed=all(est.value <= bound for est, bound in zip(estimates, laplace.bounds)),
            detail=f"C={c_value:.4g} gamma={gamma:.4g}",
        ))
        reports["laplace_report.csv"] = (LAPLACE_HEADER, [
            ("laplace", a, gamma, est.value, est.std_error, bound, c_value, config.seed)
            for (a, _), est, bound in zip(config.a_points, estimates, laplace.bounds)
        ])
        diagnostics.update(
            mixing_fit=dataclasses.asdict(laplace.mixing_fit), gamma=gamma, C=c_value,
            C_on_grid_floor=bool(c_value == _LOG_GRID[0]),
            laplace_overflows=[{"A": a, "overflowed": est.overflowed}
                               for (a, _), est in zip(config.a_points, estimates)],
        )
    return checks, reports, diagnostics


FKR_HEADER = [
    "n", "rep_quantile_level", "forecast_error", "f_hat_error", "g_hat_error",
    "undefined_fraction",
]


def run_fkr_suite(config: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    summaries = dynamic_forecast_experiment(
        config.process, config.psi, config.noise_sd, config.kernel, config.theta,
        config.n_points, config.reps, config.seed, config.grid_size)
    rows = [(s.n, level, error, s.median_f_error, s.median_g_error, s.undefined_fraction)
            for s in summaries for level, error in ((0.5, s.median_error), (0.9, s.q90_error))]
    # the checks compare ascending n, whatever the order of grid.n
    ascending = sorted(summaries, key=lambda s: s.n)
    medians = [s.median_error for s in ascending]
    f_errors = [s.median_f_error for s in ascending]
    checks = [
        Check(
            name="forecast_error_decreases",
            passed=medians[-1] < medians[0],
            detail=f"median@{ascending[0].n}={medians[0]:.4g} "
                   f"median@{ascending[-1].n}={medians[-1]:.4g}",
        ),
        Check(
            name="f_hat_error_decreases",
            passed=all(b < a for a, b in zip(f_errors, f_errors[1:])),
        ),
        Check(
            name="undefined_fraction_below_10pct",
            passed=all(s.undefined_fraction < 0.1 for s in summaries),
        ),
    ]
    return checks, {"fkr_report.csv": (FKR_HEADER, rows)}, {}


def run_verify_all_suite(config: ExperimentConfig) -> tuple[list[Check], dict, dict]:
    rows = _mixing_rows(config)
    seed = config.seed

    # 10^5 values in 25 pieces of 4,000, each drawn and checked in turn so the
    # sample is never held whole; every piece keeps the 40/30/30 mixture
    rng = keyed_rng(seed, Stream.TRUNCATE_SAMPLE)
    mismatches = 0
    for _ in range(25):
        values = np.concatenate([
            rng.normal(0.0, 1.0, 1_600),
            rng.normal(0.0, 1e6, 1_200),
            rng.uniform(-2.0, 2.0, 1_200),
        ])
        levels = rng.choice(np.array([0.5, 1.0, 1.0 + 2.0**-52, 3.7]), size=values.size)
        plus, zero, minus = truncate(values, levels)
        mismatches += np.count_nonzero(plus + zero + minus != values)
    rows.append(("truncate_reconstruction", float(mismatches), 0.0, mismatches == 0, seed))

    kernel = KernelSpec("downslope-linear")
    for name, got, want in (
        ("m_constant_tau_linear", m_constant(kernel, lambda s: s), 1.5),
        ("m_constant_tau_square", m_constant(kernel, lambda s: s**2), 4.0 / 3.0),
    ):
        rows.append((name, got, want, abs(got - want) <= 1e-6, seed))

    grid = uniform_grid(5)
    dists = np.array([0.1, 0.2, 0.9, 1.5, 2.0])
    training = FunctionalPath(
        grid=grid,
        coords=dists[:, None] * np.ones((1, 5)),
        responses=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    )
    # F_x(1) = 6/12, as for the reference sample of 12 constant curves 0, 2/11, ..., 2
    fit = RegressionFit(kernel=kernel, bandwidth=1.0, training=training)
    nw = fit.evaluate(np.zeros(5), 6 / 12)
    holds = nw.defined and abs(nw.psi_hat - 8.8 / 4.8) <= 1e-12
    rows.append(("nadaraya_watson_hand_example", nw.psi_hat, 8.8 / 4.8, holds, seed))

    ns = list(range(16, 400, 7))
    bounds = [corollary_bound(a1=1.0, a2=0.5, B=1.0, epsilon=0.2, n=n) for n in ns]
    holds = all(b < a for a, b in zip(bounds, bounds[1:]))
    rows.append(("corollary_bound_decreasing", float(not holds), 0.0, holds, seed))
    return _checks_from_rows(rows), {"verify_report.csv": (MIXING_HEADER, rows)}, {}


_SUITE_RUNNERS = {
    "mixing": run_mixing_suite,
    "concentration": run_concentration_suite,
    "fkr": run_fkr_suite,
    "verify-all": run_verify_all_suite,
}


def run_suite(config: ExperimentConfig) -> SuiteResult:
    """Run one suite: write reports and a manifest, return checks + exit code.

    BLAS runs on one thread (`one_blas_thread`), and the suite's maps on the
    forked children of one `parallel` block.
    Reports are written once the whole suite has returned, so a run stopped
    by an error writes none.
    """
    try:
        os.makedirs(config.output, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"field 'output': cannot create {config.output}: {exc}") from exc
    execution = {"workers": config.workers, "blas_threads": one_blas_thread()}
    # every map reaps its forked children, whose peaks RUSAGE_CHILDREN holds
    with parallel(config.workers) as map_facts:
        checks, reports, diagnostics = _SUITE_RUNNERS[config.suite](config)
    execution.update(map_facts)
    # ru_maxrss is in KiB on Linux
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    execution["peak_rss_mb"] = round(peak_kib / 1024, 1)
    for name, (header, rows) in reports.items():
        _write_csv(os.path.join(config.output, name), header, rows)
    manifest = os.path.join(config.output, f"{config.suite.replace('-', '_')}_manifest.json")
    _write_manifest(manifest, config, checks, list(reports), execution, diagnostics)
    return SuiteResult(checks=tuple(checks))


PLOTDATA_HEADER = ["series", "x", "y", "y_lo", "y_hi"]


def emit_plotdata(report_path: str, kind: str, output_path: str) -> None:
    """Tidy a wide suite report into long-format (series, x, y, y_lo, y_hi).

    A row with the wrong cell count, a non-numeric cell, a non-finite cell it
    reads, or an n < 3 (concentration) raises ConfigError naming its line.
    """
    expected = {"concentration": CONCENTRATION_HEADER, "fkr": FKR_HEADER}.get(kind)
    if expected is None:
        raise ConfigError(f"unsupported plotdata kind {kind!r}")
    try:
        with open(report_path, encoding="utf-8") as fh:
            lines = [(i, ln.rstrip("\n").split(",")) for i, ln in enumerate(fh, 1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read report {report_path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"report {report_path} is empty")
    header = lines[0][1]
    if header != expected:
        raise ConfigError(f"report schema mismatch: expected {expected}, got {header}")
    text = 1 if kind == "concentration" else 0  # experiment_id is the only text cell
    # a failed rate fit leaves bound_value nan, and the plot reads no bound
    read = (1, 2, 4, 5) if kind == "concentration" else range(5)
    out_rows: list[tuple] = []
    for lineno, cells in lines[1:]:
        where = f"report {report_path} line {lineno}"
        if len(cells) != len(expected):
            raise ConfigError(f"{where}: expected {len(expected)} cells, got {len(cells)}")
        try:
            values = cells[:text] + [float(c) for c in cells[text:]]
        except ValueError as exc:
            raise ConfigError(f"{where}: non-numeric cell ({exc})") from exc
        if not all(math.isfinite(values[i]) for i in read):
            raise ConfigError(f"{where}: non-finite cell")
        if kind == "concentration":
            p_hat, ci = values[4], values[5]
            try:
                x = rate_argument(values[1], 1.0, 1.0)  # n / (log n log log n)
            except ValidationError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            out_rows.append((f"eps={cells[2]}", x, p_hat, p_hat - ci, p_hat + ci))
        elif values[1] == 0.5:
            for series, idx in (("forecast_error", 2), ("f_hat_error", 3), ("g_hat_error", 4)):
                out_rows.append((series, values[0], values[idx], values[idx], values[idx]))
    try:
        _write_csv(output_path, PLOTDATA_HEADER, out_rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {output_path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betamix",
        description="Mixing-coefficient oracles, deviation bounds, and "
                    "functional kernel regression experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--seed", help="master seed (overrides config)")
    common.add_argument("--reps", help="MC replications (overrides config)")
    common.add_argument("--output", help="report directory (overrides config)")
    common.add_argument("--workers", help="worker processes (overrides config)")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    for suite in SUITES:
        sub.add_parser(suite, parents=[common], help=f"run the {suite} suite")

    plot = sub.add_parser("plotdata", help="tidy a suite report for plotting")
    plot.add_argument("report", help="path to a suite report CSV")
    plot.add_argument("--kind", required=True, choices=["concentration", "fkr"])
    plot.add_argument("--output", required=True, help="output CSV path")
    return parser


def _overrides_from_args(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    for flag in ("seed", "reps", "output", "workers"):
        value = getattr(args, flag)
        if value is not None:
            overrides[flag] = value
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "plotdata":
            emit_plotdata(args.report, args.kind, args.output)
            return 0
        mapping = load_config_file(args.config) if args.config else {}
        overrides = _overrides_from_args(args)
        overrides["suite"] = args.command
        config = resolve_config(mapping, overrides)
        result = run_suite(config)
        for check in result.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"[check] {check.name}: {status}{detail}")
        if result.exit_code != 0:
            failing = [c.name for c in result.checks if not c.passed]
            print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return result.exit_code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BetamixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
