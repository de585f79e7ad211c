import ast
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betamix
from betamix import cli, concentration, processes, seeding
from betamix.cli import emit_plotdata, main
from betamix.concentration import FSPEC_NAMES
from betamix.config import KNOWN_KEYS, SUITES, parse_config_text, resolve_config
from betamix.errors import ConfigError, FitError, ValidationError
from betamix.processes import CHAIN_INNOVATIONS, CHAIN_MAPS, ContractiveChainSpec, Far1Spec
from betamix.regression import ForecastSummary
from digests import ci_rows, reports, runs

FAST_MIXING = ["--set", "mixing.joints=15", "--set", "mixing.chains=8"]


def run_cli(*argv):
    return main(list(argv))


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # loaded-module check, not timing: no scipy module may load at all
    code = ("import sys, betamix.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_no_run_loads_the_process_pool_machinery(tmp_path):
    # a one-worker run, a two-worker run with no Monte Carlo section, and a
    # two-worker concentration run, whose sections fork their maps, all run
    # without the process-pool machinery
    code = ("import json, sys, betamix.cli; "
            "loaded = lambda: [m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules]; "
            "print(loaded()); "
            "betamix.cli.main(['verify-all', '--seed', '3', '--output', sys.argv[1]]); "
            "print(loaded()); "
            "betamix.cli.main(['verify-all', '--seed', '3', '--workers', '2', "
            "'--output', sys.argv[1] + '/w2']); "
            "print(loaded()); "
            "betamix.cli.main(['concentration', '--seed', '3', '--reps', '1100', '--workers', "
            "'2', '--output', sys.argv[1] + '/conc', '--set', 'grid.n=50,100', "
            "'--set', 'grid.epsilon=0.1', '--set', 'process.burn_in=100']); "
            "print(loaded()); "
            "print(json.load(open(sys.argv[1] + '/conc/concentration_manifest.json'))"
            "['execution']['parallel_maps'])")
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    lines = [line for line in out.stdout.splitlines() if not line.startswith("[check]")]
    assert lines == ["[]", "[]", "[]", "[]", "1"]
    assert (tmp_path / "verify_report.csv").exists()
    assert (tmp_path / "w2" / "verify_report.csv").exists()


def test_parallel_block_reaps_its_forked_children_quietly():
    # holding seeding on sys keeps it past the interpreter's teardown, as a
    # test session's modules do; the map has reaped its children before
    # then, and none outlives it
    code = ("import operator, os, sys; from betamix import seeding; "
            "sys.betamix_seeding = seeding\n"
            "with seeding.parallel(2):\n"
            "    (got,) = seeding.replicate(operator.itemgetter(-1), (), [(1, 1)], 2, 1)\n"
            "print(got.tolist())\n"
            "try:\n"
            "    print(os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    print('no child')")
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[0, 1]", "no child"]
    assert out.stderr == ""


def test_unflushed_text_before_a_map_is_written_once():
    # stdout is a buffered pipe, so the parent's print stays in its buffer
    # until the map flushes it, and a child that inherited the buffer would
    # write it again; each block's own print is flushed before its child exits
    code = ("import numpy as np; from betamix import seeding\n"
            "def block(args):\n"
            "    print('block', args[-1].start)\n"
            "    return np.asarray(args[-1])\n"
            "print('before the map')\n"
            "with seeding.parallel(2):\n"
            "    (got,) = seeding.replicate(block, (), [(1, 1)], 4, 1)\n"
            "print(got.tolist())")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(betamix.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    first, *blocks, last = out.stdout.splitlines()
    assert (first, last) == ("before the map", "[0, 1, 2, 3]")
    assert sorted(blocks) == [f"block {i}" for i in range(4)]


def test_third_party_imports_are_the_declared_dependencies():
    # every import statement counts, also those inside functions
    tomllib = pytest.importorskip("tomllib")
    package = Path(betamix.__file__).parent
    imported = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"betamix"}
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
                for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared


def test_library_layers_import_neither_config_nor_cli():
    # config and cli resolve and run what the library layers compute, never
    # the other way round
    package = Path(betamix.__file__).parent
    for layer in ("mixing", "processes", "concentration", "regression", "seeding"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{layer}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = "betamix." if node.level else ""
                names = ([base + node.module] if node.module
                         else [base + alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imported.update(n.split(".")[1] for n in names if n.startswith("betamix."))
        assert not imported & {"config", "cli"}, layer


def test_package_exports_only_its_classes_and_functions():
    # no os, sys or submodule objects: `from betamix import *` binds these alone
    assert sorted(betamix.__all__) == [
        "CheckResult", "ContractiveChainSpec", "FSpec", "Far1Spec",
        "FiniteChain", "FiniteJointDistribution", "ForecastSummary", "FunctionalPath",
        "KernelSpec", "LaplaceEstimate", "LaplaceSection", "MixingDecayFit", "MomentInputs",
        "NWEvaluation", "PsiSpec", "RateFit", "RegressionFit", "SmallBallModel",
        "TailEstimate", "TruncationTriple", "alpha_exact", "bandwidth_schedule", "beta_exact",
        "calibrate_corollary", "calibrate_laplace_constant", "corollary_bound",
        "davydov_check", "dynamic_forecast_experiment", "empirical_laplace",
        "empirical_tail_grid", "estimate_chain_mixing", "estimate_small_ball",
        "fit_geometric_decay", "ibragimov_check", "laplace_bound", "laplace_section",
        "m_constant", "make_fspec", "make_regression_sample", "markov_beta_lag",
        "rate_argument", "rate_fit", "simulate_far1",
        "trapezoid_weights", "truncate", "unbounded_bound", "uniform_grid",
    ]
    assert all(callable(getattr(betamix, name)) for name in betamix.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from betamix import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(betamix.__all__)
    assert not any(isinstance(value, type(sys)) for value in namespace.values())


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        text = """
        # experiment
        suite = mixing
        seed = 42
        mixing.joints = 10   # small
        """
        mapping = parse_config_text(text)
        assert mapping == {"suite": "mixing", "seed": "42", "mixing.joints": "10"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("suite = mixing\nbogus = 1\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_seed_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"suite": "mixing"})

    def test_reps_floor_for_mc_suites(self):
        mapping = {"suite": "concentration", "seed": "1", "reps": "50",
                   "grid.n": "10,20,40,80", "grid.epsilon": "0.1"}
        with pytest.raises(ConfigError, match="reps"):
            resolve_config(mapping)

    def test_overrides_win_over_file_values(self):
        config = resolve_config(
            {"suite": "mixing", "seed": "1", "mixing.joints": "5"},
            overrides={"mixing.joints": "9"},
        )
        assert config.raw["mixing.joints"] == "9"

    def test_bad_suite_rejected(self):
        with pytest.raises(ConfigError, match="suite"):
            resolve_config({"suite": "everything", "seed": "1"})

    def test_process_keys_are_the_spec_fields_and_the_kind(self):
        spec_keys = {f"process.{f.name}" for spec in (ContractiveChainSpec, Far1Spec)
                     for f in fields(spec)}
        assert {k for k in KNOWN_KEYS if k.startswith("process.")} == spec_keys | {"process.kind"}

    @pytest.mark.parametrize("suite, spec", [("concentration", ContractiveChainSpec()),
                                             ("fkr", Far1Spec())])
    def test_no_process_keys_give_the_default_spec(self, suite, spec):
        mapping = {"suite": suite, "seed": "1", "grid.n": "100,200", "grid.epsilon": "0.1"}
        assert resolve_config(mapping).process == spec

    def test_specs_agree_on_the_default_of_every_shared_key(self):
        chain, far1 = ContractiveChainSpec(), Far1Spec()
        shared = {f.name for f in fields(chain)} & {f.name for f in fields(far1)}
        assert shared == {"burn_in"}
        assert all(getattr(chain, name) == getattr(far1, name) for name in shared)

    def test_output_defaults_to_betamix_out(self, monkeypatch):
        monkeypatch.delenv("BETAMIX_OUTPUT_DIR", raising=False)
        assert resolve_config({"suite": "mixing", "seed": "1"}).output == "betamix-out"

    def test_bad_t_rule_rejected(self):
        mapping = {"suite": "fkr", "seed": "0", "grid.n": "120,240", "t_rule": "everywhere",
                   "process.rho": "0.4", "process.noise_scale": "0.25",
                   "process.burn_in": "10", "noise_sd": "0.1", "kernel": "uniform",
                   "grid.theta": "0.3", "grid_size": "16"}
        with pytest.raises(ConfigError, match="t_rule"):
            resolve_config(mapping)


# Every suite resolves this mapping; the sine-perturbed map makes process.b
# part of the Lipschitz check.
VALID_BASE = {"seed": "1", "reps": "100", "grid.n": "100,200,400,800",
              "grid.epsilon": "0.05", "grid.A": "14,20",
              "process.map": "sine-perturbed", "process.b": "0.3"}
NAMES = ["banana", "last", "middle", "norm", "linear:constant", "linear:eigenfunction",
         "linear", "uniform", "truncated-gaussian", "none", "separable", "gaussian-bump",
         "eigenfunction", "zero", "first", "ball-indicator", "quadratic-decreasing",
         "contractive-chain", "far1", *SUITES]
DRAWN_VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "0", "-1", "nan", "inf", "-inf", "1e400", "14,nan", "50,2", "3,3"]),
    st.integers(-3, 500).map(lambda k: f"index:{k}"),
    st.sampled_from(NAMES),
    st.lists(st.integers().map(str) | st.floats().map(repr), min_size=1, max_size=4)
    .map(",".join),
    st.text(max_size=12),
)


def test_the_parser_offers_every_suite_then_plotdata():
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    assert list(commands) == [*SUITES, "plotdata"]


@settings(max_examples=500, deadline=None)
@given(suite=st.sampled_from(SUITES), key=st.sampled_from(sorted(KNOWN_KEYS)),
       value=DRAWN_VALUES)
def test_resolve_config_returns_or_names_the_drawn_key(suite, key, value):
    # resolve_config only: running a suite with a drawn workers or reps could
    # start thousands of processes
    mapping = dict(VALID_BASE, suite=suite)
    mapping[key] = value
    try:
        resolve_config(mapping)
    except ConfigError as exc:
        assert f"field {key!r}" in str(exc)


class TestExitCodes:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code = run_cli("mixing", "--output", str(tmp_path))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_config_parse_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("suite = mixing\nnot a config line\n")
        code = run_cli("mixing", "--config", str(cfg), "--seed", "1",
                       "--output", str(tmp_path / "out"))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_mixing_suite_passes(self, tmp_path):
        code = run_cli("mixing", "--seed", "5", "--output", str(tmp_path), *FAST_MIXING)
        assert code == 0
        assert (tmp_path / "mixing_report.csv").exists()
        assert (tmp_path / "mixing_manifest.json").exists()

    def test_verify_all_passes(self, tmp_path):
        code = run_cli("verify-all", "--seed", "7", "--output", str(tmp_path), *FAST_MIXING)
        assert code == 0

    # every pair of an f and an innovation, and of an innovation and a map
    @pytest.mark.parametrize("fspec, innovation, map_name", [
        (fspec, innovation, CHAIN_MAPS[i % len(CHAIN_MAPS)])
        for i, (fspec, innovation) in enumerate(itertools.product(FSPEC_NAMES, CHAIN_INNOVATIONS))
    ])
    def test_every_accepted_name_can_pass_a_run(self, tmp_path, fspec, innovation, map_name):
        # on CI's first concentration row; the truncated-Gaussian innovation
        # is cut at one sd, as in CI's concentration-tg row
        sets = [f"fspec={fspec}", f"process.innovation={innovation}", f"process.map={map_name}"]
        if innovation == "truncated-gaussian":
            sets += ["process.sigma=1", "process.trunc=1"]
        argv = [*runs()["concentration"], *[word for kv in sets for word in ("--set", kv)]]
        assert run_cli(*argv, "--workers", "1", "--output", str(tmp_path)) == 0

    def test_bound_b_in_a_config_file_is_an_unknown_key(self, tmp_path, capsys):
        # f carries its bound: B is the fspec's own, and no key overrides it
        config = tmp_path / "bound.cfg"
        config.write_text("bound.B = 1.5\n")
        output = tmp_path / "out"
        code = run_cli("concentration", "--config", str(config), "--seed", "1",
                       "--output", str(output), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.05")
        assert code == 2
        assert "line 1: unknown key 'bound.B'" in capsys.readouterr().err
        assert not output.exists()

    def test_malformed_t_rule_index_exits_2(self, tmp_path, capsys):
        code = run_cli("fkr", "--seed", "1", "--output", str(tmp_path),
                       "--set", "grid.n=120,240", "--set", "t_rule=index:abc")
        assert code == 2
        assert "t_rule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("concentration", "--set", "grid.epsilon=nan"), "grid.epsilon"),
            (("concentration", "--set", "grid.epsilon=-0.1"), "grid.epsilon"),
            (("concentration", "--set", "grid.epsilon=0.05,inf"), "grid.epsilon"),
            (("concentration", "--set", "grid.epsilon=0"), "grid.epsilon"),
            (("fkr", "--set", "grid.n=2"), "grid.n"),
            (("fkr", "--set", "grid.n=200,2"), "grid.n"),
            (("fkr", "--set", "grid.n=200", "--set", "grid_size=4"), "grid_size"),
            (("concentration", "--set", "grid.A=nan"), "grid.A"),
            (("concentration", "--set", "grid.A=14,5"), "grid.A"),
            (("concentration", "--set", "grid.A=14", "--set", "bound.B=0"), "bound.B"),
            (("concentration", "--set", "grid.A=14", "--set", "bound.B=-2"), "bound.B"),
            (("concentration", "--set", "grid.A=14", "--set", "gamma=-1"), "gamma"),
            (("concentration", "--set", "grid.A=14", "--set", "gamma=inf"), "gamma"),
            (("fkr", "--set", "grid.n=200", "--set", "noise_sd=nan"), "noise_sd"),
            (("fkr", "--set", "grid.n=200", "--set", "noise_sd=-0.1"), "noise_sd"),
            (("concentration", "--set", "process.a=nan"), "process.a"),
            (("concentration", "--set", "process.halfwidth=nan"), "process.halfwidth"),
            (("fkr", "--set", "grid.n=200,400", "--set", "process.rho=nan"), "process.rho"),
            (("fkr", "--set", "grid.n=200"), "grid.n"),
            (("fkr", "--set", "grid.n=200,200"), "grid.n"),
            (("concentration", "--set", "process.kind=banana"), "process.kind"),
            (("concentration", "--set", "process.kind=far1"), "process.kind"),
            (("fkr", "--set", "grid.n=200,400", "--set", "process.kind=contractive-chain"),
             "process.kind"),
            (("mixing", "--set", "mixing.max_states=1"), "mixing.max_states"),
            (("verify-all", "--set", "mixing.max_states=1"), "mixing.max_states"),
            (("verify-all", "--set", "mixing.max_states=40"), "mixing.max_states"),
            (("verify-all", "--set", "mixing.joints=0"), "mixing.joints"),
            (("verify-all", "--set", "mixing.chains=-3"), "mixing.chains"),
            (("concentration", "--set", "grid.A=14,20", "--set", "t_rule=index:30"), "t_rule"),
            (("fkr", "--set", "grid.n=120,240", "--set", "kernel=banana"), "kernel"),
            (("fkr", "--set", "grid.n=120,240", "--set", "process.kernel=gaussian-bump",
              "--set", "process.bump_width=0"), "process.bump_width"),
            (("fkr", "--set", "grid.n=120,240", "--set", "process.kernel=gaussian-bump",
              "--set", "process.bump_width=1e-300"), "process.bump_width"),
            (("fkr", "--set", "grid.n=120,240", "--set", "process.kernel=gaussian-bump",
              "--set", "process.bump_width=1e300"), "process.bump_width"),
            (("fkr", "--set", "grid.n=50,100"), "grid.n"),
            (("concentration", "--set", "process.map=clipped-linear", "--set", "fspec=first",
              "--set", "process.clip_at=-5"), "process.clip_at"),
            (("concentration", "--set", "grid.epsilon=0.05,0.05"), "grid.epsilon"),
            (("concentration", "--set", "grid.n=50,100,100,200"), "grid.n"),
            (("concentration", "--set", "grid.A=14,20,14"), "grid.A"),
            (("concentration", "--set", "process.halfwidth=1e308"), "process.halfwidth"),
            (("concentration", "--set", "process.innovation=truncated-gaussian",
              "--set", "process.trunc=1e308", "--set", "process.sigma=1e308"), "process.trunc"),
            (("concentration", "--set", "process.innovation=none"), "process.innovation"),
            (("concentration", "--set", "fspec=zero"), "fspec"),
            (("concentration", "--set", "process.burn_in=0"), "process.burn_in"),
            (("fkr", "--set", "grid.n=120,240", "--set", "process.burn_in=0"),
             "process.burn_in"),
            (("fkr", "--set", "grid.n=120,240", "--set", "process.initial=eigenfunction"),
             "process.initial"),
            (("concentration", "--set", "grid.A=14", "--set", "bound.B=1.5"), "bound.B"),
        ],
    )
    def test_invalid_grid_field_exits_2(self, tmp_path, capsys, argv, field):
        suite, *sets = argv
        if suite == "concentration":
            # a case's own --set comes later and wins
            sets = ["--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05", *sets]
        output = tmp_path / "out"
        code = run_cli(suite, "--seed", "1", "--reps", "100",
                       "--output", str(output), *sets)
        err = capsys.readouterr().err
        assert code == 2
        assert f"field {field!r}" in err
        assert "Traceback" not in err
        assert not output.exists()
        # a name outside a closed set names the choices that remain
        choices = {"process.innovation": CHAIN_INNOVATIONS, "fspec": FSPEC_NAMES}
        if field in choices:
            assert f"choose from {choices[field]}" in err

    @pytest.mark.parametrize("case", ["output-is-file", "output-under-file",
                                      "plotdata-output-under-file", "config-not-utf8",
                                      "report-not-utf8"])
    def test_file_error_exits_2_naming_the_path(self, tmp_path, capsys, case):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        report = tmp_path / "fkr_report.csv"
        report.write_text(
            "n,rep_quantile_level,forecast_error,f_hat_error,g_hat_error,undefined_fraction\n"
            "200,0.5,0.1,0.2,0.3,0.0\n"
        )
        not_utf8 = tmp_path / "latin1.txt"
        not_utf8.write_bytes(b"seed = 1 # caf\xe9\n")
        path, argv = {
            "output-is-file": (blocker, ("mixing", "--seed", "1", "--output", str(blocker))),
            "output-under-file": (blocker / "out",
                                  ("mixing", "--seed", "1", "--output", str(blocker / "out"))),
            "plotdata-output-under-file": (blocker / "x.csv",
                                           ("plotdata", str(report), "--kind", "fkr",
                                            "--output", str(blocker / "x.csv"))),
            "config-not-utf8": (not_utf8, ("mixing", "--config", str(not_utf8),
                                           "--output", str(tmp_path / "out"))),
            "report-not-utf8": (not_utf8, ("plotdata", str(not_utf8), "--kind", "fkr",
                                           "--output", str(tmp_path / "o.csv"))),
        }[case]
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert str(path) in err and "Traceback" not in err
        if case.startswith("output"):
            # the suite stopped before any work
            assert "field 'output'" in err and out == ""

    def test_check_failure_exits_1(self, tmp_path):
        # 3 usable n-points cannot support the 4-point rate fit
        code = run_cli(
            "concentration", "--seed", "3", "--reps", "200", "--output", str(tmp_path),
            "--set", "grid.n=50,100,200", "--set", "grid.epsilon=0.05",
            "--set", "process.burn_in=100",
        )
        assert code == 1


FAILING = SimpleNamespace(lhs=1.0, rhs=0.0, holds=False)
UNDEFINED_FIT = SimpleNamespace(evaluate=lambda curve, f_ref: SimpleNamespace(defined=False,
                                                                             psi_hat=math.nan))


@pytest.mark.parametrize(
    "check, name, stub",
    [
        ("alpha_le_quarter", "alpha_exact", lambda joint: 0.3),
        ("alpha_beta_ordering", "beta_exact", lambda joint: 0.0),
        ("beta_le_one", "beta_exact", lambda joint: 1.5),
        ("davydov", "davydov_check", lambda joint, h, p: FAILING),
        ("ibragimov", "ibragimov_check", lambda chain, funcs, lags: FAILING),
        ("markov_lag_consistency", "markov_beta_lag", lambda chain, lag: 2.0),
        ("truncate_reconstruction", "truncate", lambda v, b: (v, 0.0, 1.0)),
        ("m_constant_tau_linear", "m_constant", lambda kernel, tau: 0.0),
        ("m_constant_tau_square", "m_constant", lambda kernel, tau: 1.5),
        ("nadaraya_watson_hand_example", "RegressionFit", lambda **fields: UNDEFINED_FIT),
        ("corollary_bound_decreasing", "corollary_bound", lambda **constants: 1.0),
    ],
)
def test_every_verify_all_check_can_fail(tmp_path, capsys, monkeypatch, check, name, stub):
    # one wrong oracle makes rows of one family fail, and so its check
    monkeypatch.setattr(cli, name, stub)
    code = run_cli("verify-all", "--seed", "7", "--output", str(tmp_path),
                   "--set", "mixing.joints=2", "--set", "mixing.chains=2")
    assert code == 1
    assert f"[check] {check}: FAIL\n" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "verify_all_manifest.json").read_text())
    assert len(manifest["checks"]) == 11


def test_verify_all_truncates_its_sample_in_pieces(tmp_path, monkeypatch):
    sizes = []

    def counting(value, B):
        assert np.shape(value) == np.shape(B)
        sizes.append(np.size(value))
        return concentration.truncate(value, B)

    monkeypatch.setattr(cli, "truncate", counting)
    assert run_cli("verify-all", "--seed", "7", "--output", str(tmp_path),
                   "--set", "mixing.joints=2", "--set", "mixing.chains=2") == 0
    # each call checks one piece of at most 4,000 values, and the pieces add up to 10^5
    assert max(sizes) <= 4_000
    assert sum(sizes) == 100_000


def test_verify_all_traced_peak_stays_under_one_mib():
    config = resolve_config({"suite": "verify-all", "seed": "7", "mixing.joints": "2",
                             "mixing.chains": "2"})
    tracemalloc.start()
    try:
        cli.run_verify_all_suite(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _summary(n, median, f_error, undefined=0.0):
    return ForecastSummary(n=n, median_error=median, q90_error=2 * median, median_f_error=f_error,
                           median_g_error=0.1, undefined_fraction=undefined)


FKR_CHECKS = ("forecast_error_decreases", "f_hat_error_decreases",
              "undefined_fraction_below_10pct")


@pytest.mark.parametrize(
    "check, summaries",
    [
        ("forecast_error_decreases",
         [_summary(100, 0.2, 0.3), _summary(200, 0.1, 0.2), _summary(400, 0.25, 0.1)]),
        ("f_hat_error_decreases",
         [_summary(100, 0.2, 0.3), _summary(200, 0.1, 0.35), _summary(400, 0.05, 0.1)]),
        ("undefined_fraction_below_10pct",
         [_summary(100, 0.2, 0.3), _summary(200, 0.1, 0.2, 0.1), _summary(400, 0.05, 0.1)]),
    ],
)
def test_every_fkr_check_can_fail(tmp_path, capsys, monkeypatch, check, summaries):
    # each summary set breaks exactly one check
    monkeypatch.setattr(cli, "dynamic_forecast_experiment", lambda *args: summaries)
    code = run_cli("fkr", "--seed", "3", "--reps", "100", "--output", str(tmp_path),
                   "--set", "grid.n=100,200,400")
    out = capsys.readouterr().out
    assert code == 1
    for name in FKR_CHECKS:
        assert (f"[check] {name}: FAIL" in out) == (name == check)
        assert (f"[check] {name}: PASS" in out) == (name != check)


def test_fkr_verdicts_do_not_depend_on_the_order_of_grid_n(tmp_path, capsys):
    # the checks compare ascending n; the report keeps grid order
    def run(order):
        out = tmp_path / order
        code = run_cli("fkr", "--seed", "5", "--reps", "100", "--output", str(out),
                       "--set", f"grid.n={order}", "--set", "grid_size=16",
                       "--set", "process.burn_in=50")
        rows = (out / "fkr_report.csv").read_text().splitlines()
        return code, capsys.readouterr().out, rows[0], rows[1:]

    code_a, checks_a, header_a, rows_a = run("100,800")
    code_b, checks_b, header_b, rows_b = run("800,100")
    assert code_a == code_b == 0
    assert checks_a == checks_b
    assert header_a == header_b
    assert [r.split(",")[0] for r in rows_b] == ["800", "800", "100", "100"]
    assert rows_b == rows_a[2:] + rows_a[:2]


class TestDeterminism:
    def test_same_config_gives_byte_identical_reports(self, tmp_path):
        args = lambda out: (
            "concentration", "--seed", "11", "--reps", "150", "--output", out,
            "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05,0.1",
            "--set", "process.burn_in=100",
        )
        run_cli(*args(str(tmp_path / "a")))
        run_cli(*args(str(tmp_path / "b")))
        body_a = (tmp_path / "a" / "concentration_report.csv").read_bytes()
        body_b = (tmp_path / "b" / "concentration_report.csv").read_bytes()
        assert body_a == body_b

    def test_reports_identical_across_worker_counts(self, tmp_path):
        # 2500 reps span three replication blocks, so workers = 2 forks two children
        def run(workers):
            out = tmp_path / f"w{workers}"
            run_cli(
                "concentration", "--seed", "13", "--reps", "2500", "--output", str(out),
                "--workers", str(workers),
                "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05,0.1",
                "--set", "grid.A=14,20", "--set", "process.burn_in=100",
            )
            return [(out / name).read_bytes()
                    for name in ("concentration_report.csv", "laplace_report.csv")]

        assert run(1) == run(2)

    def test_truncated_gaussian_reports_identical_across_worker_counts(self, tmp_path):
        # trunc = sigma rejects about 20% of the proposals, and a 200-step
        # burn-in spans several burn-in draws of each block
        def run(workers):
            out = tmp_path / f"w{workers}"
            code = run_cli(
                "concentration", "--seed", "13", "--reps", "1100", "--output", str(out),
                "--workers", str(workers),
                "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.1",
                "--set", "grid.A=14,20", "--set", "process.burn_in=200",
                "--set", "process.innovation=truncated-gaussian",
                "--set", "process.sigma=1", "--set", "process.trunc=1",
            )
            assert code in (0, 1)
            return [(out / name).read_bytes()
                    for name in ("concentration_report.csv", "laplace_report.csv")]

        assert run(1) == run(2)

    def test_skipped_burn_in_leaves_the_reports_byte_identical(self, tmp_path, monkeypatch):
        # the default burn_in = 1000 exceeds K = 128 rows, so every uniform
        # block skips its early burn-in rows and its bounds meet; without the
        # skip each draws them all
        skipped, met = [], []
        burn_in_skip, bounds_meet = processes._burn_in_skip, processes._bounds_meet

        def recording(*args):
            skip = burn_in_skip(*args)
            skipped.append(skip[0] > 0)
            return skip

        def recording_meet(ends):
            low, meets = bounds_meet(ends)
            met.append(meets.all())
            return low, meets

        def run(name):
            out = tmp_path / name
            run_cli("concentration", "--seed", "13", "--reps", "1100", "--output", str(out),
                    "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05,0.1",
                    "--set", "grid.A=14,20")
            return [(out / name).read_bytes()
                    for name in ("concentration_report.csv", "laplace_report.csv")]

        monkeypatch.setattr(processes, "_burn_in_skip", recording)
        monkeypatch.setattr(processes, "_bounds_meet", recording_meet)
        bodies = run("skip")
        assert len(met) == len(skipped)
        skipped += met
        assert skipped and all(skipped)
        monkeypatch.setattr(processes, "_burn_in_skip", lambda *args: (0, math.nan))
        assert run("full") == bodies

    @pytest.mark.parametrize("rho", ["0.5", "-0.7"])
    def test_fkr_skipped_burn_in_leaves_the_report_byte_identical(self, tmp_path, monkeypatch,
                                                                  rho):
        # burn_in = 1000 exceeds K + SKIP_ROWS rows, so every block skips
        # whole blocks of burn-in rows and every path's bounds meet; without
        # the skip each path draws them all
        skips, met = [], []
        burn_in_skip, bounds_meet = processes._burn_in_skip, processes._bounds_meet

        def recording(*args):
            skip = burn_in_skip(*args)
            skips.append(skip[0])
            return skip

        def recording_meet(ends):
            low, meets = bounds_meet(ends)
            met.append(meets.all())
            return low, meets

        def run(name):
            out = tmp_path / name
            run_cli("fkr", "--seed", "5", "--reps", "100", "--output", str(out),
                    "--set", "grid.n=100,200", "--set", "grid_size=16",
                    "--set", "process.burn_in=1000", "--set", f"process.rho={rho}")
            return (out / "fkr_report.csv").read_bytes()

        monkeypatch.setattr(processes, "_burn_in_skip", recording)
        monkeypatch.setattr(processes, "_bounds_meet", recording_meet)
        body = run("skip")
        assert skips and all(skips)
        assert len(met) == len(skips) and all(met)
        monkeypatch.setattr(processes, "_burn_in_skip", lambda *args: (0, math.nan))
        assert run("full") == body

    @pytest.mark.parametrize("name", [name for name, _ in ci_rows("conc")])
    def test_streamed_blocks_write_the_whole_path_reports(self, tmp_path, monkeypatch, name):
        # each concentration row of CI's worker-invariance table, once as it
        # runs (the run whose digests test_report_digests checks) and once
        # with every block kept whole
        streamed = reports(name)
        monkeypatch.setattr(concentration, "_coupled_state", lambda *args: None)
        assert run_cli(*runs()[name], "--workers", "1", "--output", str(tmp_path)) == 0
        assert {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")} == streamed

    def test_fkr_seeds_404_to_407_write_distinct_reports(self, tmp_path):
        # the former seed ^ index streams wrote one body for all four seeds
        bodies = set()
        for seed in (404, 405, 406, 407):
            out = tmp_path / str(seed)
            run_cli("fkr", "--seed", str(seed), "--reps", "100", "--output", str(out),
                    "--set", "grid.n=100,200", "--set", "grid_size=16",
                    "--set", "process.burn_in=50")
            bodies.add((out / "fkr_report.csv").read_bytes())
        assert len(bodies) == 4

    def test_every_chain_stream_of_a_run_is_distinct(self, tmp_path, monkeypatch):
        # each n and each A draw from their own streams, and none from the root
        # stream of the mixing suite's models; the centering and the mixing fit
        # draw nothing
        starts = []
        simulate = processes._simulate_chain_columns

        def recording(spec, n, seeds, rng, **kwargs):
            starts.append(rng.bit_generator.state["state"]["state"])
            return simulate(spec, n, seeds, rng, **kwargs)

        monkeypatch.setattr(processes, "_simulate_chain_columns", recording)
        monkeypatch.setattr(concentration, "_simulate_chain_columns", recording)
        run_cli("concentration", "--seed", "3", "--reps", "100", "--output", str(tmp_path),
                "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
                "--set", "grid.A=14,20", "--set", "fspec=ball-indicator",
                "--set", "process.burn_in=100")
        root = np.random.default_rng(3).bit_generator.state["state"]["state"]
        assert len(starts) == 4 + 2
        assert len(set(starts) | {root}) == len(starts) + 1

    def test_manifest_records_resolved_config_and_hash(self, tmp_path):
        run_cli("mixing", "--seed", "9", "--output", str(tmp_path), *FAST_MIXING)
        manifest = json.loads((tmp_path / "mixing_manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"]["mixing.joints"] == "15"
        assert len(manifest["config_sha256"]) == 64
        assert all(c["passed"] for c in manifest["checks"])
        # rerunning from the manifest's resolved config reproduces the report
        rerun = tmp_path / "rerun"
        code = run_cli("mixing", "--output", str(rerun),
                       *[a for kv in manifest["config"].items()
                         for a in ("--set", f"{kv[0]}={kv[1]}")])
        assert code == 0
        assert (rerun / "mixing_report.csv").read_bytes() == (
            tmp_path / "mixing_report.csv"
        ).read_bytes()

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BETAMIX_OUTPUT_DIR", str(tmp_path / "envout"))
        code = run_cli("mixing", "--seed", "2", *FAST_MIXING)
        assert code == 0
        assert (tmp_path / "envout" / "mixing_report.csv").exists()


class TestLaplaceSection:
    def test_laplace_domination_check_runs(self, tmp_path):
        code = run_cli(
            "concentration", "--seed", "21", "--reps", "300", "--output", str(tmp_path),
            "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
            "--set", "grid.A=14,20", "--set", "fspec=odd-clip",
            "--set", "process.burn_in=100",
        )
        manifest = json.loads((tmp_path / "concentration_manifest.json").read_text())
        names = {c["name"] for c in manifest["checks"]}
        assert "laplace_domination" in names
        assert (tmp_path / "laplace_report.csv").exists()
        assert code in (0, 1)

    def test_manifest_diagnostics_are_the_fits_behind_the_reports(self, tmp_path):
        sets = {"grid.n": "50,100,200,400", "grid.epsilon": "0.05,0.1", "grid.A": "14,20",
                "fspec": "odd-clip", "process.burn_in": "100"}
        code = run_cli("concentration", "--seed", "21", "--reps", "300",
                       "--output", str(tmp_path),
                       *[a for kv in sets.items() for a in ("--set", "=".join(kv))])
        assert code in (0, 1)
        diagnostics = json.loads((tmp_path / "concentration_manifest.json").read_text())[
            "diagnostics"
        ]
        config = resolve_config({}, {"suite": "concentration", "seed": "21", **sets})
        fit = processes.estimate_chain_mixing(config.process)
        assert diagnostics["mixing_fit"] == {
            "kappa0": fit.kappa0, "kappa1": fit.kappa1, "r_squared": fit.r_squared,
        }
        tails = [line.split(",") for line in
                 (tmp_path / "concentration_report.csv").read_text().splitlines()[1:]]
        for eps, entry in zip((0.05, 0.1), diagnostics["rate_fits"]):
            points = [SimpleNamespace(n=int(r[1]), p_hat=float(r[4]))
                      for r in tails if float(r[2]) == eps]
            want = concentration.rate_fit(points, B=1.0, epsilon=eps)
            assert entry == {"epsilon": eps, "a1": want.a1_hat, "a2": want.a2_hat,
                             "r_squared": want.r_squared, "calibrated_a1_on_grid_floor": False}
        laplace = [line.split(",") for line in
                   (tmp_path / "laplace_report.csv").read_text().splitlines()[1:]]
        assert diagnostics["gamma"] == float(laplace[0][2])
        assert diagnostics["C"] == float(laplace[0][6])
        assert diagnostics["laplace_overflows"] == [
            {"A": float(r[1]), "overflowed": math.inf in (float(r[3]), float(r[4]))}
            for r in laplace
        ]

    def test_failed_rate_fit_is_recorded_with_its_reason(self, tmp_path):
        run_cli("concentration", "--seed", "3", "--reps", "200", "--output", str(tmp_path),
                "--set", "grid.n=50,100,200", "--set", "grid.epsilon=0.05",
                "--set", "process.burn_in=100")
        diagnostics = json.loads((tmp_path / "concentration_manifest.json").read_text())[
            "diagnostics"
        ]
        assert diagnostics == {"rate_fits": [
            {"epsilon": 0.05, "error": "need >= 4 tail points with 0 < p_hat < 1, have 3"}
        ]}

    def test_laplace_bound_that_cannot_be_computed_exits_1_naming_it(self, tmp_path, capsys):
        # fspec = first at halfwidth 1e-300 has B = 2e-300, so the default gamma is
        # near 1e298 and its square overflows; pytest makes a RuntimeWarning an error
        code = run_cli("concentration", "--seed", "1", "--reps", "100", "--output",
                       str(tmp_path), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.05", "--set", "fspec=first",
                       "--set", "process.halfwidth=1e-300", "--set", "grid.A=14")
        err = capsys.readouterr().err
        assert code == 1
        assert "error: gamma^2 B^2 overflows at gamma = " in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_rate_slope_fails_its_check_with_no_bound(self, tmp_path, capsys,
                                                               monkeypatch):
        # a well-fitting line that rises with x_n: calibrate_corollary refuses it
        monkeypatch.setattr(concentration, "rate_fit",
                            lambda *args, **kwargs: concentration.RateFit(1.0, -0.5, 0.99))
        code = run_cli("concentration", "--seed", "1", "--reps", "100", "--output",
                       str(tmp_path), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.05")
        out = capsys.readouterr().out
        assert code == 1
        assert "[check] rate_fit(eps=0.05): FAIL (fitted rate slope is not positive" in out
        rows = (tmp_path / "concentration_report.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(math.isnan(float(row.split(",")[6])) for row in rows)

    def test_constants_on_the_grid_floor_are_flagged(self, tmp_path, monkeypatch):
        sets = ("--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05,0.1",
                "--set", "grid.A=14,20", "--set", "process.burn_in=100")

        def diagnostics(out):
            return json.loads((out / "concentration_manifest.json").read_text())["diagnostics"]

        # estimates near 1 need no C above the grid's lowest value
        code = run_cli("concentration", "--seed", "5", "--reps", "300",
                       "--output", str(tmp_path / "floor"), *sets)
        floored = diagnostics(tmp_path / "floor")
        assert code == 0
        assert floored["C"] == 1e-8
        assert floored["C_on_grid_floor"] is True
        assert [f["calibrated_a1_on_grid_floor"] for f in floored["rate_fits"]] == [False, False]

        # a1 >= p_hat >= 1/reps, so only a stubbed calibration puts a1 on the floor
        def floored_a1(tails, B, epsilon):
            _, fit = concentration.calibrate_corollary(tails, B=B, epsilon=epsilon)
            return 1e-8, fit

        monkeypatch.setattr(cli, "calibrate_corollary", floored_a1)
        monkeypatch.setattr(concentration, "calibrate_laplace_constant", lambda *args: 1.0)
        run_cli("concentration", "--seed", "5", "--reps", "300",
                "--output", str(tmp_path / "stub"), *sets)
        stubbed = diagnostics(tmp_path / "stub")
        assert stubbed["C"] == 1.0
        assert stubbed["C_on_grid_floor"] is False
        assert [f["calibrated_a1_on_grid_floor"] for f in stubbed["rate_fits"]] == [True, True]

    def test_failed_laplace_calibration_exits_1_and_writes_no_report(self, tmp_path, capsys,
                                                                     monkeypatch):
        def no_fit(*args):
            raise FitError("no C on the grid dominates the estimate")

        monkeypatch.setattr(concentration, "calibrate_laplace_constant", no_fit)
        code = run_cli(
            "concentration", "--seed", "1", "--reps", "100", "--output", str(tmp_path),
            "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
            "--set", "grid.A=14,20", "--set", "process.burn_in=100",
        )
        assert code == 1
        assert "no C on the grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gamma_above_fitted_cap_stops_before_any_estimate(self, tmp_path, capsys,
                                                              monkeypatch):
        tail_calls, laplace_calls = [], []
        monkeypatch.setattr(cli, "empirical_tail_grid",
                            lambda *a, **k: tail_calls.append(a))
        monkeypatch.setattr(concentration, "empirical_laplace",
                            lambda *a, **k: laplace_calls.append(a))
        code = run_cli(
            "concentration", "--seed", "1", "--reps", "100", "--output", str(tmp_path),
            "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
            "--set", "grid.A=14", "--set", "gamma=100", "--set", "process.burn_in=100",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "gamma" in err and "cap" in err
        assert tail_calls == [] and laplace_calls == []
        assert not (tmp_path / "concentration_report.csv").exists()
        assert not (tmp_path / "laplace_report.csv").exists()

    def test_a_below_twice_fitted_kappa1_stops_before_any_estimate(self, tmp_path, capsys,
                                                                   monkeypatch):
        # no chain of the config grammar fits kappa1 near 7, so the fit is replaced
        monkeypatch.setattr(concentration, "estimate_chain_mixing",
                            lambda *a, **k: SimpleNamespace(kappa0=1.0, kappa1=10.0))
        blocks = []
        monkeypatch.setattr(concentration, "_centered_sums", blocks.append)
        code = run_cli(
            "concentration", "--seed", "1", "--reps", "100", "--output", str(tmp_path),
            "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
            "--set", "grid.A=14,30", "--set", "process.burn_in=100",
        )
        assert code == 1
        assert "grid.A" in capsys.readouterr().err
        assert blocks == []
        assert not (tmp_path / "concentration_report.csv").exists()

    def test_iid_chain_exits_1_saying_beta_is_0_at_every_lag(self, tmp_path, capsys):
        code = run_cli("concentration", "--seed", "1", "--reps", "100", "--output",
                       str(tmp_path), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.05", "--set", "grid.A=14,20",
                       "--set", "process.burn_in=10", "--set", "process.a=0")
        err = capsys.readouterr().err
        assert code == 1
        assert "error: beta is 0 at every lag" in err and "i.i.d." in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_near_unit_root_chain_exits_1_naming_the_discretisation(self, tmp_path, capsys):
        # a = 0.999999 leaves one reachable cell of the transfer operator, which
        # would read as an i.i.d. chain
        code = run_cli("concentration", "--seed", "3", "--reps", "100", "--output",
                       str(tmp_path), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.1", "--set", "grid.A=14",
                       "--set", "process.a=0.999999")
        err = capsys.readouterr().err
        assert code == 1
        assert "error: field 'process.a': at a = 0.999999 the cells are 2S/200 = 1e+04" in err
        assert "innovation of width 2" in err and "i.i.d." not in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


    def test_periodic_chain_exits_1_naming_process_a(self, tmp_path, capsys):
        # at a = -0.9999 the 2 reachable cells swap at every step: beta = 0.5 at
        # every lag, whose flat fit would pass laplace_domination
        code = run_cli("concentration", "--seed", "3", "--reps", "100", "--output",
                       str(tmp_path), "--set", "grid.n=50,100,200,400",
                       "--set", "grid.epsilon=0.1", "--set", "grid.A=14",
                       "--set", "process.a=-0.9999")
        err = capsys.readouterr().err
        assert code == 1
        assert "error: field 'process.a': at a = -0.9999 the beta of the 2 reachable" in err
        assert "does not decay" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestExecutionContext:
    CONCENTRATION = ("--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.05",
                     "--set", "grid.A=14,20", "--set", "process.burn_in=100")

    @pytest.fixture
    def inline_maps(self, monkeypatch):
        # stubs seeding's fork map: it records each map's width and items
        # and runs the items here, in order
        maps = []

        def inline_fork_map(fn, items, shares):
            maps.append((len(shares), list(items)))
            return [fn(item) for item in items]

        monkeypatch.setattr(seeding, "_fork_map", inline_fork_map)
        return maps

    def test_w2_run_forks_one_map_per_section(self, tmp_path, inline_maps):
        # 1100 reps make two replication blocks at every n and A, so each of
        # the two sections, Laplace then tail, is one map over two children
        code = run_cli("concentration", "--seed", "2", "--reps", "1100",
                       "--workers", "2", "--output", str(tmp_path), *self.CONCENTRATION)
        manifest = json.loads((tmp_path / "concentration_manifest.json").read_text())
        assert code in (0, 1)
        width = min(2, len(os.sched_getaffinity(0)))
        assert [(w, len(items)) for w, items in inline_maps] == [(width, 4), (width, 8)]
        execution = manifest["execution"]
        assert execution["workers"] == 2
        assert execution["parallel_maps"] == 2
        assert execution["pool_workers"] == width
        assert execution["blas_threads"] == seeding.one_blas_thread()
        assert execution["peak_rss_mb"] > 0

    def test_forked_children_are_capped_at_the_usable_cpus(self, tmp_path, inline_maps):
        # each map forks no more children than the CPUs, nor than its blocks
        code = run_cli("concentration", "--seed", "2", "--reps", "1100",
                       "--workers", "5000", "--output", str(tmp_path), *self.CONCENTRATION)
        cpus = len(os.sched_getaffinity(0))
        assert code in (0, 1)
        assert [w for w, _ in inline_maps] == [min(cpus, 4), min(cpus, 8)]
        execution = json.loads((tmp_path / "concentration_manifest.json").read_text())["execution"]
        assert execution["workers"] == 5000
        assert execution["pool_workers"] == min(cpus, 8)

    def test_each_section_is_one_map_longest_path_first(self, tmp_path, inline_maps):
        # the stub records each map's (stream, path length, first replication)
        # per block; 14 and 14.5 share floor 14
        code = run_cli("concentration", "--seed", "2", "--reps", "1100", "--workers", "2",
                       "--output", str(tmp_path), "--set", "grid.n=100,400,50,200",
                       "--set", "grid.epsilon=0.05", "--set", "grid.A=14,20,14.5",
                       "--set", "process.burn_in=100")
        assert code in (0, 1)
        maps = [[(item[3], item[4], item[-1].start) for item in items] for _, items in inline_maps]
        tail, laplace = seeding.Stream.CHAIN_TAIL, seeding.Stream.CHAIN_LAPLACE
        assert maps == [
            [(laplace, m, start) for m in (20, 14, 14) for start in (0, 1000)],
            [(tail, n, start) for n in (400, 200, 100, 50) for start in (0, 1000)],
        ]

    def test_fkr_is_one_map_longest_path_first(self, tmp_path, inline_maps):
        # the stub records the map's (path length, first replication) per
        # block; 100 reps make 4 blocks per n
        code = run_cli("fkr", "--seed", "2", "--reps", "100", "--workers", "2",
                       "--output", str(tmp_path), "--set", "grid.n=100,300,200",
                       "--set", "grid_size=16", "--set", "process.burn_in=50")
        assert code in (0, 1)
        maps = [[(item[-3], item[-1].start) for item in items] for _, items in inline_maps]
        assert maps == [[(n, start) for n in (300, 200, 100) for start in (0, 25, 50, 75)]]

    def test_w1_run_forks_no_map(self, tmp_path):
        run_cli("mixing", "--seed", "4", "--output", str(tmp_path), *FAST_MIXING)
        manifest = json.loads((tmp_path / "mixing_manifest.json").read_text())
        assert manifest["execution"]["parallel_maps"] == 0
        assert manifest["execution"]["pool_workers"] == 0
        assert manifest["execution"]["workers"] == 1

    def test_library_map_neither_outlives_its_block_nor_counts_in_a_run(self, tmp_path):
        # a 2-worker map outside any run, then a one-worker run: the run's
        # manifest counts no map, and no child process is left
        with seeding.parallel(2) as facts:
            (indices,) = seeding.replicate(_block_indices, (), [(1, 1)], 4, 1)
        assert indices.tolist() == [0, 1, 2, 3]
        assert facts["parallel_maps"] == 1
        run_cli("mixing", "--seed", "4", "--output", str(tmp_path), *FAST_MIXING)
        execution = json.loads((tmp_path / "mixing_manifest.json").read_text())["execution"]
        assert (execution["parallel_maps"], execution["pool_workers"]) == (0, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_suite_that_raises_leaves_no_forked_child(self, tmp_path, monkeypatch):
        pids = []

        def maps_then_fails(config):
            pids.extend(seeding.replicate(_block_pid, (), [(1, 1)], 4, 1)[0].tolist())
            raise FitError("no fit")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "mixing", maps_then_fails)
        assert run_cli("mixing", "--seed", "4", "--workers", "2",
                       "--output", str(tmp_path / "fails")) == 1
        # the blocks ran in children of this process, and none is left
        assert len(pids) == 4 and os.getpid() not in pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_block_error_reaches_the_caller_with_its_type(self):
        with pytest.raises(ValidationError, match="^block 2 fails$") as raised:
            with seeding.parallel(2):
                seeding.replicate(_fails_at_block_2, (), [(1, 1)], 4, 1)
        # its cause holds the traceback in the worker
        assert "in _fails_at_block_2" in str(raised.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_names_itself_and_leaves_no_child(self, tmp_path):
        # the block at replication 1 kills its own worker, after writing its pid
        with pytest.raises(ChildProcessError) as raised:
            with seeding.parallel(2):
                seeding.replicate(_killed_at_block_1, (str(tmp_path / "pid"),), [(1, 1)], 2, 1)
        pid = (tmp_path / "pid").read_text()
        assert f"worker {pid} ended without a result, exit code {-signal.SIGKILL}" \
            in str(raised.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forked_workers_run_blas_on_one_thread(self):
        if seeding.one_blas_thread() is None:
            pytest.skip("no OpenBLAS thread setter in this numpy build")
        setter, getter = seeding._openblas_thread_calls()
        # a parent on 2 threads: each forked child pins itself (seeding._run_share)
        setter(2)
        assert getter() == 2
        try:
            with seeding.parallel(2):
                (counts,) = seeding.replicate(_worker_blas_threads, (), [(1, 1)], 4, 1)
        finally:
            setter(1)
        assert counts.tolist() == [1, 1, 1, 1]

    def test_import_loads_openblas_on_one_thread(self, tmp_path):
        # a fresh interpreter: this one loaded numpy, and its OpenBLAS, before betamix
        if not os.path.isdir("/proc/self/task") or seeding.one_blas_thread() is None:
            pytest.skip("needs /proc/self/task and an OpenBLAS thread setter")
        script = tmp_path / "threads.py"
        script.write_text(_THREADS_CHILD)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4",
                   PYTHONPATH=str(Path(betamix.__file__).parents[1]))
        out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == {"threads": 1, "variable": "1", "workers": [1] * 4}
        # a caller that loaded numpy first keeps its own setting
        code = "import os, numpy, betamix; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "4"

    def test_numpy_first_fkr_run_pins_blas_and_keeps_its_report(self, tmp_path):
        # numpy loads first under OPENBLAS_NUM_THREADS=4, so the variable stays 4
        # and only one_blas_thread holds the run, and its forked workers, on one thread
        if seeding.one_blas_thread() is None:
            pytest.skip("no OpenBLAS thread setter in this numpy build")
        code = ("import numpy, os, sys; from betamix.cli import main; "
                "code = main(sys.argv[1:]); print(os.environ['OPENBLAS_NUM_THREADS']); "
                "sys.exit(code)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4",
                   PYTHONPATH=str(Path(betamix.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code, *runs()["fkr"], "--workers", "2",
                              "--output", str(tmp_path)], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        assert out.stdout.splitlines()[-1] == "4"
        execution = json.loads((tmp_path / "fkr_manifest.json").read_text())["execution"]
        assert execution["blas_threads"] == 1
        assert (tmp_path / "fkr_report.csv").read_bytes() == reports("fkr")["fkr_report.csv"]


_THREADS_CHILD = """
import json
import os

import betamix.cli
from betamix import seeding


def threads(args):
    import numpy as np
    return np.full(len(args[-1]), len(os.listdir("/proc/self/task")))


if __name__ == "__main__":
    own = len(os.listdir("/proc/self/task"))
    with seeding.parallel(2):
        (workers,) = seeding.replicate(threads, (), [(1, 1)], 4, 1)
    print(json.dumps({"threads": own, "variable": os.environ["OPENBLAS_NUM_THREADS"],
                      "workers": workers.tolist()}))
"""


def _block_indices(args):
    """Block function: the replication indices of its block."""
    return np.asarray(args[-1])


def _block_pid(args):
    """Block function: the pid of the process running it, once per replication."""
    return np.full(len(args[-1]), os.getpid())


def _fails_at_block_2(args):
    """Block function: raises a ValidationError in the block of replication 2."""
    if args[-1].start == 2:
        raise ValidationError("block 2 fails")
    return np.asarray(args[-1])


def _killed_at_block_1(args):
    """Block function: writes its pid to args[0] and kills its own process in
    the block of replication 1."""
    if args[-1].start == 1:
        Path(args[0]).write_text(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return np.asarray(args[-1])


def _worker_blas_threads(args):
    """Block function: the worker's OpenBLAS thread count, once per replication."""
    _, _, indices = args
    _, getter = seeding._openblas_thread_calls()
    return np.full(len(indices), getter())


class TestPlotdata:
    def test_concentration_mapping(self, tmp_path):
        report = tmp_path / "concentration_report.csv"
        report.write_text(
            "experiment_id,n,epsilon,B,p_hat,ci,bound_value,seed\n"
            "tail(eps=0.1),100,0.1,1.0,0.25,0.01,0.5,7\n"
            "tail(eps=0.2),100,0.2,1.0,0.05,0.004,0.2,7\n"
        )
        out = tmp_path / "plot.csv"
        emit_plotdata(str(report), "concentration", str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "series,x,y,y_lo,y_hi"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "eps=0.1"
        n = 100.0
        assert float(cells[1]) == pytest.approx(n / (math.log(n) * math.log(math.log(n))))
        assert float(cells[3]) == pytest.approx(0.24)
        assert float(cells[4]) == pytest.approx(0.26)

    def test_fkr_mapping_uses_median_rows(self, tmp_path):
        report = tmp_path / "fkr_report.csv"
        report.write_text(
            "n,rep_quantile_level,forecast_error,f_hat_error,g_hat_error,undefined_fraction\n"
            "200,0.5,0.1,0.2,0.3,0.0\n"
            "200,0.9,0.4,0.2,0.3,0.0\n"
        )
        out = tmp_path / "plot.csv"
        emit_plotdata(str(report), "fkr", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + three series from the 0.5 row only
        series = {ln.split(",")[0] for ln in lines[1:]}
        assert series == {"forecast_error", "f_hat_error", "g_hat_error"}

    def test_empty_body_gives_header_only(self, tmp_path):
        report = tmp_path / "fkr_report.csv"
        report.write_text(
            "n,rep_quantile_level,forecast_error,f_hat_error,g_hat_error,undefined_fraction\n"
        )
        out = tmp_path / "plot.csv"
        emit_plotdata(str(report), "fkr", str(out))
        assert out.read_text() == "series,x,y,y_lo,y_hi\n"

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        report = tmp_path / "weird.csv"
        report.write_text("a,b,c\n1,2,3\n")
        code = run_cli("plotdata", str(report), "--kind", "fkr",
                       "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, row, problem",
        [
            ("concentration", "tail,abc,0.05", "cells"),
            ("concentration", "tail(eps=0.1),abc,0.1,1.0,0.25,0.01,0.5,7", "non-numeric"),
            ("concentration", "tail(eps=0.1),100,0.1,1.0,x,0.01,0.5,7", "non-numeric"),
            ("concentration", "tail(eps=0.1),2,0.1,1.0,0.25,0.01,0.5,7", "log log n"),
            ("fkr", "200,0.5,0.1", "cells"),
            ("fkr", "200,0.5,0.1,0.2,0.3,0.0,9", "cells"),
            ("fkr", "200,0.9,0.4,abc,0.3,0.0", "non-numeric"),
            ("concentration", "tail(eps=0.1),inf,0.1,1.0,0.25,0.01,0.5,7", "non-finite"),
            ("concentration", "tail(eps=0.1),100,0.1,1.0,nan,0.01,0.5,7", "non-finite"),
            ("fkr", "200,0.5,nan,0.2,0.3,0.0", "non-finite"),
            ("fkr", "200,0.5,0.1,inf,0.3,0.0", "non-finite"),
            ("fkr", "200,0.5,0.1,0.2,-inf,0.0", "non-finite"),
        ],
    )
    def test_malformed_row_exits_2_naming_its_line(self, tmp_path, capsys, kind, row, problem):
        good = {"concentration": "tail(eps=0.1),100,0.1,1.0,0.25,0.01,0.5,7",
                "fkr": "200,0.5,0.1,0.2,0.3,0.0"}[kind]
        header = {"concentration": "experiment_id,n,epsilon,B,p_hat,ci,bound_value,seed",
                  "fkr": "n,rep_quantile_level,forecast_error,f_hat_error,g_hat_error,"
                         "undefined_fraction"}[kind]
        report = tmp_path / "report.csv"
        report.write_text(f"{header}\n{good}\n{row}\n")
        code = run_cli("plotdata", str(report), "--kind", kind,
                       "--output", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err and problem in err
        assert "Traceback" not in err

    def test_nan_bound_of_a_failed_rate_fit_is_plotted(self, tmp_path):
        # the concentration suite writes bound_value = nan when a rate fit fails
        report = tmp_path / "concentration_report.csv"
        report.write_text("experiment_id,n,epsilon,B,p_hat,ci,bound_value,seed\n"
                          "tail(eps=0.1),100,0.1,1.0,0.0,0.0,nan,7\n")
        out = tmp_path / "plot.csv"
        emit_plotdata(str(report), "concentration", str(out))
        assert len(out.read_text().strip().split("\n")) == 2

    def test_missing_report_exits_2(self, tmp_path):
        code = run_cli("plotdata", str(tmp_path / "absent.csv"), "--kind", "fkr",
                       "--output", str(tmp_path / "o.csv"))
        assert code == 2
