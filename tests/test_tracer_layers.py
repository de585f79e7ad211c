"""The benchmark tracer wraps package functions by name; every name must resolve.

`perfbench/traced.py` installs its spans after import by looking up each
(module, attribute) of its LAYER_CALLS table on `betamix.<module>`, and takes
its step counters from the wrapped calls' `spec`, `n` and `seeds` arguments.
A rename in the package would otherwise surface only as a failed benchmark run.
"""

import importlib
import importlib.util
import marshal
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import betamix

TRACED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_CALLS = load_traced().LAYER_CALLS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in LAYER_CALLS], ids=lambda v: v
)
def test_layer_call_resolves(module_name, attr):
    module = importlib.import_module(f"betamix.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer replaces the entry in the class's own __dict__
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def traced_run(tmp_path, suite, *cli_args):
    """The marshal dump of one traced CLI run at workers = 1: (names, name
    index, starts, ends, parents, counters) of its spans; the run must exit 0."""
    spans = tmp_path / "spans"
    env = dict(os.environ, PYTHONPATH=str(Path(betamix.__file__).parents[1]))
    argv = [sys.executable, str(TRACED_PATH), str(spans), suite, "--workers", "1",
            "--output", str(tmp_path / "out"), *cli_args]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    with open(spans, "rb") as fh:
        return marshal.load(fh)


def test_traced_concentration_counts_chain_steps(tmp_path):
    *_, counters = traced_run(
        tmp_path, "concentration", "--seed", "2", "--reps", "200",
        "--set", "grid.n=50,100,200,400", "--set", "grid.epsilon=0.1",
        "--set", "grid.A=14,20", "--set", "fspec=odd-clip", "--set", "process.burn_in=100",
    )
    tail = sum(200 * (100 + n) for n in (50, 100, 200, 400))
    laplace = sum(200 * (100 + a) for a in (14, 20))
    assert counters["processes.chain_steps"] == tail + laplace


@pytest.fixture(scope="module")
def traced_fkr(tmp_path_factory):
    return traced_run(
        tmp_path_factory.mktemp("fkr"), "fkr", "--seed", "405", "--reps", "100",
        "--set", "grid.n=100,200", "--set", "grid_size=16", "--set", "process.burn_in=50",
    )


def test_traced_fkr_counts_far1_steps(traced_fkr):
    counters = traced_fkr[-1]
    # a training path and a reference path per replication
    assert counters["processes.far1_steps"] == sum(2 * 100 * (50 + n) for n in (100, 200))


def test_traced_fkr_sees_each_forecast_layer(traced_fkr):
    names, name_idx = traced_fkr[:2]
    spans = Counter(names[i] for i in name_idx)
    replications = 2 * 100
    # reference distances, then training distances inside the NW evaluation
    assert spans["regression.distance"] == 2 * replications
    assert spans["regression.small_ball"] == replications
    assert spans["regression.bandwidth"] == replications
    assert spans["regression.nw"] == replications
