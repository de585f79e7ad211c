"""The benchmark tracer wraps package functions by name; every name must resolve.

`perfbench/traced.py` installs its spans after import by looking up each
(module, attribute) of its LAYER_CALLS table on `betamix.<module>`. A rename
in the package would otherwise surface only as a failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
