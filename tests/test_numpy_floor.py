"""The numpy calls of the package exist at the numpy floor of pyproject.toml.

numpy_calls.json lists every np.* call and every generator-method call of
src/betamix with each keyword it passes, and the numpy version that added
each, from the versionadded notes of numpy's docstrings. The check reads the
package's source and the list, not numpy, so it holds for the floor on any
installed numpy.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np

import betamix

ROOT = Path(__file__).resolve().parents[1]
LISTED = json.loads(Path(__file__).with_name("numpy_calls.json").read_text())["calls"]
# the methods of numpy's generators, bit generators and seed sequences
GENERATOR_METHODS = {name for cls in (np.random.Generator, np.random.PCG64,
                                      np.random.SeedSequence)
                     for name in dir(cls) if not name.startswith("_")}


def dotted(node):
    """a.b.c for an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def numpy_calls() -> set[str]:
    """Each np.* and generator-method call of the package as its source names
    it, and each keyword it passes as name(keyword=)."""
    found = set()
    for path in sorted(Path(betamix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = dotted(node.func)
            if (name or "").startswith("np.") or node.func.attr in GENERATOR_METHODS:
                name = name or ast.unparse(node.func)
                found.add(name)
                found.update(f"{name}({kw.arg}=)" for kw in node.keywords if kw.arg)
    return found


def version(text: str) -> tuple[int, ...]:
    return (*map(int, text.split(".")), 0, 0)[:3]


def test_the_list_is_the_packages_numpy_calls():
    calls = numpy_calls()
    missing, stale = sorted(calls - LISTED.keys()), sorted(LISTED.keys() - calls)
    assert not missing, f"numpy calls missing from numpy_calls.json: {missing}"
    assert not stale, f"numpy_calls.json lists calls the package no longer makes: {stale}"


def test_no_call_is_newer_than_the_declared_floor():
    floor = re.search(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    newer = {name: added for name, added in LISTED.items()
             if added is not None and version(added) > version(floor)}
    assert not newer, f"numpy calls added after the declared floor numpy>={floor}: {newer}"
