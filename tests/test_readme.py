"""README's Python examples run as written.

The blocks share one namespace, in README order, because the later ones use
names (such as `np`) that the first one binds.
"""

import ast
import re
from pathlib import Path

import betamix
from betamix.config import parse_config_text, resolve_config
from betamix.processes import ContractiveChainSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["out"].defined


def test_python_blocks_import_only_exported_names():
    imported = {
        alias.name
        for block in python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "betamix"
        for alias in node.names
    }
    assert imported
    assert imported <= set(betamix.__all__)


def test_ini_example_parses_and_resolves():
    (block,) = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.M | re.S)
    config = resolve_config(parse_config_text(block))
    assert config.suite == "concentration"
    assert config.process == ContractiveChainSpec()
    assert [a for a, _ in config.a_points] == [14.0, 20.0, 50.0, 100.0]
