"""The benchmark's output checks bind to names in the package.

``perfbench/checks.py`` reads the program's outputs after each timed call
through ``from spincas import X`` and attributes ``X.attr``.  A refactor
that renames or drops one of them breaks only the benchmark's output
checks, so this test parses that file without running it and resolves
every such attribute.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _bound_names():
    tree = ast.parse(CHECKS.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spincas"
        for alias in node.names
    }
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )


def test_the_parse_finds_the_oracle_checks():
    assert ("oracles", "killing_metric_from_contraction") in _bound_names()


@pytest.mark.parametrize("module, attr", _bound_names(), ids=lambda x: str(x))
def test_checked_name_resolves(module, attr):
    owner = importlib.import_module(f"spincas.{module}")
    assert hasattr(owner, attr), f"spincas.{module}.{attr} is gone"
