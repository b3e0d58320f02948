"""Every module-level function and class of the package has a caller.

A definition counts as used when a module of ``src/spincas`` or of the
benchmark (``perfbench/*.py``, not its own tests) refers to it outside the
definition itself.  The benchmark's string constants count too, because
``perfbench/spans.py`` wraps functions by name.  The re-exports of the
package's ``__init__`` do not count: a name that only they and the tests
use is code that only tests call.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# statements that are not in the report yet; each waits for the record named
ALLOWED = {
    "gamma_duality_check": "a gamma-suite record of the grading-element product rule",
    "c2_from_matrices": "a record of the Casimir contraction on the half-spinor and defining matrices",
}


def _names(tree, strings: bool = False):
    """The names a tree refers to, and with ``strings`` the identifiers
    inside its string constants.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def unreferenced(root: Path = ROOT) -> list[str]:
    """module.name of each module-level definition that nothing refers to."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((root / "src" / "spincas").glob("*.py"))
        if path.name != "__init__.py"
    }
    used = Counter()
    for tree in modules.values():
        used.update(_names(tree))
    for path in sorted((root / "perfbench").glob("*.py")):
        if path.name != "test_checks.py":
            used.update(_names(ast.parse(path.read_text()), strings=True))
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = sum(1 for name in _names(node) if name == node.name)
                if used[node.name] == own:
                    out.append(f"{module}.{node.name}")
    return out


def test_every_definition_has_a_caller():
    found = unreferenced()
    assert [name for name in found if name.split(".")[1] not in ALLOWED] == []
    # an allowed name that gained a caller leaves the list
    assert {name.split(".")[1] for name in found} >= set(ALLOWED)
