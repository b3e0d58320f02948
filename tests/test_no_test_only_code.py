"""Every module-level function, class and constant of the package, and every
method other than a dunder, has a caller.

A definition counts as used when a module of ``src/spincas`` or of the
benchmark (``perfbench/*.py``, not its own tests) refers to it outside the
definition itself.  A method counts as used when any attribute of that name
is read, since the scan does not know the type of the object it is read
from.  The benchmark's string constants count too, because
``perfbench/spans.py`` wraps functions by name.  The re-exports of the
package's ``__init__`` do not count: a name that only they and the tests
use is code that only tests call.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def _definitions(module: str, tree):
    """(dotted name, bare name, node) of each module-level function, class
    and constant, and of each non-dunder method of a module-level class.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{module}.{target.id}", target.id, node


def unreferenced(root: Path = ROOT) -> list[str]:
    """The dotted name of each definition that nothing refers to."""
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
        for dotted, name, node in _definitions(module, tree):
            own = sum(1 for ref in _names(node) if ref == name)
            if used[name] == own:
                out.append(dotted)
    return out


def test_every_definition_has_a_caller():
    assert unreferenced() == []


def test_unused_constants_and_methods_are_found(tmp_path):
    package = tmp_path / "src" / "spincas"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        "USED = 1\n"
        "UNUSED: int = 2\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = USED\n"
        "    def kept(self):\n"
        "        return self.value\n"
        "    def dropped(self):\n"
        "        return self.dropped\n"
        "def main():\n"
        "    return Box().kept()\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text('TRACED = "mod.main"\n')
    assert unreferenced(tmp_path) == ["mod.UNUSED", "mod.Box.dropped"]
