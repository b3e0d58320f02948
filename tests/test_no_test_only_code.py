"""Every module-level function, class and constant of the package, every
method other than a dunder, and every name a module imports, has a use.

A module-level definition counts as used when a module of ``src/spincas``
or of the benchmark (``perfbench/*.py``, not its own tests) loads its name
or reads an attribute of that name outside the definition itself.  A
method counts as used only when some code outside it reads an attribute of
that name: the scan does not know the type of the object read from, but a
bare name of the same spelling, such as a local variable, is not a use.  A
method that overrides one of a base class from outside the package, such
as ``argparse.ArgumentParser.error``, is called by that base.  The
benchmark's string constants count too, because ``perfbench/spans.py``
wraps functions and methods by name (``"RMatrixFamily.evaluate"``).  Each
name that a module of the package other than ``__init__`` imports must be
loaded in that module.  The re-exports of the package's ``__init__`` do
not count: a name that only they and the tests use is code that only tests
call.
"""

import ast
import pkgutil
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree, strings: bool = False) -> tuple[Counter, Counter]:
    """(names, attributes): the names a tree loads or reads as attributes,
    and the attribute names alone, each with its count.  With ``strings``
    the identifiers inside its string constants count as both.
    """
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = re.findall(r"\w+", node.value)
            names.update(words)
            attributes.update(words)
    return names, attributes


def _imports(tree):
    """(bound name, origin) of each name an import binds; origin is the
    dotted name outside the package, or None for a relative import.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                yield bound, alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, None if node.level else f"{node.module}.{alias.name}"


def _outside_bases(tree, cls) -> list:
    """The classes from outside the package that ``cls`` names as bases."""
    origin = {bound: dotted for bound, dotted in _imports(tree) if dotted}
    bases = []
    for base in cls.bases:
        head, _, rest = ast.unparse(base).partition(".")
        dotted = origin.get(head, f"builtins.{head}") + (f".{rest}" if rest else "")
        try:
            bases.append(pkgutil.resolve_name(dotted))
        except (ImportError, AttributeError, ValueError):
            pass
    return bases


def _definitions(module: str, tree):
    """(dotted name, bare name, node, is a method) of each module-level
    function, class and constant, and of each non-dunder method of a
    module-level class that overrides nothing from outside the package.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            bases = _outside_bases(tree, node)
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("__")
                    and not any(hasattr(base, item.name) for base in bases)
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{module}.{target.id}", target.id, node, False


def unreferenced(root: Path = ROOT) -> list[str]:
    """The dotted name of each definition that nothing refers to, then
    ``<module>.<name> (unused import)`` for each import its module never
    loads.
    """
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((root / "src" / "spincas").glob("*.py"))
        if path.name != "__init__.py"
    }
    names, attributes = Counter(), Counter()
    for tree in modules.values():
        n, a = _uses(tree)
        names.update(n)
        attributes.update(a)
    for path in sorted((root / "perfbench").glob("*.py")):
        if path.name != "test_checks.py":
            n, a = _uses(ast.parse(path.read_text()), strings=True)
            names.update(n)
            attributes.update(a)
    out = []
    for module, tree in modules.items():
        for dotted, name, node, is_method in _definitions(module, tree):
            used = attributes if is_method else names
            if used[name] == _uses(node)[is_method][name]:
                out.append(dotted)
    for module, tree in modules.items():
        loaded = _uses(tree)[0]
        out += [f"{module}.{bound} (unused import)" for bound, _ in _imports(tree) if not loaded[bound]]
    return out


def test_every_definition_has_a_caller():
    assert unreferenced() == []


def test_unused_constants_and_methods_are_found(tmp_path):
    package = tmp_path / "src" / "spincas"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        "import argparse\n"
        "from fractions import Fraction\n"
        "USED = 1\n"
        "UNUSED: int = 2\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = USED\n"
        "    def kept(self):\n"
        "        return self.value\n"
        "    def dropped(self):\n"
        "        return self.dropped\n"
        "    def shadowed(self):\n"
        "        return 0\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise SystemExit(message)\n"
        "def main():\n"
        "    shadowed = Box().kept()\n"
        "    return shadowed, Parser\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text('TRACED = "mod.main"\n')
    assert unreferenced(tmp_path) == [
        "mod.UNUSED",
        "mod.Box.dropped",
        "mod.Box.shadowed",
        "mod.Fraction (unused import)",
    ]
