"""No ``assert`` statement in ``src/spincas``.

A failure of the package is a failing check with a witness or an explicit
error that names what went wrong.  An ``assert`` is neither: it stops a
report with a bare ``AssertionError``, and under ``python -O`` it is not
run at all, so the code after it goes on with a value it never checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def assert_statements(root: Path = ROOT) -> list[str]:
    """``<file>:<line>`` of each ``assert`` statement in ``src/spincas``."""
    out = []
    for path in sorted((root / "src" / "spincas").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_assert_in_the_package():
    assert assert_statements() == []


def test_assert_statements_are_found(tmp_path):
    package = tmp_path / "src" / "spincas"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""An assert in prose is not a statement."""\n'
        "def f(x):\n"
        "    assert x, 'x must be set'\n"
        "    if not x:\n"
        "        raise ValueError('x must be set')\n"
        "    def g():\n"
        "        assert x > 0\n"
        "    return g\n"
    )
    assert assert_statements(tmp_path) == ["mod.py:3", "mod.py:7"]
