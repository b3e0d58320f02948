"""Every equality the package checks goes through ``add_equal``.

``VerificationRecord.add_equal`` builds the witness of a failing equality,
the first differing entry of two matrices or ``got != want``.  A check
written as ``record.add(check_id, a == b, ...)`` states the same equality a
second way, with a witness of its own or none.  So no ``.add(`` call in
``src/spincas`` may pass an expression that holds a comparison as its
second argument, the outcome of the check.  The kernels' ``RowsSum.add``
and ``ScaledSum.add`` take a coefficient there, never a comparison.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def hand_written_comparisons(root: Path = ROOT) -> list[str]:
    """``<file>:<line>`` of each ``.add(`` call in ``src/spincas`` whose
    second argument holds a comparison.
    """
    out = []
    for path in sorted((root / "src" / "spincas").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and len(node.args) > 1
                and any(isinstance(inner, ast.Compare) for inner in ast.walk(node.args[1]))
            ):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_comparison_is_passed_to_add():
    assert hand_written_comparisons() == []


def test_comparisons_passed_to_add_are_found(tmp_path):
    package = tmp_path / "src" / "spincas"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def checks(record, a, b, seen):\n"
        "    record.add('equal', a == b, f'{a} != {b}')\n"
        "    record.add('all-equal', all(x == b for x in a))\n"
        "    record.add_equal('through-add-equal', a, b)\n"
        "    record.add('predicate', bool(a))\n"
        "    seen.add(a)\n"
        "    total.add(2, 0, a)\n"
    )
    assert hand_written_comparisons(tmp_path) == ["mod.py:2", "mod.py:3"]
