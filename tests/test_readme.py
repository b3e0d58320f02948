"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert match, "the Library section opens with a python block"
    return match.group(1)


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
