"""The README's Library example runs as written, and every line of its
Command line block parses.
"""

import re
import shlex
from pathlib import Path

from spincas.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading: str, language: str) -> str:
    """The code block that opens the README section under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    match = re.match(rf"\s*```{language}\n(.*?)\n```", section, re.DOTALL)
    assert match, f"the {heading} section opens with a {language} block"
    return match.group(1)


def test_library_example_runs():
    exec(compile(section_block("Library", "python"), str(README), "exec"), {})


def test_command_line_examples_parse():
    # parsing only: a renamed or removed flag fails here, and no suite runs
    commands = [shlex.split(line, comments=True) for line in section_block("Command line", "sh").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["spincas"]]
    assert commands, "the Command line block lists spincas commands"
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
