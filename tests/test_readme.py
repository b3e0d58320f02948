"""The README's Library example runs as written, every line of its
Command line block parses, and its Command line section names exactly the
parser's flags.
"""

import argparse
import re
import shlex
from pathlib import Path

from spincas.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text of the README section under ``heading``, up to the next one."""
    return README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def section_block(heading: str, language: str) -> str:
    """The code block that opens the README section under ``heading``."""
    match = re.match(rf"\s*```{language}\n(.*?)\n```", section(heading), re.DOTALL)
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


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of the parser and of its subcommands."""
    flags, parsers = set(), [parser]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def test_command_line_section_names_exactly_the_parser_flags():
    # a removed flag must not live on in the docs, nor a new one go unmentioned
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][A-Za-z-]*", section("Command line")))
    assert documented == parser_flags(_build_parser())
