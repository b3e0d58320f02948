"""Start-up: every CLI call imports ``spincas.cli`` in a fresh interpreter
before it checks anything, so that import loads only what the checks use.
The record types are plain ``__slots__`` classes; ``dataclasses`` would pull
in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and decorate each class at
import time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_AT_START_UP = {"dataclasses", "inspect", "ast", "tokenize", "traceback"}

_LIST_ADDED = """
import sys
before = set(sys.modules)
import spincas.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", _LIST_ADDED], env=env, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "spincas.cli" in added
    assert not added & NOT_AT_START_UP, sorted(added & NOT_AT_START_UP)
