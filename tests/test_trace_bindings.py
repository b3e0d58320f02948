"""The benchmark's traced run binds to names in the package.

``perfbench/spans.py`` wraps the functions it lists in ``LAYERS``,
``COUNTED`` and ``RECORDS`` by name.  A refactor that renames or drops one
of them breaks only the traced benchmark run, so this test loads that file
by path, without running its ``install``, and resolves every name.  The
tracer also counts the multiply-adds of ``_backend.mat_mul`` from its two
positional arguments, so the signature of that kernel is pinned here too.
A name can resolve and still be bypassed, so one traced run checks that
every kernel of the ``kernels`` layer is reached through its traced entry.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spincas import _backend

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound_names():
    spans = _load_spans()
    names = []
    for table in (spans.LAYERS, spans.COUNTED):
        for module, fns in table.values():
            names += [(module, fn) for fn in fns]
    for module, fns in spans.RECORDS.items():
        names += [(module, fn) for fn in fns]
    return names


@pytest.mark.parametrize("module, dotted", _bound_names(), ids=lambda x: str(x))
def test_traced_name_resolves(module, dotted):
    owner = importlib.import_module(f"spincas.{module}")
    for part in dotted.split("."):
        assert hasattr(owner, part), f"spincas.{module}.{dotted} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_mat_mul_takes_the_two_factors_the_tracer_counts():
    # the traced run counts multiply-adds of mat_mul from args[0] and args[1]
    params = inspect.signature(_backend.mat_mul).parameters
    assert list(params) == ["a_rows", "b_rows"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params.values())


def test_a_traced_run_counts_every_kernel(tmp_path):
    # a kernel that the package reached around its traced entry would read 0
    result = tmp_path / "r.json"
    command = [sys.executable, str(PERFBENCH / "child.py"), str(result), "trace", "t", "-", "--"]
    command += ["report", "--r", "2", "--suites", "oracle,spectra", "--out", str(tmp_path / "a.json")]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    run = json.loads(result.read_text(encoding="utf-8"))
    assert run["exit_code"] == 0
    _, kernels = _load_spans().LAYERS["kernels"]
    calls = {fn: run["layers"].get(f"kernels.{fn}.calls", 0) for fn in kernels}
    assert all(calls.values()), calls
