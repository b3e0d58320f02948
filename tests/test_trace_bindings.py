"""The benchmark's traced run binds to names in the package.

``perfbench/spans.py`` wraps the functions it lists in ``LAYERS``,
``COUNTED`` and ``RECORDS`` by name.  A refactor that renames or drops one
of them breaks only the traced benchmark run, so this test loads that file
by path, without running its ``install``, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
