"""The benchmark's traced run wraps library functions by name
(``perfbench/spans.py``, ``PATCHES``) and skips a name it cannot find,
so a renamed function would read as zero work instead of failing.
Every wrapped name must therefore still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mods, attr, *_ in spans.PATCHES for mod in mods]


@pytest.mark.parametrize("mod, attr", _patches())
def test_wrapped_name_resolves(mod, attr):
    module = importlib.import_module(f"hypersel.{mod}")
    assert callable(getattr(module, attr, None)), f"hypersel.{mod}.{attr} is gone"

