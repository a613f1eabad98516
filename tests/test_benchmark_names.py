"""The benchmark's traced run wraps library functions by name
(``perfbench/spans.py``, ``PATCHES``) and skips a name it cannot find,
so a renamed function would read as zero work instead of failing.
Every wrapped name must therefore still resolve, save the ones listed in
``RETIRED``: deleted from the library on purpose, they must stay gone.
``perfbench/run.py`` and ``spans.py`` also read library names directly,
as attribute chains on the imported package; those must resolve too, or
every run breaks."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import hypersel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

# the names that stand for a hypersel module in each file: run.py binds
# S = hs.structures and passes each kernel backend to lambda k
ROOTS = {
    "run.py": {"hs": (), "S": ("structures",), "k": ("_kernels",)},
    "spans.py": {"hs": ()},
}

# (module, name) pairs that PATCHES wraps but that no CLI op or library
# caller reached, so they were deleted; the tracer skips them
RETIRED = {
    ("vietoris", "find_preserving_neighborhoods"),
    ("chains", "_placement"),
    ("chains", "restrict"),
    ("chains", "intersect_nonempty"),
    ("chains", "meets_uniquely"),
    ("obstruction", "prime_obstruction_holds"),
    ("cli", "write_selection"),
    ("cli", "write_partial"),
    ("cli", "write_system"),
    ("extension", "canonical_form"),
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _patches():
    return [(mod, attr) for mods, attr, *_ in _spans().PATCHES for mod in mods]


def _direct_reads():
    """Dotted names, module first, of every outermost attribute chain on
    a root of ROOTS or on tr.hs (the tracer's package)."""
    reads = set()
    for name, roots in ROOTS.items():
        tree = ast.parse((PERFBENCH / name).read_text())
        inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                continue
            if node.id == "tr" and chain[:1] == ["hs"]:
                chain = chain[1:]
            elif node.id in roots:
                chain = [*roots[node.id], *chain]
            else:
                continue
            if chain:
                reads.add(".".join(chain))
    return sorted(reads)


@pytest.mark.parametrize("mod, attr", _patches())
def test_wrapped_name_resolves(mod, attr):
    module = importlib.import_module(f"hypersel.{mod}")
    if (mod, attr) in RETIRED:
        assert not hasattr(module, attr), f"hypersel.{mod}.{attr} is back"
    else:
        assert callable(getattr(module, attr, None)), f"hypersel.{mod}.{attr} is gone"


def test_retired_names_are_wrapped_names():
    assert RETIRED <= set(_patches())


def test_tracer_installs_over_the_package():
    spans = _spans()
    pairs = _patches()
    modules = {mod: importlib.import_module(f"hypersel.{mod}") for mod, _ in pairs}
    before = {(mod, attr): getattr(modules[mod], attr, None) for mod, attr in pairs}
    with spans.installed(spans.Tracer(), hypersel):
        for (mod, attr), original in before.items():
            if (mod, attr) in RETIRED:
                assert not hasattr(modules[mod], attr), f"{mod}.{attr} was installed"
            else:
                wrapper = getattr(modules[mod], attr)
                assert wrapper is not original, f"{mod}.{attr} was not wrapped"
                assert wrapper.__qualname__ == "_wrap.<locals>.wrapper"
    assert {pair: getattr(modules[pair[0]], pair[1], None) for pair in pairs} == before


def test_direct_reads_found():
    assert "cli.main" in _direct_reads()


@pytest.mark.parametrize("name", _direct_reads())
def test_direct_read_resolves(name):
    mod, *attrs = name.split(".")
    obj = importlib.import_module(f"hypersel.{mod}")
    for attr in attrs:
        assert hasattr(obj, attr), f"hypersel.{name} is gone"
        obj = getattr(obj, attr)
