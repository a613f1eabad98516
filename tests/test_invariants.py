"""Internal invariants raise BrokenInvariant, a typed error that survives
``python -O`` and that the CLI reports with exit code 2."""

import ast
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hypersel
from hypersel import extension, obstruction, structures
from hypersel.cli import main
from hypersel.errors import BrokenInvariant
from hypersel.extension import extend_selection, make_partial
from hypersel.obstruction import obstruction_table
from hypersel.structures import ground_range, rotational_tournament, score_vector

PACKAGE = Path(hypersel.__file__).parent


def _raised_name(node) -> str | None:
    """The class name a raise statement names, if it names one."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_package_has_no_assert_and_no_assertion_error():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raised_name(node) == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _error_classes() -> set:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raises():
    """(file name, raise node) of every raise statement in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield path.name, node


def test_every_error_class_is_raised():
    # one class per failure mode: a class nothing raises is a mode that
    # no longer exists, or one folded into another (BrokenInvariant)
    raised = {_raised_name(node) for _, node in _raises()}
    assert sorted(_error_classes() - raised) == ["HyperselError"]


def test_every_raised_class_is_a_package_error():
    # the CLI reports HyperselError alone; anything else is a bug that
    # leaves with its traceback, save the entry point's own SystemExit
    defined = _error_classes()
    found = [f"{name}:{node.lineno}" for name, node in _raises()
             if isinstance(node.exc, ast.Call) and _raised_name(node) not in defined
             and (name, _raised_name(node)) != ("cli.py", "SystemExit")]
    assert found == []


def _enough_carries(m, n, q):
    return True


def test_obstruction_witness_is_broken_invariant(monkeypatch):
    # Kummer's test at p reporting m | C(m,p): a witness could exist
    monkeypatch.setattr(obstruction, "_carries_enough", _enough_carries)
    with pytest.raises(BrokenInvariant):
        obstruction_table(4)


def test_cli_reports_broken_invariant_with_exit_two(monkeypatch):
    monkeypatch.setattr(obstruction, "_carries_enough", _enough_carries)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["obstruct", "4"])
    assert code == 2 and out.getvalue() == ""
    assert "obstructed pair (2,2) has m | C(m,p)" in err.getvalue()


def test_obstruction_divisible_binomial_is_broken_invariant(monkeypatch):
    # a faked C(6,3) divisible by 6: the search's Kummer shortcut still
    # finds (6,3) obstructed, so only the table's exact modulus catches it
    comb = math.comb
    fake = {(6, 3): 6 * comb(6, 3)}
    monkeypatch.setattr(math, "comb", lambda a, b: fake.get((a, b)) or comb(a, b))
    with pytest.raises(BrokenInvariant, match=r"^obstructed pair \(6,3\) has m \| C\(m,p\)$"):
        obstruction_table(12)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["obstruct", "12"])
    assert code == 2 and out.getvalue() == ""
    assert "obstructed pair (6,3) has m | C(m,p)" in err.getvalue()


def test_no_small_level_class_is_broken_invariant():
    # constant scores, which least_small_class turns away as RegularInput
    # before the rule: every level class is empty or everything
    blocks = structures._score_blocks(score_vector(rotational_tournament(5)))
    with pytest.raises(BrokenInvariant):
        extension._least_small_level(blocks, 5)


def test_regular_restriction_type_is_broken_invariant(monkeypatch):
    # a 3-cycle on three labels is regular at arity 2; with the hypotheses
    # waved through, its constant scores reach the level-class rule
    f = make_partial(ground_range(3), "upto", 2, {
        frozenset({0}): 0, frozenset({1}): 1, frozenset({2}): 2,
        frozenset({0, 1}): 1, frozenset({1, 2}): 2, frozenset({0, 2}): 0,
    })
    monkeypatch.setattr(extension, "check_extension", lambda f, m, p: None)
    with pytest.raises(BrokenInvariant):
        extend_selection(f, 3, 2)
