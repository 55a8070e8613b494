"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isolab"


def raises_assertion_error(node):
    """Whether node is ``raise AssertionError`` or ``raise AssertionError(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # Verification paths raise real exceptions: an assert vanishes under
    # python -O and would let a broken result through. A broken invariant
    # raises RuntimeError, so AssertionError is left to the tests.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(SRC.glob("*.py"))) > 5


def called_name(call):
    """The name a call expression calls, plain or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_recursive_generators():
    # A generator that yields from a call to itself pays a frame and a
    # generator object per level, and every item passes up through each
    # level; a search is one loop with an explicit stack instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.YieldFrom)
                    and isinstance(node.value, ast.Call)
                    and called_name(node.value) == fn.name
                ):
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []
