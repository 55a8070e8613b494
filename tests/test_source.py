"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isolab"


def test_no_assert_statements():
    # Verification paths raise real exceptions: an assert vanishes under
    # python -O and would let a broken result through.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(SRC.glob("*.py"))) > 5
