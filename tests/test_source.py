"""Source-level rules: no correctness check may live in a statement that ``python -O`` strips."""

import ast
from pathlib import Path

import chowlab

SRC = Path(chowlab.__file__).parent


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, f"assert statements in src/chowlab: {found}"
