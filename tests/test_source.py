"""Source-level rules.

No correctness check may live in a statement that ``python -O`` strips, and the
row format of degree-wise linear algebra stays behind ``algebra.Span``.
"""

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


ROW_NAMES = {"F2Span", "ZSpan", "f2_kernel", "z_kernel", "vectorize"}


def test_rows_stay_behind_span():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("algebra.py", "linalg.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in ROW_NAMES]
    assert not found, f"row-level linear algebra outside algebra.Span: {found}"
