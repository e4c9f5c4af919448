"""Source-level rules.

No correctness check may live in a statement that ``python -O`` strips, the
row format of degree-wise linear algebra stays behind ``algebra.Span``, and
every name the benchmark's tracer wraps stays bound.
"""

import ast
import importlib
import importlib.util
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


def test_tracer_sites_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = tracer.SPANS + tracer.COUNTS
    assert len(sites) > 50
    for module_name, attr, _ in sites:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(tracer._lookup(module, attr)), f"{module_name}.{attr}"
