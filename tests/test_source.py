"""Source-level rules.

No correctness check may live in a statement that ``python -O`` strips, every
import sits at module top level, no module imports ``dataclasses`` or
``typing`` and importing the CLI loads neither (start-up cost), the row format
of degree-wise linear algebra stays behind ``algebra.Span``, report JSON is
written only by ``suites.report_json``, every defaulted parameter is passed
by some caller in the package, every affine space of rows in
``finitefields`` is read through one line walk, the whole motive is one
closed product per bottom rank with no recursion and no cache, every
name the benchmark's tracer wraps stays bound, every package name the
README spells out still resolves, and every mutant of the ledger
(``tests/mutants.py``) still applies.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import chowlab
from chowlab import finitefields, motives

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


def test_imports_at_module_level():
    # a function-local import hides a module's dependencies from its header
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
    assert not found, f"imports below module level in src/chowlab: {found}"


SLOW_IMPORTS = {"dataclasses", "typing"}


def test_no_slow_imports_in_package():
    # records are collections.namedtuple: dataclasses pulls in inspect, ast and
    # dis, and each dataclass execs its generated methods at import time
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in SLOW_IMPORTS
            ]
    assert not found, f"slow imports in src/chowlab: {found}"


def test_cli_import_loads_no_introspection_modules():
    # -S skips site, which may preload modules of its own
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import chowlab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", out.stdout


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


def test_json_stays_in_report_layer():
    # domain reports are records, and a record (named tuple) becomes its fields
    # by name in suites.report_json; only the presentation round-trip format and
    # the decompose output keep their own
    owners = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "suites.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        owners += [
            f"{path.name}:{getattr(parents[node], 'name', '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "to_json"
        ]
    assert sorted(owners) == ["algebra.py:AlgebraPresentation", "motives.py:Motive"], owners


# (module, function or class, parameter) whose default is for callers outside the package
DEFAULT_ONLY_FROM_OUTSIDE = {("cli", "main", "argv")}


def _defaulted_parameters():
    """(module, callee name, parameter, position or None if keyword-only) of every default.

    The callee name is the function's, or the class's for ``__init__`` and
    ``__new__``; positions skip the ``self``/``cls`` of methods.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = parents[node]
            params = node.args.posonlyargs + node.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if isinstance(owner, ast.ClassDef) and not static:
                params = params[1:]
            name = owner.name if node.name in ("__init__", "__new__") else node.name
            first = len(params) - len(node.args.defaults)
            found += [(path.stem, name, a.arg, i) for i, a in enumerate(params) if i >= first]
            found += [
                (path.stem, name, a.arg, None)
                for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
    return found


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # None: a **mapping
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def test_every_default_has_a_caller_that_sets_it():
    # a setting earns its place only when some caller needs another value
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaulted = _defaulted_parameters()
    assert len(defaulted) > 10
    unset = [
        f"{module}.{name}({param})"
        for module, name, param, position in defaulted
        if (module, name, param) not in DEFAULT_ONLY_FROM_OUTSIDE
        and not any(_passes(call, param, position) for call in calls.get(name, ()))
    ]
    assert not unset, f"defaulted parameters that no call in src/chowlab sets: {unset}"


def test_one_line_walk_reads_every_affine_space():
    # the subspace search, the quadratic splitting and the char-2 radical test
    # all read rows through _SubspaceSearch._lines, the one caller of _points
    # apart from its own recursion, and charge nodes there
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_points":
                owner = parents[node]
                while not isinstance(owner, (ast.FunctionDef, ast.Module)):
                    owner = parents[owner]
                callers.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    callers = [c for c in callers if c != "finitefields._points"]
    assert callers == ["finitefields._lines"], callers
    for gone in ("_last_rows", "_solve", "_isotropic_rows"):
        assert not hasattr(finitefields._SubspaceSearch, gone), gone
    assert not hasattr(finitefields, "_Nodes")


def test_hermitian_index_is_one_chain():
    # the index follows one chain of first rows: it neither loops over r nor
    # asks the search to count, and the search has no first-only mode
    tree = ast.parse((SRC / "finitefields.py").read_text(encoding="utf-8"))
    (witt,) = [n for n in ast.walk(tree) if getattr(n, "name", None) == "witt_index_hermitian"]
    assert not any(isinstance(n, ast.For) for n in ast.walk(witt))
    called = {getattr(n.func, "attr", None) for n in ast.walk(witt) if isinstance(n, ast.Call)}
    assert {"_first_row", "_node"} <= called and "count" not in called, called
    assert list(inspect.signature(finitefields._SubspaceSearch.count).parameters) == ["self", "r"]


def test_whole_motive_is_one_closed_product():
    # Essential(n, r) and the whole motive are read off one product per bottom
    # rank: no function of motives calls itself, nothing is cached between calls,
    # and one budget charges both
    tree = ast.parse((SRC / "motives.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    calls = {
        f.name: {getattr(n.func, "id", None) for n in ast.walk(f) if isinstance(n, ast.Call)}
        for f in functions
    }
    assert [name for name, called in calls.items() if name in called] == [], calls
    for public in ("essential_poincare", "witt_decompose_whole", "decompose_step"):
        assert "_shift_polynomials" in calls[public], calls[public]
    assert not any(f.decorator_list for f in functions)
    held = [k for k, v in vars(motives).items() if isinstance(v, (dict, list, set))]
    assert held == ["__builtins__"], held
    assert [name for name in vars(motives) if name.endswith("_BUDGET")] == ["_MOTIVE_BUDGET"]
    gone = ("_witt_whole", "_table", "_admit", "_filled", "_step_shifts", "lru_cache", "Counter")
    assert [name for name in gone if hasattr(motives, name)] == []
    # a motive keeps each atom's multiplicities by shift whole: neither it nor the
    # functions that build one explode them into a dict of (atom, shift) summands,
    # and it has no summand list to shift (test_records checks that + refuses)
    assert motives.Motive._fields == ("atoms", "speck_residual")
    assert "shifted" not in vars(motives.Motive), vars(motives.Motive)
    motive = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Motive")
    makers = [f for f in functions if f.name in ("decompose_step", "witt_decompose_whole")]
    exploded = [
        node.lineno
        for maker in [motive, *makers]
        for node in ast.walk(maker)
        if isinstance(node, ast.DictComp)
        or isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("dict", "enumerate", "setdefault")
    ]
    assert exploded == [], exploded


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


README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def test_readme_names_resolve():
    # A backticked dotted name counts when its head is ``chowlab``, a top-level
    # class or function of the package, or capitalised like a class name (so a
    # README still naming a deleted class fails); all-caps heads are file names.
    defined = {
        node.name: f"chowlab.{path.stem}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    names = [
        name
        for name in DOTTED_NAME.findall(README.read_text(encoding="utf-8"))
        for head in [name.split(".")[0]]
        if head == "chowlab" or head in defined or (head[0].isupper() and not head.isupper())
    ]
    assert "AlgebraPresentation.from_json" in names
    unresolved = []
    for name in names:
        head = name.split(".")[0]
        target = name if head == "chowlab" else f"{defined.get(head, 'chowlab')}:{name}"
        try:
            pkgutil.resolve_name(target)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved, f"README names that do not resolve: {unresolved}"


def test_mutant_ledger_snippets_occur_once():
    # a refactor that moves mutated code must move its ledger entries with it
    root = Path(__file__).resolve().parents[1]
    entries = json.loads((root / "tests" / "data" / "mutants.json").read_text(encoding="utf-8"))
    assert len(entries) >= 26
    assert len({e["id"] for e in entries}) == len(entries)
    for e in entries:
        text = (root / e["file"]).read_text(encoding="utf-8")
        assert text.count(e["old"]) == 1 and e["new"] != e["old"], e["id"]
        if e["tests"] == "equivalent":
            assert e["reason"], e["id"]
            continue
        assert e["tests"], e["id"]
        for node_id in e["tests"]:
            path, name = node_id.split("::")
            assert f"def {name.split('[')[0]}(" in (root / path).read_text(encoding="utf-8"), node_id
