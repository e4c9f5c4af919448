"""Run the mutant ledger: every deliberately broken copy must fail its tests.

Each entry of ``tests/data/mutants.json`` names a file, an ``old`` snippet
that occurs in it exactly once, the ``new`` snippet that replaces it, and
either the pytest node ids that must then fail or ``"equivalent"`` with a
``reason``.  For each entry the runner copies ``src`` and ``tests`` (with the
files Tier-1 reads: ``demos``, ``perfbench``, ``README.md`` and
``pyproject.toml``) into a temporary directory, applies the mutant there and
runs ``python -m pytest -q -x`` on the named tests, expecting a test to
fail (pytest exit code 1: a collection error does not count); an
equivalent entry runs all of Tier-1 but the ledger's own snippet check
(which reads the mutated copy) and expects a pass.  The checkout itself
is never written.

    python tests/mutants.py               # every entry
    python tests/mutants.py ID [ID ...]   # only these entries

Exits 0 when every mutant behaves as its entry says, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "mutants.json"
COPIED = ("src", "tests", "demos", "perfbench", "README.md", "pyproject.toml")
LEDGER_CHECK = "tests/test_source.py::test_mutant_ledger_snippets_occur_once"


def load() -> list[dict]:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def _copy(target: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target / name)


def run(entry: dict) -> bool:
    """True when the mutant behaves as its entry says."""
    with tempfile.TemporaryDirectory(prefix="chowlab-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / entry["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            print(f"{entry['id']}: old snippet does not occur exactly once in {entry['file']}")
            return False
        path.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        equivalent = entry["tests"] == "equivalent"
        # the ledger's own check reads the mutated copy, where the old snippet is gone
        tier1 = ["--continue-on-collection-errors", "--deselect", LEDGER_CHECK]
        args = tier1 if equivalent else ["-x", *entry["tests"]]
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    summary = (result.stdout.strip().splitlines() or [""])[-1]
    ok = result.returncode == (0 if equivalent else 1)  # 1: tests ran and some failed
    verdict = ("equivalent" if equivalent else "killed") if ok else "UNEXPECTED"
    print(f"{entry['id']}: {verdict} ({summary})")
    return ok


def main(argv: list[str]) -> int:
    entries = load()
    unknown = set(argv) - {e["id"] for e in entries}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}")
        return 2
    start = time.perf_counter()
    failed = [e["id"] for e in entries if (not argv or e["id"] in argv) and not run(e)]
    print(f"{len(failed)} unexpected in {time.perf_counter() - start:.1f} s: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
