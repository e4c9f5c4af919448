"""The narrative demo scripts must run clean end to end and print their recorded output."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    expected = ROOT / "tests" / "data" / "demos" / f"{script.stem}.txt"
    assert proc.stdout == expected.read_text(encoding="utf-8")
