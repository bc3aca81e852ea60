"""Tier-1 guard for the example scripts.

Every ``examples/*.py`` runs end to end in its own interpreter (about
5 s for the whole set).  The examples exercise public extension points —
``build_your_own_graph.py`` subclasses ``Strategy`` — so an API change
that breaks one fails the test suite instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), f"{script.name} printed nothing"
