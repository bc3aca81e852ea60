"""Every ``repro`` module imports on its own, whatever was imported before.

A circular import can hide behind import order: if some module happens to
pull in the far end of a cycle first, importing the near end alone still
works in the full suite and only breaks for a user who imports it first.
Each module is therefore imported alone: in a fresh interpreter, with
every ``repro`` module evicted from ``sys.modules`` before the next one,
so each import walks its dependencies from scratch.  Two interpreters
split the module list to keep the test near ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import importlib, sys, traceback
failures = []
for name in sys.argv[1:]:
    for loaded in [key for key in sys.modules if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(name + ": " + traceback.format_exc().strip().splitlines()[-1])
print("\\n".join(failures))
sys.exit(1 if failures else 0)
"""


def _module_names():
    root = Path(repro.__file__).resolve().parent
    names = []
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


#: fresh interpreters sharing the module list (each one ~0.2 s per module)
WORKERS = 2


def test_every_module_imports_alone():
    names = _module_names()
    assert "repro.interactive.oracle" in names and "repro.query.containment" in names
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, *names[start::WORKERS]],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=source_root),
        )
        for start in range(WORKERS)
    ]
    failures = []
    for worker in workers:
        output, _ = worker.communicate(timeout=120)
        if worker.returncode != 0:
            failures.append(output)
    assert failures == []
