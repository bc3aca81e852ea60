"""Tier-1 guard for the benchmark suite.

Every ``benchmarks/bench_*.py`` module must import against the current
package, and the session-loop benchmark's seed and current drivers must
still perform the same session on a toy graph.  An API change that
breaks a benchmark then fails the test suite instead of only the
benchmark's own CI job.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.graph.datasets import motivating_example

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))


def _exec(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def load_benchmark(monkeypatch):
    """Import one benchmark module the way ``pytest benchmarks/`` does.

    Benchmark modules import their helpers with ``from conftest import
    ...``, so ``conftest`` resolves to ``benchmarks/conftest.py`` while
    the module loads, and back to the test suite's afterwards.
    """
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setitem(
        sys.modules, "conftest", _exec(BENCHMARKS / "conftest.py", "_benchmarks_conftest")
    )

    def load(name: str):
        return _exec(BENCHMARKS / f"{name}.py", f"_benchmarks_{name}")

    return load


def test_benchmark_modules_are_found():
    assert "bench_session_loop" in MODULES and "bench_automata" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(load_benchmark, name):
    module = load_benchmark(name)
    assert any(attribute.startswith("test_") for attribute in vars(module))


def test_session_loop_drivers_agree_on_figure1(load_benchmark):
    bench = load_benchmark("bench_session_loop")
    goal = "(tram + bus)* . cinema"
    legacy_trace, legacy_query, legacy_halt = bench._run_legacy_session(motivating_example(), goal)
    current_trace, current_query, current_halt = bench._run_current_session(
        motivating_example(), goal
    )
    assert legacy_trace and legacy_trace == current_trace
    assert legacy_halt == current_halt
    assert str(legacy_query) == str(current_query)
