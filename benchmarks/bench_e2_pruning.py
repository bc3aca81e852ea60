"""E2 — pruning of uninformative nodes after each interaction.

Tracks the fraction of unlabelled nodes whose label is already implied
(pruned) as the interactive session progresses.  Expected shape: the
fraction grows as negatives accumulate, so the strategy's candidate pool
shrinks much faster than one node per question.
"""

from repro.experiments.harness import run_e2_pruning
from repro.graph.datasets import motivating_example
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import pruning_fraction
from repro.serving.workspace import GraphWorkspace
from repro.workloads.generator import quick_suite

from conftest import write_artifact


def test_e2_full_table(benchmark, results_dir):
    cases = quick_suite(seed=19)
    tables = benchmark.pedantic(
        run_e2_pruning, args=(cases,), kwargs={"seed": 19}, rounds=1, iterations=1
    )
    write_artifact(results_dir, "e2_detail.txt", tables["detail"].render())
    write_artifact(results_dir, "e2_summary.txt", tables["summary"].render())
    for row in tables["detail"]:
        assert 0.0 <= row["saved_fraction"] <= 1.0


def test_e2_pruning_fraction_unit(benchmark):
    """Benchmark unit: one pruning-fraction computation on Figure 1."""
    graph = motivating_example()
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_negative("N5")
    index = GraphWorkspace().language_index(graph, 4)
    fraction = benchmark(pruning_fraction, graph, index, examples)
    assert 0.0 <= fraction <= 1.0
