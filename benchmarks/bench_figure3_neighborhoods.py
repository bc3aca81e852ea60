"""Figure 3 — neighbourhoods of N2 (a, b) and the prefix tree of its paths (c).

Regenerates the three artefacts (radius-2 fragment, zoom delta to radius 3,
prefix tree with the ``bus.bus.cinema`` candidate highlighted) and
benchmarks neighbourhood extraction / zooming / prefix-tree construction,
including on a larger graph.
"""

from repro.experiments.figures import figure3
from repro.graph.datasets import motivating_example, transit_city
from repro.learning.path_selection import candidate_prefix_tree
from repro.serving.workspace import GraphWorkspace

from conftest import write_artifact


def test_figure3_regeneration(benchmark, results_dir):
    result = benchmark(figure3)
    assert result.highlighted == ("bus", "bus", "cinema")
    assert not result.neighborhood_2.contains("C1")
    assert result.zoom_delta.current.contains("C1")
    write_artifact(results_dir, "figure3.txt", result.render())


def test_figure3a_neighborhood_extraction(benchmark):
    graph = motivating_example()
    index = GraphWorkspace().neighborhoods(graph)
    neighborhood = benchmark(index.neighborhood, "N2", 2)
    assert neighborhood.radius == 2


def test_figure3b_zoom_out(benchmark):
    graph = motivating_example()
    index = GraphWorkspace().neighborhoods(graph)
    base = index.neighborhood("N2", 2)
    delta = benchmark(index.zoom, base)
    assert "C1" in delta.new_nodes


def test_figure3c_prefix_tree(benchmark):
    graph = motivating_example()
    index = GraphWorkspace().language_index(graph, 3)
    tree = benchmark(candidate_prefix_tree, graph, index, "N2", ["N5"], preferred_length=3)
    assert tree.highlighted_word() == ("bus", "bus", "cinema")


def test_neighborhood_extraction_on_large_city(benchmark):
    graph = transit_city(400, tram_lines=8, bus_lines=12, line_length=20, seed=5)
    center = sorted(graph.nodes(), key=str)[0]
    index = GraphWorkspace().neighborhoods(graph)
    neighborhood = benchmark(index.neighborhood, center, 2)
    assert neighborhood.contains(center)
