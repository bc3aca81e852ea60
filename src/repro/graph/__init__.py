"""Graph-database substrate: edge-labelled directed graphs and utilities."""

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.paths import (
    Path,
    has_word,
    iter_paths,
    paths_spelling,
    reachable_nodes,
    shortest_words,
    word_count_by_length,
    words_from,
)
from repro.graph.neighborhood import (
    NeighborhoodIndex,
    Neighborhood,
    NeighborhoodDelta,
)
from repro.graph.builders import GraphBuilder, from_triples, merge_graphs, relabel_nodes
from repro.graph import datasets, generators, io, statistics

__all__ = [
    "LabeledGraph",
    "Path",
    "has_word",
    "iter_paths",
    "paths_spelling",
    "reachable_nodes",
    "shortest_words",
    "word_count_by_length",
    "words_from",
    "Neighborhood",
    "NeighborhoodDelta",
    "NeighborhoodIndex",
    "GraphBuilder",
    "from_triples",
    "merge_graphs",
    "relabel_nodes",
    "datasets",
    "generators",
    "io",
    "statistics",
]
