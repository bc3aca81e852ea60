#!/usr/bin/env python3
"""Quickstart — the paper's motivating example, end to end.

This walks through everything the demo shows on the Figure 1 graph:

1. load the geographical graph database;
2. evaluate the goal query ``(tram + bus)* . cinema`` directly (what an
   expert who can write regular expressions would do);
3. run the GPS interactive loop with a simulated non-expert user who only
   answers Yes/No questions and validates paths — and recover a query with
   the same answer;
4. show the Figure 3 artefacts (neighbourhood, zoom, prefix tree of paths).

Run with::

    python examples/quickstart.py
"""

from repro.graph.datasets import motivating_example
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.visualization import (
    render_neighborhood_text,
    render_prefix_tree_text,
    render_zoom_text,
)
from repro.learning.path_selection import candidate_prefix_tree
from repro.query.evaluation import witness_path
from repro.query.rpq import PathQuery
from repro.serving.workspace import default_workspace

GOAL = "(tram + bus)* . cinema"


def main() -> None:
    graph = motivating_example()
    workspace = default_workspace()
    print(f"graph: {graph!r}")
    print()

    # -- 1. direct evaluation (the expert path) -----------------------------
    goal = PathQuery(GOAL)
    answer = workspace.engine.evaluate(graph, goal)
    print(f"expert writes the query herself: {goal}")
    print(f"  answer: {sorted(answer)}")
    for node in sorted(answer):
        print(f"  why {node}: {witness_path(graph, goal, node)}")
    print()

    # -- 2. the interactive loop (the non-expert path) ----------------------
    user = SimulatedUser(graph, goal)
    session = InteractiveSession(graph, user)
    result = session.run()
    print("non-expert specifies the same query interactively:")
    for record in result.records:
        validated = ".".join(record.validated_word) if record.validated_word else "-"
        print(
            f"  question {record.index}: label {record.node} -> "
            f"{'+' if record.positive else '-'} (zooms={record.zooms}, validated={validated})"
        )
    print(f"  learned query : {result.learned_query}")
    print(f"  its answer    : {sorted(workspace.engine.evaluate(graph, result.learned_query))}")
    print(f"  interactions  : {result.interactions} (graph has {graph.node_count} nodes)")
    print()

    # -- 3. the Figure 3 artefacts ------------------------------------------
    print("what the user saw for N2 (Figure 3):")
    neighborhoods = workspace.neighborhoods(graph)
    radius2 = neighborhoods.neighborhood("N2", 2)
    print(render_neighborhood_text(radius2))
    print()
    print("after zooming out (new elements marked [new]):")
    print(render_zoom_text(neighborhoods.zoom(radius2)))
    print()
    print("prefix tree of N2's candidate paths (>> marks the system's suggestion):")
    index = workspace.language_index(graph, 3)
    tree = candidate_prefix_tree(graph, index, "N2", ["N5"], preferred_length=3)
    print(render_prefix_tree_text(tree))


if __name__ == "__main__":
    main()
