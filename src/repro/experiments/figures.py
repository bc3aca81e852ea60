"""Regeneration of the paper's figures.

The demo paper has three figures; each function here regenerates the
corresponding artefact programmatically and returns both the raw objects
and a text rendering, so the benchmark scripts can print them and the
tests can assert the paper's stated facts:

* :func:`figure1` — the motivating graph and the answer of
  ``(tram + bus)* . cinema`` (must be exactly ``{N1, N2, N4, N6}``);
* :func:`figure2` — a full interactive session transcript on that graph
  (the loop of Figure 2 with a simulated user whose goal is the paper's
  query);
* :func:`figure3` — the neighbourhood of ``N2`` at distance 2, the zoom
  to distance 3 with its delta, and the prefix tree of the uncovered
  paths of ``N2`` of length ≤ 3 with the candidate ``bus.bus.cinema``
  highlighted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.graph.datasets import motivating_example, motivating_example_expected_answer
from repro.graph.neighborhood import Neighborhood, NeighborhoodDelta
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession, SessionResult
from repro.interactive.visualization import (
    render_neighborhood_text,
    render_prefix_tree_text,
    render_zoom_text,
)
from repro.automata.prefix_tree import PathPrefixTree
from repro.learning.path_selection import candidate_prefix_tree
from repro.query.evaluation import witness_path
from repro.serving.workspace import default_workspace
from repro.query.rpq import PathQuery

#: The paper's goal query on the motivating example.
FIGURE1_QUERY = "(tram + bus)* . cinema"


@dataclass
class Figure1Result:
    """Figure 1: the motivating graph and its goal-query answer."""

    graph: object
    query: PathQuery
    answer: frozenset
    expected: frozenset
    witnesses: Dict[str, Optional[object]]

    @property
    def matches_paper(self) -> bool:
        """True when the computed answer is the paper's {N1, N2, N4, N6}."""
        return self.answer == self.expected

    def render(self) -> str:
        lines = [
            f"Figure 1 — query {self.query} on the geographical graph",
            f"  selected nodes : {sorted(self.answer, key=str)}",
            f"  paper's answer : {sorted(self.expected, key=str)}",
            f"  match          : {self.matches_paper}",
        ]
        for node, witness in sorted(self.witnesses.items()):
            lines.append(f"  witness for {node}: {witness}")
        return "\n".join(lines)


def figure1() -> Figure1Result:
    """Recompute the Figure 1 answer and per-node witness paths."""
    graph = motivating_example()
    query = PathQuery(FIGURE1_QUERY)
    answer = frozenset(default_workspace().engine.evaluate(graph, query))
    witnesses = {
        str(node): witness_path(graph, query, node) for node in sorted(answer, key=str)
    }
    return Figure1Result(
        graph=graph,
        query=query,
        answer=answer,
        expected=motivating_example_expected_answer(),
        witnesses=witnesses,
    )


@dataclass
class Figure2Result:
    """Figure 2: one full run of the interactive loop."""

    session_result: SessionResult
    goal: PathQuery
    exact_goal: bool
    instance_match: bool

    def render(self) -> str:
        result = self.session_result
        lines = [
            f"Figure 2 — interactive loop, goal {self.goal}",
            f"  interactions : {result.interactions}",
            f"  halted by    : {result.halted_by}",
            f"  learned      : {result.learned_query}",
            f"  exact goal   : {self.exact_goal}",
            f"  same answer  : {self.instance_match}",
        ]
        for record in result.records:
            word = ".".join(record.validated_word) if record.validated_word else "-"
            lines.append(
                f"    #{record.index} node={record.node} label={'+' if record.positive else '-'} "
                f"zooms={record.zooms} validated={word} hypothesis={record.hypothesis}"
            )
        return "\n".join(lines)


def figure2(*, path_validation: bool = True) -> Figure2Result:
    """Run the Figure 2 loop on the motivating example with a simulated user."""
    graph = motivating_example()
    goal = PathQuery(FIGURE1_QUERY)
    user = SimulatedUser(graph, goal)
    session = InteractiveSession(graph, user, path_validation=path_validation)
    result = session.run()
    learned = result.learned_query
    exact = learned is not None and learned.same_language(goal)
    engine = session.engine
    instance_match = learned is not None and frozenset(
        engine.evaluate(graph, learned)
    ) == frozenset(engine.evaluate(graph, goal))
    return Figure2Result(result, goal, exact, instance_match)


@dataclass
class Figure3Result:
    """Figure 3: neighbourhoods of N2 (a, b) and its prefix tree of paths (c)."""

    neighborhood_2: Neighborhood
    zoom_delta: NeighborhoodDelta
    prefix_tree: PathPrefixTree
    highlighted: Optional[Tuple[str, ...]]

    def render(self) -> str:
        parts = [
            "Figure 3(a) — neighbourhood of N2 at distance 2",
            render_neighborhood_text(self.neighborhood_2),
            "",
            "Figure 3(b) — zoom to distance 3 (new elements marked)",
            render_zoom_text(self.zoom_delta),
            "",
            "Figure 3(c) — prefix tree of N2's uncovered paths (length ≤ 3)",
            render_prefix_tree_text(self.prefix_tree),
            "",
            f"highlighted candidate: {'.'.join(self.highlighted) if self.highlighted else '(none)'}",
        ]
        return "\n".join(parts)


def figure3(*, negatives: Tuple[str, ...] = ("N5",)) -> Figure3Result:
    """Build the three artefacts of Figure 3 for node N2.

    The radius-2 fragment and the zoom to radius 3 share one BFS through
    the graph's :class:`~repro.graph.neighborhood.NeighborhoodIndex`.
    """
    graph = motivating_example()
    workspace = default_workspace()
    index = workspace.neighborhoods(graph)
    neighborhood_2 = index.neighborhood("N2", 2)
    delta = index.zoom(neighborhood_2)
    tree = candidate_prefix_tree(
        graph, workspace.language_index(graph, 3), "N2", negatives, preferred_length=3
    )
    return Figure3Result(
        neighborhood_2=neighborhood_2,
        zoom_delta=delta,
        prefix_tree=tree,
        highlighted=tree.highlighted_word(),
    )


def all_figures() -> Dict[str, str]:
    """Render every figure (used by the documentation generator and benches)."""
    return {
        "figure1": figure1().render(),
        "figure2": figure2().render(),
        "figure3": figure3().render(),
    }
