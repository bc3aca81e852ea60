"""Evaluation of regular path queries on graph databases.

A node ``v`` is selected by query ``q`` iff some path starting at ``v``
spells a word of ``L(q)``.  Evaluating all nodes at once is a single
fixed-point computation on the *product* of the graph with the query DFA:

* a product state ``(v, s)`` is *successful* when from it one can reach a
  pair whose DFA state is accepting;
* ``v`` is selected iff ``(v, initial_state)`` is successful.

We compute the successful product states backwards (from accepting pairs,
following reversed product edges), which evaluates the query for **all**
nodes in ``O(|G| · |A|)`` — the standard RPQ evaluation bound — instead of
running a forward search per node.

Evaluation itself lives on :class:`~repro.query.engine.QueryEngine`
(``workspace.engine.evaluate(graph, query)``, ``selects``,
``evaluate_many``, ``answer_signature``, ``selection_metrics``), which
adds a label-indexed graph representation, compiled query plans, a
shared-frontier batch evaluator and an answer cache keyed on
``(graph.version, fingerprint)``.  This module keeps the one
engine-free primitive: :func:`witness_path`, the shortest path that
explains why a node is selected.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set, Tuple, Union

from repro.automata.dfa import DFA, symbol_sort_key
from repro.exceptions import NodeNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.paths import Path
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex

QueryLike = Union[str, Regex, PathQuery, DFA]


def _as_dfa(query: QueryLike) -> DFA:
    """Normalise the accepted query spellings into a DFA."""
    if isinstance(query, DFA):
        return query
    if isinstance(query, PathQuery):
        return query.dfa
    return PathQuery(query).dfa


def witness_path(
    graph: LabeledGraph, query: QueryLike, node: Node, *, max_length: Optional[int] = None
) -> Optional[Path]:
    """A shortest path witnessing that ``query`` selects ``node`` (or ``None``).

    The witness is what the demo shows to the user to explain *why* a node
    is in the answer (e.g. ``N2 -bus-> N1 -tram-> N4 -cinema-> C1``).
    """
    dfa = _as_dfa(query)
    if node not in graph:
        raise NodeNotFoundError(node)
    start_pair = (node, dfa.initial_state)
    if dfa.is_accepting(dfa.initial_state):
        return Path(node)
    seen: Set[Tuple[Node, object]] = {start_pair}
    queue: deque = deque([(start_pair, Path(node))])
    while queue:
        (graph_node, state), path = queue.popleft()
        if max_length is not None and len(path) >= max_length:
            continue
        for symbol, target_node in sorted(
            graph.out_edges(graph_node),
            key=lambda step: (symbol_sort_key(step[0]), symbol_sort_key(step[1])),
        ):
            dfa_target = dfa.target(state, symbol)
            if dfa_target is None:
                continue
            extended = path.extend(symbol, target_node)
            if dfa.is_accepting(dfa_target):
                return extended
            pair = (target_node, dfa_target)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, extended))
    return None
