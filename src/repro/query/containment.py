"""Query comparison: language level and instance level.

Two different notions matter in the interactive scenario:

* **language equivalence / containment** — graph-independent, decided on
  the minimal DFAs; this is the halt condition "exactly one consistent
  query" in its strongest form, and the success criterion of experiment
  E4 (did we recover the *goal query*, not merely a consistent one);
* **instance equivalence** — two queries returning the same answer set on
  the current database; this is what the user actually observes, and the
  paper's weaker halt condition ("the user is satisfied by the output of
  some candidate query") only looks at this level.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.automata.dfa import DFA
from repro.automata.equivalence import counterexample, equivalent, included, inclusion_counterexample
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex

QueryLike = Union[str, Regex, PathQuery, DFA]


def _as_query(query: QueryLike) -> PathQuery:
    if isinstance(query, PathQuery):
        return query
    if isinstance(query, DFA):
        return PathQuery.from_dfa(query)
    return PathQuery(query)


def language_equivalent(first: QueryLike, second: QueryLike) -> bool:
    """True when the two queries denote the same language."""
    return equivalent(_as_query(first).dfa, _as_query(second).dfa)


def language_included(first: QueryLike, second: QueryLike) -> bool:
    """True when ``L(first) ⊆ L(second)``."""
    return included(_as_query(first).dfa, _as_query(second).dfa)


def language_counterexample(first: QueryLike, second: QueryLike) -> Optional[Tuple[str, ...]]:
    """A shortest word distinguishing the two query languages (or ``None``)."""
    return counterexample(_as_query(first).dfa, _as_query(second).dfa)


def containment_counterexample(first: QueryLike, second: QueryLike) -> Optional[Tuple[str, ...]]:
    """A word of ``L(first) \\ L(second)`` (or ``None`` when contained)."""
    return inclusion_counterexample(_as_query(first).dfa, _as_query(second).dfa)


def instance_equivalent(
    engine: QueryEngine, graph: LabeledGraph, first: QueryLike, second: QueryLike
) -> bool:
    """True when the two queries select the same nodes of ``graph``."""
    return engine.evaluate(graph, first) == engine.evaluate(graph, second)


def instance_difference(
    engine: QueryEngine, graph: LabeledGraph, first: QueryLike, second: QueryLike
) -> Tuple[frozenset, frozenset]:
    """Nodes selected only by ``first`` and only by ``second`` on ``graph``."""
    first_answer = engine.evaluate(graph, first)
    second_answer = engine.evaluate(graph, second)
    return (first_answer - second_answer, second_answer - first_answer)


def distinguishing_node(
    engine: QueryEngine, graph: LabeledGraph, first: QueryLike, second: QueryLike
) -> Optional[Node]:
    """A node on which the two queries disagree (or ``None``).

    Such a node is exactly what the interactive strategy would like to
    present to the user next when both queries are still consistent with
    the current examples.
    """
    only_first, only_second = instance_difference(engine, graph, first, second)
    candidates = sorted(only_first | only_second, key=str)
    return candidates[0] if candidates else None
