"""Node-proposal strategies Υ.

A strategy is "a function that takes as input a graph G and a set of
examples S, and returns a node from G" (Section 2).  A good practical
strategy must (i) be time-efficient between interactions and (ii) minimise
the number of interactions by proposing only the most informative nodes.

Implemented strategies:

* :class:`RandomStrategy` — uniform choice among *unlabelled* nodes
  (ignores informativeness; the weakest baseline, models static labelling
  where the user wanders through the graph);
* :class:`RandomInformativeStrategy` — uniform choice among informative
  nodes (pruning on, ranking off);
* :class:`BreadthStrategy` — nearest informative node to the already
  labelled ones (locality heuristic: the user keeps looking around the
  same area of the graph);
* :class:`MostInformativePathsStrategy` — the paper's practical strategy:
  rank informative nodes by the number of short uncovered words they have
  ("nodes having an important number of paths that are shorter than a
  fixed bound and not covered by any negative node").

:meth:`Strategy.propose` takes the session's incremental
:class:`~repro.learning.informativeness.SessionClassifier`, which holds
G, S and the path bound, so a strategy proposing inside a session
re-ranks from bitset deltas instead of re-enumerating every node's path
language per interaction.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Optional

from repro.exceptions import NoCandidateNodeError
from repro.graph.labeled_graph import Node
from repro.learning.informativeness import SessionClassifier


class Strategy(ABC):
    """Base class for node-proposal strategies."""

    #: short identifier used in experiment tables
    name: str = "abstract"

    def signature(self) -> Optional[tuple]:
        """Hashable description of this strategy's proposal behaviour.

        Used by cross-session deduplication: two strategies with equal
        signatures propose identical node sequences on identical session
        states.  ``None`` (the base default for unknown subclasses, and
        unseeded random strategies) means "not reproducible — never
        dedup".  Deterministic built-ins return ``(name,)``; the path
        bound is part of the session's dedup key, not the strategy's.
        """
        return None

    @abstractmethod
    def propose(self, classifier: SessionClassifier) -> Node:
        """Return the next node to show to the user.

        ``classifier`` is the session's classifier: ``classifier.graph``
        is G, ``classifier.examples`` is S and its statuses are computed
        up to the session's path bound.  Raises
        :class:`NoCandidateNodeError` when no candidate remains.
        """


class _SeededStrategy(Strategy):
    """Base of the random strategies: one seeded rng per strategy."""

    def __init__(self, *, seed: Optional[int] = None):
        self.seed = seed
        self._rng = random.Random(seed)

    def signature(self) -> Optional[tuple]:
        if self.seed is None:
            return None  # unseeded: proposals are not reproducible
        return (self.name, self.seed)


class RandomStrategy(_SeededStrategy):
    """Uniformly random unlabelled node (no pruning, no ranking)."""

    name = "random"

    def propose(self, classifier: SessionClassifier) -> Node:
        labeled = classifier.examples.labeled_nodes
        candidates = sorted(
            (node for node in classifier.graph.nodes() if node not in labeled), key=str
        )
        if not candidates:
            raise NoCandidateNodeError("every node is already labelled")
        return self._rng.choice(candidates)


class RandomInformativeStrategy(_SeededStrategy):
    """Uniformly random *informative* node (pruning on, ranking off)."""

    name = "random-informative"

    def propose(self, classifier: SessionClassifier) -> Node:
        candidates = classifier.informative()
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        return self._rng.choice(sorted(candidates, key=str))


class BreadthStrategy(Strategy):
    """Nearest informative node to the labelled region (undirected BFS)."""

    name = "breadth"

    def signature(self) -> Optional[tuple]:
        return (self.name,)

    def propose(self, classifier: SessionClassifier) -> Node:
        candidates = set(classifier.informative())
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        graph = classifier.graph
        seeds = sorted(classifier.examples.labeled_nodes & frozenset(graph.nodes()), key=str)
        if not seeds:
            return sorted(candidates, key=str)[0]
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            node = queue.popleft()
            if node in candidates:
                return node
            neighbors = sorted(graph.successors(node) | graph.predecessors(node), key=str)
            for other in neighbors:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        # labelled region does not reach any candidate: fall back to global order
        return sorted(candidates, key=str)[0]


class MostInformativePathsStrategy(Strategy):
    """The paper's practical strategy: most short uncovered words first."""

    name = "most-informative"

    def signature(self) -> Optional[tuple]:
        return (self.name,)

    def propose(self, classifier: SessionClassifier) -> Node:
        ranked = classifier.informative()
        if not ranked:
            raise NoCandidateNodeError("no informative node remains")
        return ranked[0]


class DegreeStrategy(Strategy):
    """Highest out-degree informative node (cheap proxy for informativeness).

    Included as an ablation point between random and most-informative: it
    needs no path enumeration at all, so it is the fastest ranking
    strategy, but it ignores how many of a node's paths are already
    covered by negatives.
    """

    name = "degree"

    def signature(self) -> Optional[tuple]:
        return (self.name,)

    def propose(self, classifier: SessionClassifier) -> Node:
        statuses = classifier.statuses()
        candidates = [node for node, status in statuses.items() if status.informative]
        if not candidates:
            raise NoCandidateNodeError("no informative node remains")
        graph = classifier.graph
        return max(sorted(candidates, key=str), key=lambda node: graph.out_degree(node))


#: Registry used by experiments and the console front-end.
STRATEGY_REGISTRY = {
    cls.name: cls
    for cls in (
        RandomStrategy,
        RandomInformativeStrategy,
        BreadthStrategy,
        MostInformativePathsStrategy,
        DegreeStrategy,
    )
}


def make_strategy(name: str, *, seed: Optional[int] = None) -> Strategy:
    """Instantiate a strategy by registry name."""
    if name not in STRATEGY_REGISTRY:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(STRATEGY_REGISTRY)}")
    cls = STRATEGY_REGISTRY[name]
    if issubclass(cls, _SeededStrategy):
        return cls(seed=seed)
    return cls()
