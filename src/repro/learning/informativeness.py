"""Informativeness of nodes and pruning of uninformative ones.

"After each interaction, the system prunes the uninformative nodes i.e.,
those that do not add any information about the user's goal query."

Under the paper's semantics a node is **uninformative** when its label can
already be deduced from the current examples, so asking the user about it
would waste an interaction:

* every word of the node (up to the exploration bound) is covered by a
  negative node — no consistent query may select it, so its label is
  forced to negative (it brings no new constraint either way); or
* the node can spell one of the *validated* positive words — every query
  consistent with the validated paths necessarily selects it, so its
  label is forced to positive.

Nodes that are already labelled are trivially uninformative.  The
remaining nodes are *informative*; the strategies in
:mod:`repro.interactive.strategies` only ever propose informative nodes,
and rank them by an informativeness score: the number of short uncovered
words the node has (nodes with many uncovered short paths constrain the
learner the most).

Two implementations coexist:

* the **from-scratch** path (:func:`classify_node`,
  :func:`classify_all_scratch`) re-derives every word set per call — it
  is the readable reference and the oracle the incremental path is
  tested against;
* the **incremental** path (:class:`SessionClassifier`) keeps per-node
  statuses up to date against the shared
  :class:`~repro.learning.language_index.LanguageIndex` bitsets and,
  after each new example, re-scores only the nodes whose status can
  actually change: a grown negative cover touches only nodes whose
  language intersects the *delta* bitset, a newly validated word only
  the nodes that can spell it, a new label only the labelled node.

An interactive session owns exactly one :class:`SessionClassifier`;
its strategy and its label propagation read that one.
:func:`classify_all`, :func:`informative_nodes`, :func:`pruned_nodes`
and :func:`pruning_fraction` are one-shot helpers over a fresh
classifier, for callers outside a session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.paths import words_from
from repro.learning.examples import ExampleSet, Word
from repro.learning.language_index import (
    LanguageIndex,
    iter_bits,
    popcount,
)
from repro.learning.path_selection import covered_words


def _workspace_language_index(graph: LabeledGraph, max_length: int) -> LanguageIndex:
    """Default index provider: the process workspace's build-once index.

    Imported lazily because :mod:`repro.serving.workspace` imports this
    module (the classifier is one of the structures it hosts).
    """
    from repro.serving.workspace import default_workspace

    return default_workspace().language_index(graph, max_length)


@dataclass(frozen=True)
class NodeStatus:
    """Classification of one node with respect to the current examples."""

    node: Node
    labeled: bool
    implied_positive: bool
    implied_negative: bool
    uncovered_word_count: int
    shortest_uncovered_length: Optional[int]

    @property
    def informative(self) -> bool:
        """True when asking the user about this node could add information."""
        return not (self.labeled or self.implied_positive or self.implied_negative)

    @property
    def pruned(self) -> bool:
        """True when the node is unlabelled but its label is already implied."""
        return not self.labeled and (self.implied_positive or self.implied_negative)

    @property
    def score(self) -> Tuple[int, bool, int]:
        """Ranking key used by the most-informative strategy.

        Higher is better: many uncovered words first, then shorter
        shortest-uncovered word.  The middle component makes the absence
        of an uncovered word self-describing — ``(count, False, 0)``
        sorts below any node that still has one — instead of encoding
        ``None`` as a magic sentinel length.
        """
        shortest = self.shortest_uncovered_length
        if shortest is None:
            return (self.uncovered_word_count, False, 0)
        return (self.uncovered_word_count, True, -shortest)


def classify_node(
    graph: LabeledGraph,
    node: Node,
    examples: ExampleSet,
    *,
    max_length: int,
    banned: Optional[Set[Word]] = None,
    validated: Optional[Set[Word]] = None,
) -> NodeStatus:
    """Compute the :class:`NodeStatus` of ``node`` from scratch.

    ``banned`` (words covered by negatives) and ``validated`` (validated
    positive words) can be precomputed by the caller when classifying many
    nodes against the same example set.
    """
    if banned is None:
        banned = covered_words(graph, examples.negative_nodes, max_length)
    if validated is None:
        validated = set(examples.validated_words().values())

    labeled = node in examples.labeled_nodes
    own_words = words_from(graph, node, max_length)
    uncovered = [word for word in own_words if word not in banned]
    implied_positive = not labeled and any(word in validated for word in own_words)
    implied_negative = not labeled and not implied_positive and not uncovered
    shortest = min((len(word) for word in uncovered), default=None)
    return NodeStatus(
        node=node,
        labeled=labeled,
        implied_positive=implied_positive,
        implied_negative=implied_negative,
        uncovered_word_count=len(uncovered),
        shortest_uncovered_length=shortest,
    )


def classify_all_scratch(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    candidates: Optional[Iterable[Node]] = None,
) -> Dict[Node, NodeStatus]:
    """Classify every node (or just ``candidates``) by full recomputation.

    This is the pre-index reference implementation; it is kept as the
    oracle that :class:`SessionClassifier` is verified against (and as
    the baseline of ``benchmarks/bench_session_loop.py``).
    """
    banned = covered_words(graph, examples.negative_nodes, max_length)
    validated = set(examples.validated_words().values())
    pool = candidates if candidates is not None else graph.nodes()
    return {
        node: classify_node(
            graph, node, examples, max_length=max_length, banned=banned, validated=validated
        )
        for node in pool
    }


def _ranked_informative(statuses: Iterable[NodeStatus]) -> List[Node]:
    """Informative nodes by decreasing score, ties by node id ascending.

    The single home of the ranking contract shared by
    :meth:`SessionClassifier.informative` and :func:`informative_nodes`.
    """
    ranked = [status for status in statuses if status.informative]
    ranked.sort(key=lambda status: (status.score, str(status.node)), reverse=False)
    ranked.sort(key=lambda status: status.score, reverse=True)
    return [status.node for status in ranked]


class SessionClassifier:
    """Incrementally maintained node statuses for one evolving example set.

    The classifier snapshots the example set it last saw; every public
    accessor first calls :meth:`refresh`, which diffs the current
    examples against that snapshot and applies only the consequences of
    the *new* examples:

    * **cover growth** (new negative): only nodes whose language bitset
      intersects the newly covered word ids are re-scored;
    * **new validated word**: only the nodes able to spell it can flip to
      implied-positive;
    * **new label**: only the labelled node changes (to ``labeled``).

    Example sets only ever grow during a session, so these deltas are the
    common case; any non-monotone change (a replaced validated word, a
    mutated graph) is detected and answered with a full rebuild, which
    keeps the classifier exactly equivalent to
    :func:`classify_all_scratch` at all times — the property-style tests
    in ``tests/learning/test_language_index.py`` pin this.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        examples: ExampleSet,
        *,
        max_length: int,
        index_provider=None,
    ):
        self.graph = graph
        #: the example set this classifier tracks
        self.examples = examples
        self.max_length = max_length
        #: ``(graph, max_length) -> LanguageIndex`` — a GraphWorkspace
        #: threads its own accessor here so index (re)builds go through
        #: the workspace's build-once locks and accounting
        self._index_provider = (
            index_provider if index_provider is not None else _workspace_language_index
        )
        self._index: Optional[LanguageIndex] = None
        self._statuses: Dict[Node, NodeStatus] = {}
        self._cover = 0
        self._validated_bits = 0
        self._negatives: FrozenSet[Node] = frozenset()
        self._validated: Dict[Node, Word] = {}
        self._labeled: FrozenSet[Node] = frozenset()
        self._rebuild()

    @property
    def index(self) -> LanguageIndex:
        """The language index backing the current statuses."""
        return self._index

    # ------------------------------------------------------------------
    # state maintenance
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        self._negatives = self.examples.negative_nodes
        self._validated = dict(self.examples.validated_words())
        self._labeled = self.examples.labeled_nodes

    def _status_of(
        self, node: Node, language: int, cover: int, validated_bits: int, labeled: FrozenSet[Node]
    ) -> NodeStatus:
        uncovered = language & ~cover
        count = popcount(uncovered)
        shortest = self._index.shortest_length(uncovered)
        is_labeled = node in labeled
        implied_positive = not is_labeled and bool(language & validated_bits)
        implied_negative = not is_labeled and not implied_positive and count == 0
        return NodeStatus(
            node=node,
            labeled=is_labeled,
            implied_positive=implied_positive,
            implied_negative=implied_negative,
            uncovered_word_count=count,
            shortest_uncovered_length=shortest,
        )

    def _rebuild(self) -> None:
        self._index = self._index_provider(self.graph, self.max_length)
        index = self._index
        self._snapshot()
        cover = index.cover(self._negatives)
        validated_bits = index.words_bitset(self._validated.values())
        labeled = self._labeled
        self._cover = cover
        self._validated_bits = validated_bits
        self._statuses = {
            node: self._status_of(node, index.language(node), cover, validated_bits, labeled)
            for node in index.nodes
        }

    def refresh(self) -> None:
        """Bring the statuses up to date with the examples and the graph."""
        index = self._index
        if index is None or index.version != self.graph.version:
            self._rebuild()
            return
        examples = self.examples
        negatives = examples.negative_nodes
        validated = examples.validated_words()
        labeled = examples.labeled_nodes
        if not (negatives >= self._negatives and labeled >= self._labeled):
            self._rebuild()  # labels were removed: not a session flow
            return
        for node, word in self._validated.items():
            if validated.get(node) != word:
                self._rebuild()  # a validated word was replaced
                return
        new_negatives = negatives - self._negatives
        new_validated = [word for node, word in validated.items() if node not in self._validated]
        new_labeled = labeled - self._labeled
        if not (new_negatives or new_validated or new_labeled):
            return

        cover = self._cover
        if new_negatives:
            cover |= index.cover(new_negatives)
        cover_delta = cover & ~self._cover
        validated_bits = self._validated_bits | index.words_bitset(new_validated)
        validated_delta = validated_bits & ~self._validated_bits

        statuses = self._statuses
        language_of = index.language
        if cover_delta:
            # a grown cover can re-score any node whose language meets the
            # delta — one bit-and per node finds them
            for node in index.nodes:
                language = language_of(node)
                if (language & cover_delta) or (language & validated_delta) or node in new_labeled:
                    statuses[node] = self._status_of(node, language, cover, validated_bits, labeled)
        else:
            # no cover change: only the nodes spelling a newly validated
            # word and the newly labelled nodes can differ
            speller_bits = 0
            for word_id in iter_bits(validated_delta):
                speller_bits |= index.spellers(word_id)
            # dedup in first-seen order (dict, not set) so status dict
            # insertion order stays reproducible across processes
            affected = dict.fromkeys(index.nodes_of(speller_bits))
            # labelled nodes absent from the graph classify nothing (the
            # scratch path never visits them either)
            affected.update(dict.fromkeys(node for node in new_labeled if node in index))
            for node in affected:
                statuses[node] = self._status_of(
                    node, language_of(node), cover, validated_bits, labeled
                )
        self._cover = cover
        self._validated_bits = validated_bits
        self._snapshot()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def statuses(self) -> Dict[Node, NodeStatus]:
        """Current classification of every node (a fresh dict snapshot)."""
        self.refresh()
        return dict(self._statuses)

    def informative(self) -> List[Node]:
        """Informative nodes sorted by decreasing score (ties by node id)."""
        self.refresh()
        return _ranked_informative(self._statuses.values())

    def informative_count(self) -> int:
        """Number of informative nodes remaining."""
        self.refresh()
        return sum(1 for status in self._statuses.values() if status.informative)

    def __repr__(self) -> str:
        return (
            f"<SessionClassifier bound={self.max_length} "
            f"{len(self._statuses)} nodes, cover={popcount(self._cover)} words>"
        )


def classify_all(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    candidates: Optional[Iterable[Node]] = None,
) -> Dict[Node, NodeStatus]:
    """Classify every node (or just ``candidates``) against the examples.

    A one-shot helper over a fresh :class:`SessionClassifier` (whose
    language index comes from the default workspace).  Results are
    identical to :func:`classify_all_scratch`.
    """
    statuses = SessionClassifier(graph, examples, max_length=max_length).statuses()
    if candidates is None:
        return statuses
    restricted: Dict[Node, NodeStatus] = {}
    for node in candidates:
        status = statuses.get(node)
        if status is None:
            raise NodeNotFoundError(node)
        restricted[node] = status
    return restricted


def informative_nodes(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
    candidates: Optional[Iterable[Node]] = None,
) -> List[Node]:
    """The informative nodes, sorted by decreasing informativeness score.

    Ties are broken by node identifier so the ordering is deterministic.
    """
    if candidates is None:
        return SessionClassifier(graph, examples, max_length=max_length).informative()
    statuses = classify_all(graph, examples, max_length=max_length, candidates=candidates)
    return _ranked_informative(statuses.values())


def pruned_nodes(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
) -> FrozenSet[Node]:
    """Unlabelled nodes whose label is already implied (the pruned set).

    The size of this set after each interaction is the quantity tracked by
    experiment E2 (pruning effectiveness).
    """
    statuses = classify_all(graph, examples, max_length=max_length)
    return frozenset(node for node, status in statuses.items() if status.pruned)


def pruning_fraction(
    graph: LabeledGraph,
    examples: ExampleSet,
    *,
    max_length: int,
) -> float:
    """Fraction of unlabelled nodes that are pruned (0.0 when all nodes are labelled)."""
    unlabeled = [node for node in graph.nodes() if node not in examples.labeled_nodes]
    if not unlabeled:
        return 0.0
    pruned = pruned_nodes(graph, examples, max_length=max_length)
    return len(pruned) / len(unlabeled)
