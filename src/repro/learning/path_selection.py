"""Step (i) of the learning algorithm: choosing a path per positive node.

For each positive example the learner needs "a path that is not covered by
any negative" — a word the positive node can spell but **no** negative
node can.  (If a negative node could spell it too, any query accepting the
word would select that negative node and become inconsistent.)

The same machinery powers the path-validation interaction of Figure 3(c):
the system builds all uncovered words of the node up to the size of the
last neighbourhood the user looked at, arranges them in a prefix tree,
and highlights a candidate word — preferring words whose length equals the
neighbourhood radius the user needed before deciding (the paper's
heuristic: if she zoomed to distance 3, a length-3 path likely matters).
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.prefix_tree import PathPrefixTree, build_path_prefix_tree
from repro.exceptions import NoConsistentPathError
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.paths import has_word
from repro.learning.language_index import LanguageIndex

Word = Tuple[str, ...]


def covered_words(index: LanguageIndex, negatives: Iterable[Node]) -> Set[Word]:
    """The union of the bounded path languages of the negative nodes.

    A word in this set is "covered by a negative": making the hypothesis
    accept it would select a negative node.  The bound is
    ``index.max_length``.

    Every negative must be a node of the index's graph snapshot; an
    unknown node raises :class:`NodeNotFoundError`, consistent with
    :func:`repro.graph.paths.words_from`.  (Earlier versions silently
    skipped unknown negatives, which let a typo in an example set shrink
    the cover — and therefore weaken pruning and path selection — without
    any signal.)  Callers with speculative negative sets must pre-filter,
    as :func:`consistent_words_for` does.
    """
    return index.decode(index.cover(negatives))  # raises NodeNotFoundError when absent


def consistent_words_for(
    index: LanguageIndex,
    node: Node,
    negatives: Iterable[Node],
    *,
    limit: Optional[int] = None,
) -> List[Word]:
    """Words of ``node`` (length ≤ ``index.max_length``) covered by no negative.

    Returned shortest-first, ties broken lexicographically, so the first
    element is the learner's default candidate.  Negatives absent from
    the index are ignored.

    The empty word is offered as a last resort only when the node has no
    non-empty uncovered word *and* there is no negative example: every node
    spells the empty word, so a query accepting it selects the whole graph,
    which is consistent only while no node is labelled negative.  (This is
    what makes a sink node a legal positive example in an otherwise
    negative-free example set.)
    """
    negative_nodes = [item for item in negatives if item in index]
    banned = index.cover(negative_nodes)
    uncovered = index.language(node) & ~banned
    if limit is not None and limit <= 0:
        return []
    if limit == 1:
        # the consistency checker probes per-positive non-emptiness this
        # way; pick_word reads the answer off the bitset without decoding
        # (and sorting) the node's whole uncovered language
        word = index.pick_word(uncovered)
        if word is not None:
            return [word]
        return [()] if not negative_nodes else []
    candidates = sorted(index.decode(uncovered), key=lambda word: (len(word), word))
    if not candidates and not negative_nodes:
        candidates = [()]
    if limit is not None:
        return candidates[:limit]
    return candidates


def select_path(
    index: LanguageIndex,
    node: Node,
    negatives: Collection[Node],
    *,
    preferred_length: Optional[int] = None,
    cover_bits: Optional[int] = None,
) -> Word:
    """Pick the candidate word for a positive node.

    Default choice is the shortest uncovered word; when
    ``preferred_length`` is given (the radius of the last neighbourhood the
    user inspected), words of exactly that length are preferred, matching
    the heuristic the paper uses to pre-highlight a path in Figure 3(c).

    Without ``cover_bits`` negatives absent from the index are ignored
    and the cover is derived here.  ``cover_bits`` passes a precomputed
    cover, ``index.cover(negatives)``, so callers selecting words for many
    positive nodes — the learner's step (i) — filter the negatives and
    derive the cover once instead of once per node; ``negatives`` is then
    that already-filtered collection and is only tested for emptiness.

    Returns the empty word when the node has no uncovered word and there
    is no negative (see :func:`consistent_words_for`); raises
    :class:`NoConsistentPathError` when every word of the node up to
    ``index.max_length`` is covered by some negative.
    """
    if cover_bits is None:
        negatives = [item for item in negatives if item in index]
        cover_bits = index.cover(negatives)
    uncovered = index.language(node) & ~cover_bits
    word = index.pick_word(uncovered, preferred_length)
    if word is not None:
        return word
    if not negatives:
        return ()  # the empty-word fallback of consistent_words_for
    raise NoConsistentPathError(node, index.max_length)


def candidate_prefix_tree(
    graph: LabeledGraph,
    index: LanguageIndex,
    node: Node,
    negatives: Iterable[Node],
    *,
    preferred_length: Optional[int] = None,
) -> PathPrefixTree:
    """The prefix tree of uncovered words of ``node``, candidate highlighted.

    This is exactly the artefact shown to the user in Figure 3(c): all
    paths of the node of length at most ``index.max_length`` (the last
    neighbourhood size) that are not yet covered by negative examples,
    presented as a prefix tree with the system's best guess highlighted.
    ``index`` must be built on ``graph`` at its current version.
    """
    index.check_current(graph)
    uncovered = consistent_words_for(index, node, negatives)
    endpoints: Dict[Word, Tuple] = {}
    for word in uncovered:
        # record the graph nodes reachable by spelling each prefix of the word
        for cut in range(1, len(word) + 1):
            prefix = word[:cut]
            if prefix not in endpoints:
                endpoints[prefix] = _endpoints_of(graph, node, prefix)
    highlight: Optional[Word] = None
    if uncovered:
        if preferred_length is not None:
            preferred = [word for word in uncovered if len(word) == preferred_length]
            highlight = preferred[0] if preferred else uncovered[0]
        else:
            highlight = uncovered[0]
    return build_path_prefix_tree(endpoints, node, highlight=highlight)


def _endpoints_of(graph: LabeledGraph, start: Node, word: Sequence[str]) -> Tuple:
    """Graph nodes reachable from ``start`` by spelling ``word`` (sorted)."""
    current = {start}
    for label in word:
        following: Set[Node] = set()
        # repro-lint: disable=REP104 -- only set unions happen per node; the result is sorted on return
        for node in current:
            following.update(graph.successors(node, label))
        current = following
        if not current:
            return ()
    return tuple(sorted(current, key=str))


def validate_word(
    graph: LabeledGraph,
    index: LanguageIndex,
    node: Node,
    word: Sequence[str],
    negatives: Iterable[Node],
) -> bool:
    """Check that ``word`` is a legal validation answer for ``node``.

    The word must be spellable from the node, no longer than
    ``index.max_length`` and not covered by any negative example (the
    interactive UI only offers such words, but the programmatic API
    re-checks before trusting a caller).  Negatives absent from the graph
    are ignored, like in :func:`consistent_words_for` — this function
    validates caller input, so a speculative negative set must not turn
    the check into an error.  ``index`` must be built on ``graph`` at its
    current version.
    """
    index.check_current(graph)
    if not has_word(graph, node, word):
        return False
    if len(word) > index.max_length:
        return False
    banned = index.cover(item for item in negatives if item in index)
    word_id = index.arena.lookup(word)
    return word_id is None or not (banned >> word_id) & 1
